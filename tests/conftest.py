import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fusionkit import (
    Group,
    catalog_names,
    direct_product_groups,
    enumerate_subsystems_on,
    fusion_of_group,
    load_catalog,
    make_group,
    parse_perm,
    strongly_closed_subgroups,
    weakly_normal_systems_on,
)
from fusionkit.errors import InputError
from fusionkit.groups import is_prime

SWEEP_MAX_ORDER = 24
SWEEP_T_BOUND = 16
LADDER = (("a4", "d8"), ("s4", "d8"), ("s4", "q16"))


def sweep_pairs(max_order: int = SWEEP_MAX_ORDER):
    """(name, prime, group) for every catalog group of order <= max_order
    and every prime dividing its order."""
    for name in sorted(catalog_names()):
        spec = load_catalog(name)
        if spec.get("order", 0) > max_order:
            continue
        G = make_group(spec)
        if len(G) > max_order:
            continue
        for p in range(2, len(G) + 1):
            if len(G) % p == 0 and is_prime(p):
                yield name, p, G


@pytest.fixture(scope="session")
def catalog_systems():
    """[(name, prime, F)] over the order-bounded catalog sweep."""
    return [
        (name, p, fusion_of_group(G, p)) for name, p, G in sweep_pairs()
    ]


@pytest.fixture(scope="session")
def every_catalog_system():
    """F_P(G) for every catalog group G, of any order, and every prime
    dividing |G|."""
    return [fusion_of_group(G, p) for _, p, G in sweep_pairs(max_order=10**9)]


@pytest.fixture(scope="session")
def carrier_subsystems(catalog_systems):
    """The subsystems ``enumerate_subsystems_on`` finds, at most 400 a
    carrier, on every carrier of order at least 4 in the catalog p-groups
    of order at most 16; about half of them are not saturated."""
    pool = []
    for _, _, F in catalog_systems:
        if len(F.P) > 16:
            continue
        for S in F.subgroups():
            if len(S) >= 4:
                try:
                    pool.extend(enumerate_subsystems_on(F, S, limit=400))
                except InputError:
                    pass
    return pool


@pytest.fixture(scope="session")
def ladder_groups():
    """a4 x d8, s4 x d8 and s4 x q16, whose Sylow 2-subgroups have orders
    32, 64 and 128."""
    return [
        direct_product_groups(make_group(load_catalog(a)), make_group(load_catalog(b))).group
        for a, b in LADDER
    ]


@pytest.fixture(scope="session")
def a4xd8_system(ladder_groups):
    """F_P(A4 x D8), on a Sylow 2-subgroup of order 32."""
    return fusion_of_group(ladder_groups[0], 2)


@pytest.fixture(scope="session")
def s4xd8_system(ladder_groups):
    """F_P(S4 x D8), on a Sylow 2-subgroup of order 64."""
    return fusion_of_group(ladder_groups[1], 2)


@pytest.fixture(scope="session")
def affine_systems():
    """F_P(ASL(2,3)) and F_P(AGL(2,3)) at p = 3, both on 3^{1+2}_+.
    AGL(2,3) is ASL(2,3) with the reflection (i, j) -> (-i, j) of the
    plane added; its order, 432, is above ``DEFAULT_ORDER_BOUND``."""
    spec = load_catalog("asl23")
    gens = [parse_perm(g, 9) for g in spec["generators"] + ["(4,7)(5,8)(6,9)"]]
    agl = Group(gens, 9, order_bound=500)
    return fusion_of_group(make_group(spec), 3), fusion_of_group(agl, 3)


@pytest.fixture(scope="session")
def strongly_closed_cases(catalog_systems, a4xd8_system):
    """[(F, T)] for every strongly closed T of every catalog system and of
    F_P(A4 x D8)."""
    systems = [F for _, _, F in catalog_systems] + [a4xd8_system]
    return [(F, T) for F in systems for T in strongly_closed_subgroups(F)]


@pytest.fixture(scope="session")
def strongly_closed_to_64():
    """[(F, T)] for every strongly closed T of F_P(G), over every catalog
    group of order <= 64 and every prime dividing its order."""
    systems = [fusion_of_group(G, p) for _, p, G in sweep_pairs(64)]
    return [(F, T) for F in systems for T in strongly_closed_subgroups(F)]


@pytest.fixture(scope="session")
def sweep_weakly_normal(catalog_systems):
    """[(name, prime, F, T, systems)] for every strongly closed T with
    |T| <= SWEEP_T_BOUND, with the full list of weakly normal subsystems
    on T found by enumeration."""
    out = []
    for name, p, F in catalog_systems:
        for T in strongly_closed_subgroups(F):
            if len(T) > SWEEP_T_BOUND:
                continue
            out.append((name, p, F, T, weakly_normal_systems_on(F, T)))
    return out
