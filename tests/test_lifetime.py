"""A dropped group is freed by reference counting: each subgroup lattice
belongs to its carrier and the group holds it only weakly, so the queries
on a system leave no cyclic garbage holding a group, a subgroup or a
system once their results are dropped, while a lattice that something
still holds is not built again."""

import contextlib
import gc
import io
import json
import operator
import weakref

import pytest

from fusionkit import (
    FusionSystem,
    Group,
    Subgroup,
    all_subgroups,
    deserialize,
    direct_product_groups,
    fusion_of_group,
    is_isomorphic_fusion,
    is_saturated,
    load_catalog,
    make_group,
    strongly_closed_subgroups,
    upper_central_series,
    validate_fusion,
    weakly_normal_systems_on,
)
from fusionkit import groups
from fusionkit.cli import run


def _queries(G, p):
    """Runs the queries on F_P(G) and returns weak references to the groups
    and the P of F, of its JSON round trip and of every weakly normal
    system on P."""
    F = fusion_of_group(G, p)
    twin = Subgroup(G, F.P.elements)
    assert all(map(operator.is_, all_subgroups(twin)[:-1], F.subgroups()[:-1]))
    closed = strongly_closed_subgroups(F)
    assert closed[-1] == F.P
    validate_fusion(F)
    assert is_saturated(F).saturated
    E = deserialize(json.loads(json.dumps(F.serialize())))
    assert E == F and is_isomorphic_fusion(E, F)
    systems = weakly_normal_systems_on(F, F.P)
    upper_central_series(F)
    return [weakref.ref(X) for S in (F, E, *systems) for X in (S.group, S.P)]


def test_a_dropped_system_leaves_no_cyclic_garbage():
    """With the collector off, F_P(S4) and F_P(A4 x D8) go through
    construction, strong closure, validation, saturation, a JSON round
    trip and an isomorphism search back, the weakly normal search and the upper central series; SL(2,3)'s
    lattice is built by the join closure, and one CLI command runs.  Once
    the results are dropped, every group and P is already dead, and a
    collection finds no group, subgroup or system in cyclic garbage."""
    a4xd8 = direct_product_groups(make_group(load_catalog("a4")), make_group(load_catalog("d8")))
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        refs = _queries(make_group(load_catalog("s4")), 2) + _queries(a4xd8.group, 2)
        del a4xd8
        lattice = all_subgroups(make_group(load_catalog("sl23")))
        refs += [weakref.ref(lattice[-1].group), weakref.ref(lattice[-1])]
        del lattice
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["hypercentre", "--group", "s4", "--prime", "2"]) == 0
        alive = [r() for r in refs if r() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        kept = [x for x in gc.garbage if isinstance(x, (Group, Subgroup, FusionSystem))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    assert alive == [] and kept == []


def test_automizer_lattices_live_as_long_as_the_automizer(monkeypatch):
    """Each memoized Aut_F(Q) holds its group's full subgroup, and so the
    lattice the weakly normal search reads off it: searching again on
    F_P(A4 x D8) builds no lattice and finds the same systems."""
    G = direct_product_groups(make_group(load_catalog("a4")), make_group(load_catalog("d8"))).group
    F = fusion_of_group(G, 2)
    found = [weakly_normal_systems_on(F, T) for T in strongly_closed_subgroups(F)]
    for name in ("_layer_lattice", "_subgroup_lattice"):
        monkeypatch.setattr(groups, name, lambda *args: pytest.fail("a lattice was built again"))
    assert [weakly_normal_systems_on(F, T) for T in strongly_closed_subgroups(F)] == found
