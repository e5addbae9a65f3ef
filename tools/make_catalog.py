"""Regenerate the bundled group catalog.

Run from the repository root:

    python3 tools/make_catalog.py

Builds every group of order at most 24 as an explicit permutation group,
plus the larger named example groups, verifies the collection (pairwise
non-isomorphic within each order, per-order counts matching the
classification of small groups, advertised generator orders), and writes
one JSON file per group into src/fusionkit/catalog/.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fusionkit.groups import Group, sylow
from fusionkit.morphisms import is_isomorphic
from fusionkit.perms import Perm, format_cycles, identity_perm, perm_mul

CATALOG_DIR = ROOT / "src" / "fusionkit" / "catalog"

# Number of isomorphism classes of groups of each order from 1 to 24.
EXPECTED_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15]


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def cyclic(n: int, name: str) -> Group:
    if n == 1:
        return Group([identity_perm(1)], 1, name=name, generators=[])
    gen = tuple(list(range(1, n)) + [0])
    return Group([gen], n, name=name, generators=[gen])


def dihedral(n: int, name: str) -> Group:
    """The dihedral group of order 2n acting on n points, n >= 3."""
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    return Group([rot, ref], n, name=name, generators=[rot, ref])


def dp(A: Group, B: Group, name: str) -> Group:
    """Direct product on the disjoint union of point sets, generated by
    the embedded factor generators (in order: A's, then B's)."""
    d1, d2 = A.degree, B.degree
    gens = [A.perms[g] + tuple(range(d1, d1 + d2)) for g in A.generator_indices]
    gens += [tuple(range(d1)) + tuple(x + d1 for x in B.perms[g]) for g in B.generator_indices]
    W = Group(gens, d1 + d2, name=name, generators=gens)
    assert len(W) == len(A) * len(B), name
    return W


def regular(elements: list, mult, gens: list, name: str) -> Group:
    """Right regular representation of an abstract multiplication table."""
    idx = {e: i for i, e in enumerate(elements)}
    gen_perms = [tuple(idx[mult(e, g)] for e in elements) for g in gens]
    W = Group(gen_perms, len(elements), name=name, generators=gen_perms)
    assert len(W) == len(elements), name
    return W


def dicyclic(n: int, name: str) -> Group:
    """<a, b | a^(2n) = 1, b^2 = a^n, b^-1 a b = a^-1>, order 4n."""
    m = 2 * n
    elements = [(i, e) for e in (0, 1) for i in range(m)]

    def mult(x, y):
        (i, e), (j, d) = x, y
        if e == 0:
            return ((i + j) % m, d)
        if d == 0:
            return ((i - j) % m, 1)
        return ((i - j + n) % m, 0)

    return regular(elements, mult, [(1, 0), (0, 1)], name)


def semidirect(N: Group, H: Group, gen_action: list, name: str) -> Group:
    """N x| H, via the right regular representation on N x H pairs.

    ``gen_action[k]`` is the action of H's k-th generator on N as a
    permutation of N's element indices (n |-> n^h); the assignment must
    extend to a homomorphism H -> Aut(N), which is checked while walking
    H's Cayley graph.
    """
    R = {H.identity: tuple(range(len(N)))}
    frontier = [H.identity]
    while frontier:
        new = []
        for h in frontier:
            for g, act in zip(H.generator_indices, gen_action):
                hg = H.mul(h, g)
                img = perm_mul(R[h], act)
                if hg in R:
                    assert R[hg] == img, f"{name}: action is not a homomorphism"
                else:
                    R[hg] = img
                    new.append(hg)
        frontier = new
    assert len(R) == len(H), name
    C = {h: perm_inv(r) for h, r in R.items()}

    elements = [(n, h) for h in range(len(H)) for n in range(len(N))]

    def mult(x, y):
        (n1, h1), (n2, h2) = x, y
        return (N.mul(n1, C[h1][n2]), H.mul(h1, h2))

    gens = [(N.generator_indices[k], H.identity) for k in range(len(N.generator_indices))]
    gens += [(N.identity, H.generator_indices[k]) for k in range(len(H.generator_indices))]
    W = regular(elements, mult, gens, name)
    assert len(W) == len(N) * len(H), name
    return W


def inversion_action(N: Group) -> tuple:
    """The inversion automorphism of an abelian group, on element indices."""
    return tuple(N.inv(i) for i in range(len(N)))


def power_action(N: Group, k: int) -> tuple:
    """x |-> x^k on element indices (an automorphism of a cyclic group)."""
    out = []
    for i in range(len(N)):
        acc = N.identity
        for _ in range(k):
            acc = N.mul(acc, i)
        out.append(acc)
    return tuple(out)


def aut_by_generator_images(N: Group, images: dict) -> tuple:
    """The automorphism of N sending each generator g to images[g], as a
    permutation of element indices; built by rewriting every element as a
    word during a Cayley-graph walk."""
    out = {N.identity: N.identity}
    frontier = [N.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in N.generator_indices:
                xg = N.mul(x, g)
                img = N.mul(out[x], images[g])
                if xg in out:
                    assert out[xg] == img, "generator images do not define an automorphism"
                else:
                    out[xg] = img
                    new.append(xg)
        frontier = new
    assert len(out) == len(N) and len(set(out.values())) == len(N)
    return tuple(out[i] for i in range(len(N)))


def s4() -> Group:
    a = (1, 2, 3, 0)
    b = (1, 0, 2, 3)
    return Group([a, b], 4, name="s4", generators=[a, b])


def a4() -> Group:
    a = (1, 2, 0, 3)  # (1,2,3)
    b = (1, 0, 3, 2)  # (1,2)(3,4)
    return Group([a, b], 4, name="a4", generators=[a, b])


def sl23() -> Group:
    """SL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def mat_perm(a, b, c, d):
        return tuple(idx[((x * a + y * c) % 3, (x * b + y * d) % 3)] for (x, y) in vecs)

    s = mat_perm(0, 2, 1, 0)
    t = mat_perm(1, 1, 0, 1)
    W = Group([s, t], 8, name="sl23", generators=[s, t])
    assert len(W) == 24
    return W


def plane_perm(f) -> tuple:
    """The permutation of the nine points (i, j) of the plane over F_3,
    numbered 3i + j, that the map f: (i, j) -> (i', j') induces."""
    return tuple(3 * fi + fj for (fi, fj) in (f(i, j) for i in range(3) for j in range(3)))


def ea9_s3() -> Group:
    """(C3 x C3) x| S3 of order 54, acting on the nine points (i, j).

    Generators: the two translations a, b, the automorphism phi fixing b
    with a |-> ab, and the automorphism psi fixing a and inverting b.
    """
    ta = plane_perm(lambda i, j: ((i + 1) % 3, j))
    tb = plane_perm(lambda i, j: (i, (j + 1) % 3))
    phi = plane_perm(lambda i, j: (i, (i + j) % 3))
    psi = plane_perm(lambda i, j: (i, (-j) % 3))
    W = Group([ta, tb, phi, psi], 9, name="ea9_s3", generators=[ta, tb, phi, psi])
    assert len(W) == 54
    return W


def asl23() -> Group:
    """ASL(2,3) = (C3 x C3) x| SL(2,3) of order 216, acting on the nine
    points (i, j) of the plane over F_3.

    Generators: the translation (i, j) -> (i + 1, j), the transvection
    (i, j) -> (i + j, j) and the rotation (i, j) -> (-j, i) of order 4.
    """
    gens = [
        plane_perm(lambda i, j: ((i + 1) % 3, j)),
        plane_perm(lambda i, j: ((i + j) % 3, j)),
        plane_perm(lambda i, j: (-j % 3, i)),
    ]
    W = Group(gens, 9, name="asl23", generators=gens)
    assert len(W) == 216
    return W


def central_product_d8_c4(d8: Group, c4: Group) -> Group:
    """D8 * C4: the quotient of D8 x C4 identifying the two central
    involutions, order 16."""
    from fusionkit.groups import coset_quotient

    prod = dp(d8, c4, "d8xc4_tmp")
    x = prod.generator_indices[0]
    t = prod.generator_indices[2]
    x2 = prod.mul(x, x)
    t2 = prod.mul(t, t)
    diag = prod.mul(x2, t2)
    K = prod.generated_subgroup([diag])
    assert len(K) == 2
    qd = coset_quotient(prod, K)
    gen_idxs = [qd.project[g] for g in prod.generator_indices]
    gens = [qd.group.perms[i] for i in gen_idxs]
    W = Group(gens, qd.group.degree, name="cpd8c4", generators=gens)
    assert len(W) == 16
    return W


def build_catalog() -> dict[str, Group]:
    groups: dict[str, Group] = {}

    def add(G: Group):
        assert G.name not in groups, G.name
        groups[G.name] = G

    c2 = cyclic(2, "c2")
    c3 = cyclic(3, "c3")
    c4 = cyclic(4, "c4")
    c5 = cyclic(5, "c5")
    c6 = cyclic(6, "c6")
    c7 = cyclic(7, "c7")
    c8 = cyclic(8, "c8")
    v4 = dp(c2, c2, "v4")
    s3 = Group([(1, 2, 0), (1, 0, 2)], 3, name="s3", generators=[(1, 2, 0), (1, 0, 2)])
    d8 = Group([(1, 2, 3, 0), (2, 1, 0, 3)], 4, name="d8", generators=[(1, 2, 3, 0), (2, 1, 0, 3)])
    q8 = dicyclic(2, "q8")
    A4 = a4()
    dic3 = dicyclic(3, "dic3")

    for G in (cyclic(1, "c1"), c2, c3, c4, v4, c5, c6, s3, c7):
        add(G)
    for G in (c8, dp(c4, c2, "c4xc2"), dp(v4, c2, "ea8"), d8, q8):
        add(G)
    add(cyclic(9, "c9"))
    add(dp(c3, c3, "ea9"))
    add(cyclic(10, "c10"))
    add(dihedral(5, "d10"))
    add(cyclic(11, "c11"))
    for G in (cyclic(12, "c12"), dp(c6, c2, "c6xc2"), dihedral(6, "d12"), A4, dic3):
        add(G)
    add(cyclic(13, "c13"))
    add(cyclic(14, "c14"))
    add(dihedral(7, "d14"))
    add(cyclic(15, "c15"))

    ea9sc2 = semidirect(groups["ea9"], c2, [inversion_action(groups["ea9"])], "ea9sc2")
    for G in (
        cyclic(16, "c16"),
        dp(c8, c2, "c8xc2"),
        dp(c4, c4, "c4xc4"),
        dp(c4, v4, "c4xv4"),
        dp(v4, v4, "ea16"),
        dihedral(8, "d16"),
        dicyclic(4, "q16"),
        semidirect(c8, c2, [power_action(c8, 3)], "sd16"),
        semidirect(c8, c2, [power_action(c8, 5)], "m16"),
        dp(d8, c2, "d8xc2"),
        dp(q8, c2, "q8xc2"),
        semidirect(c4, c4, [inversion_action(c4)], "c4sc4"),
        semidirect(v4, c4, [aut_by_generator_images(v4, dict(zip(v4.generator_indices, reversed(v4.generator_indices))))], "v4sc4"),
        central_product_d8_c4(d8, c4),
    ):
        add(G)
    add(cyclic(17, "c17"))
    for G in (cyclic(18, "c18"), dp(c6, c3, "c6xc3"), dihedral(9, "d18"), dp(s3, c3, "s3xc3"), ea9sc2):
        add(G)
    add(cyclic(19, "c19"))
    for G in (
        cyclic(20, "c20"),
        dp(cyclic(10, "c10"), c2, "c10xc2"),
        dihedral(10, "d20"),
        dicyclic(5, "dic5"),
        semidirect(c5, c4, [power_action(c5, 2)], "f20"),
    ):
        add(G)
    add(cyclic(21, "c21"))
    add(semidirect(c7, c3, [power_action(c7, 2)], "c7sc3"))
    add(cyclic(22, "c22"))
    add(dihedral(11, "d22"))
    add(cyclic(23, "c23"))

    d8_action_r_inverts = [inversion_action(c3), tuple(range(3))]
    for G in (
        cyclic(24, "c24"),
        dp(cyclic(12, "c12"), c2, "c12xc2"),
        dp(c6, v4, "c6xv4"),
        s4(),
        dp(A4, c2, "a4xc2"),
        sl23(),
        dihedral(12, "d24"),
        dicyclic(6, "dic6"),
        semidirect(c3, c8, [inversion_action(c3)], "c3sc8"),
        dp(s3, c4, "s3xc4"),
        dp(d8, c3, "d8xc3"),
        dp(q8, c3, "q8xc3"),
        dp(s3, v4, "s3xv4"),
        dp(dic3, c2, "dic3xc2"),
        semidirect(c3, d8, d8_action_r_inverts, "c3sd8"),
    ):
        add(G)

    # The larger example groups shipped alongside the small-group survey.
    add(dp(s3, s3, "s3xs3"))
    add(dp(A4, A4, "a4xa4"))
    add(ea9_s3())
    add(asl23())
    return groups


SMALL_NAMES_EXCLUDED = {"s3xs3", "a4xa4", "ea9_s3", "asl23"}
PRIMES = {"s3xs3": 3, "a4xa4": 2, "ea9_s3": 3, "asl23": 3}


def verify(groups: dict[str, Group]) -> None:
    small = [G for name, G in groups.items() if name not in SMALL_NAMES_EXCLUDED]
    by_order: dict[int, list[Group]] = {}
    for G in small:
        by_order.setdefault(len(G), []).append(G)
    for order, expected in enumerate(EXPECTED_COUNTS, start=1):
        got = len(by_order.get(order, []))
        assert got == expected, f"order {order}: built {got} groups, classification has {expected}"
    for order, bucket in sorted(by_order.items()):
        for i, A in enumerate(bucket):
            for B in bucket[i + 1 :]:
                assert not is_isomorphic(A, B), f"{A.name} and {B.name} are isomorphic"

    def gen_orders(G: Group) -> tuple[int, ...]:
        return tuple(G.element_order(g) for g in G.generator_indices)

    assert gen_orders(groups["a4"]) == (3, 2)
    assert gen_orders(groups["s3"]) == (3, 2)
    assert gen_orders(groups["d8"]) == (4, 2)
    assert gen_orders(groups["v4"]) == (2, 2)
    assert gen_orders(groups["d8xc2"]) == (4, 2, 2)
    assert gen_orders(groups["s3xs3"]) == (3, 2, 3, 2)
    assert gen_orders(groups["a4xa4"]) == (3, 2, 3, 2)
    assert gen_orders(groups["ea9_s3"]) == (3, 3, 3, 2)
    assert len(groups["a4xa4"]) == 144 and len(groups["s3xs3"]) == 36
    assert len(groups["ea9_s3"]) == 54
    assert gen_orders(groups["asl23"]) == (3, 3, 4) and len(groups["asl23"]) == 216

    G = groups["ea9_s3"]
    ta, tb, phi, psi = G.generator_indices
    Q = G.generated_subgroup([ta, tb])
    assert len(Q) == 9 and Q.is_abelian()
    H = G.generated_subgroup([phi, psi])
    assert len(H) == 6 and is_isomorphic(H, groups["s3"].full_subgroup)
    P = sylow(G, 3)
    assert len(P) == 27 and P.is_normal_in(G.full_subgroup)
    R = G.generated_subgroup([tb])
    assert len(R) == 3 and R.is_normal_in(G.full_subgroup)

    S2 = sylow(groups["a4xa4"], 2)
    assert len(S2) == 16 and all(groups["a4xa4"].element_order(x) <= 2 for x in S2)


def write_catalog(groups: dict[str, Group]) -> None:
    CATALOG_DIR.mkdir(parents=True, exist_ok=True)
    for old in CATALOG_DIR.glob("*.json"):
        old.unlink()
    for name in sorted(groups):
        G = groups[name]
        spec = {
            "name": name,
            "degree": G.degree,
            "order": len(G),
            "generators": [format_cycles(G.perms[g]) for g in G.generator_indices],
        }
        if name in PRIMES:
            spec["prime"] = PRIMES[name]
        path = CATALOG_DIR / f"{name}.json"
        path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(groups)} catalog entries to {CATALOG_DIR}")


def main() -> None:
    groups = build_catalog()
    verify(groups)
    write_catalog(groups)


if __name__ == "__main__":
    main()
