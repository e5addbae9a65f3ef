"""The mapping-tuple helpers against the raw-table operations of the oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.morphisms import _compose, _inverse, _positions, _restrict, _transport
from oracles import _compose as raw_compose
from oracles import _invert as raw_invert
from oracles import _restrictions as raw_restrictions


def _raw_restrict(iso, S):
    if set(S.elements) == set(iso[0]):
        return iso
    (restricted,) = raw_restrictions(iso, {frozenset(S.elements)})
    return restricted


def _draw_iso(data, F, domains):
    Q = data.draw(st.sampled_from(domains))
    return data.draw(st.sampled_from(list(F.isos_from(Q))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tuple_helpers_match_the_raw_oracle(catalog_systems, data):
    _, _, F = data.draw(st.sampled_from(catalog_systems))
    phi = _draw_iso(data, F, F.subgroups())
    Q, R = phi.domain, phi.codomain
    raw = (Q.key, phi.mapping)

    S = data.draw(st.sampled_from([S for S in F.subgroups() if S <= Q]))
    restricted = _restrict(phi.mapping, _positions(Q.key, S.key))
    assert (S.key, restricted) == _raw_restrict(raw, S)
    assert phi.restrict(S).mapping == restricted

    inverse = _inverse(Q.key, phi.mapping)
    assert (R.key, inverse) == raw_invert(raw)
    assert phi.inverse().mapping == inverse

    psi = _draw_iso(data, F, [R])
    composed = _compose(phi.mapping, R.key, psi.mapping)
    assert (Q.key, composed) == raw_compose(raw, (R.key, psi.mapping))
    assert phi.then(psi).mapping == composed

    # an F-iso alpha: S -> S2 inside Q, moved along phi: chi^-1 . alpha . chi
    alpha = data.draw(st.sampled_from([a for a in F.isos_from(S) if a.codomain <= Q]))
    moved = _transport(dict(zip(Q.key, phi.mapping)), S.key, alpha.mapping)
    back = raw_invert(_raw_restrict(raw, S))
    forward = _raw_restrict(raw, alpha.codomain)
    expected = raw_compose(raw_compose(back, (S.key, alpha.mapping)), forward)
    assert moved == expected
    if alpha.codomain == S:
        assert alpha.conjugated_by(phi).key == (moved[0], moved[0], moved[1])
