"""Fuzz the three JSON loaders: a mutated document either loads or raises a
FusionkitError, never another exception.

Each example starts from a valid ``serialize()``, ``aut_map_to_data()`` or
catalog group-spec document and applies one to three mutations at random
places: drop a key or an element, replace a value with arbitrary JSON,
truncate or extend a list, or wrap a value in a list or unwrap one.  The
group-spec loader's bounds on ``degree`` and ``prime`` are also checked
directly, without ever running an unbounded case.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionkit.catalog as catalog
from fusionkit import (
    aut_map_from_data,
    aut_map_of,
    aut_map_to_data,
    deserialize,
    fusion_of_group,
    load_catalog,
    load_group_spec,
    make_group,
    o_p_prime_subsystem,
)
from fusionkit.errors import FusionkitError, InvalidPermutation, ParseError
from fusionkit.perms import parse_perm

EXAMPLES_PER_LOADER = 150

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
MUTATIONS = ("drop", "replace", "truncate", "extend", "wrap", "unwrap")


def _system(name, p):
    G, _ = load_group_spec(name)
    return fusion_of_group(G, p)


def _document(data):
    return json.loads(json.dumps(data))


_SYSTEMS = [_system("s3", 3), _system("a4", 2), _system("d8", 2), _system("s3xs3", 3)]
FUSION_DOCUMENTS = [_document(F.serialize()) for F in _SYSTEMS]
AUT_MAP_DOCUMENTS = [
    (F, _document(aut_map_to_data(aut_map_of(E))))
    for F in _SYSTEMS
    for E in (F, o_p_prime_subsystem(F))
]
GROUP_SPECS = [load_catalog(name) for name in ("a4", "d8", "v4")] + [{**load_catalog("s3"), "prime": 3}]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


def _mutate(draw, document):
    path = draw(st.sampled_from(list(_paths(document))))
    value = _at(document, path)
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "drop" and path:
        del _at(document, path[:-1])[path[-1]]
        return document
    if kind == "truncate" and isinstance(value, list) and value:
        new = value[: draw(st.integers(0, len(value) - 1))]
    elif kind == "extend" and isinstance(value, list):
        pool = JSON | st.sampled_from(value) if value else JSON
        new = value + draw(st.lists(pool, min_size=1, max_size=3))
    elif kind == "wrap":
        new = [value]
    elif kind == "unwrap" and isinstance(value, list) and value:
        new = value[0]
    else:
        new = draw(JSON)
    if not path:
        return new
    _at(document, path[:-1])[path[-1]] = new
    return document


@st.composite
def _mutated(draw, document):
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        document = _mutate(draw, document)
    return document


@settings(max_examples=EXAMPLES_PER_LOADER, deadline=None)
@given(st.data())
def test_deserialize_loads_or_raises_a_typed_error(data):
    document = data.draw(_mutated(data.draw(st.sampled_from(FUSION_DOCUMENTS))))
    try:
        deserialize(document)
    except FusionkitError:
        pass


@settings(max_examples=EXAMPLES_PER_LOADER, deadline=None)
@given(st.data())
def test_aut_map_from_data_loads_or_raises_a_typed_error(data):
    F, document = data.draw(st.sampled_from(AUT_MAP_DOCUMENTS))
    document = data.draw(_mutated(document))
    try:
        aut_map_from_data(F, document)
    except FusionkitError:
        pass


@settings(max_examples=EXAMPLES_PER_LOADER, deadline=None)
@given(st.data())
def test_make_group_builds_or_raises_a_typed_error(data):
    document = data.draw(_mutated(data.draw(st.sampled_from(GROUP_SPECS))))
    try:
        make_group(document)
    except FusionkitError:
        pass


def test_make_group_refuses_a_huge_degree_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("make_group started building at an out-of-range degree")

    monkeypatch.setattr(catalog, "parse_perm", no_build)
    monkeypatch.setattr(catalog, "Group", no_build)
    with pytest.raises(ParseError):
        make_group({"degree": 10**12, "generators": ["(1,2)"]})


def test_make_group_refuses_a_huge_prime_before_testing_it(monkeypatch):
    is_prime = catalog.is_prime

    def bounded(n):
        assert n <= 1 << 31, "make_group trial-divided an out-of-range prime"
        return is_prime(n)

    monkeypatch.setattr(catalog, "is_prime", bounded)
    with pytest.raises(ParseError):
        make_group({"degree": 3, "generators": [], "prime": 2**61 - 1})


def test_make_group_rejects_a_cycle_that_is_not_a_list():
    with pytest.raises(ParseError):
        make_group({"degree": 4, "generators": [[None], "(1,2)"]})


# JSON true and false are no numbers, although isinstance(True, int) holds.


@pytest.mark.parametrize(
    "spec",
    [
        {"degree": True, "generators": []},
        {"degree": 3, "generators": [[True, 2]]},
        {"degree": 3, "generators": [[[1, 2], [False, 3]]]},
        {"degree": 3, "generators": [], "prime": True},
        {"degree": 1, "generators": [], "order": True},
    ],
)
def test_make_group_rejects_json_booleans(spec):
    with pytest.raises(ParseError):
        make_group(spec)


def test_parse_perm_rejects_a_boolean_point():
    with pytest.raises(InvalidPermutation):
        parse_perm([True, 2], 3)


@pytest.mark.parametrize("field", ["p", "degree"])
def test_deserialize_rejects_a_boolean_number(field):
    document = {**FUSION_DOCUMENTS[2], field: True}
    with pytest.raises(ParseError, match=f"field {field} is not a positive integer"):
        deserialize(document)


def test_deserialize_rejects_a_boolean_element_of_p():
    document = copy.deepcopy(FUSION_DOCUMENTS[2])
    assert document["P"][0] == 0
    document["P"][0] = False
    with pytest.raises(ParseError, match="P entries"):
        deserialize(document)


def test_aut_map_from_data_rejects_a_boolean_element_of_t():
    F, document = AUT_MAP_DOCUMENTS[4]
    document = copy.deepcopy(document)
    assert document["T"][0] == 0
    document["T"][0] = False
    with pytest.raises(ParseError, match="T entries"):
        aut_map_from_data(F, document)


@pytest.mark.parametrize("where", ["domain", "mapping"])
def test_deserialize_rejects_a_boolean_in_an_iso_entry(where):
    document = copy.deepcopy(FUSION_DOCUMENTS[2])
    domain, mappings = document["isos"][1]
    assert domain == [0, 1] and mappings[0] == [0, 1]
    (domain if where == "domain" else mappings[0])[1] = True
    with pytest.raises(ParseError, match="isos entries"):
        deserialize(document)


@pytest.mark.parametrize("where", ["key", "mapping", "repeated key", "repeated mapping"])
def test_aut_map_from_data_rejects_a_boolean_in_the_assignment(where):
    # a false after an equal 0, as a second key or a second mapping of one
    # key, would be merged into it by the dict or the set
    F, document = AUT_MAP_DOCUMENTS[4]
    document = copy.deepcopy(document)
    key, mappings = document["assignment"][0]
    assert key == [0] and mappings == [[0]]
    if where == "key":
        key[0] = False
    elif where == "mapping":
        mappings[0][0] = False
    elif where == "repeated key":
        document["assignment"].insert(1, [[False], [[0]]])
    else:
        mappings.append([False])
    with pytest.raises(ParseError, match="assignment entries"):
        aut_map_from_data(F, document)
