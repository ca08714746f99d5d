"""The contract of the value types: how each is built, compared, hashed,
printed, frozen, copied and pickled."""

import copy
import pickle
from typing import get_args

import pytest

from hyperline.baranyai import Flow, PartitionState
from hyperline.graph import Claw
from hyperline.hypergraph import Hypergraph
from hyperline.oracle import ScanReport
from hyperline.recognition import (
    ClawWitness,
    F1Witness,
    F2Witness,
    F3Witness,
    Inconclusive,
    Member,
    NonMember,
    Thresholds,
    Witness,
)
from hyperline.reconstruction import CliqueCover, CoverDiagnostics

CLAW = Claw(0, (1, 2, 3))
COVER = CliqueCover(4, [(1, 0), (0, 2), (3, 0)])

# (type, field names, positional arguments, repr of the value they build)
CASES = [
    (Claw, ("center", "leaves"), (0, (1, 2, 3)), "Claw(center=0, leaves=(1, 2, 3))"),
    (Hypergraph, ("n", "edges"), (3, ((0, 2),)), "Hypergraph(n=3, edges=((0, 2),))"),
    (
        Flow,
        ("runs", "pieces", "units", "value"),
        ((0, 0, 1), (2, 1, 1), (1, 0, 0, 1, 1), 4),
        "Flow(runs=(0, 0, 1), pieces=(2, 1, 1), units=(1, 0, 0, 1, 1), value=4)",
    ),
    (
        PartitionState,
        ("ground_size", "subset_size", "level", "sets", "rows", "finished", "counts"),
        (4, 2, 2, (0, 1, 2), (((1, 1), (2, 1)), ((0, 1),)), ((), (3,)), (2, 1)),
        "PartitionState(ground_size=4, subset_size=2, level=2, sets=(0, 1, 2), "
        "rows=(((1, 1), (2, 1)), ((0, 1),)), finished=((), (3,)), counts=(2, 1))",
    ),
    (
        Thresholds,
        ("k", "p", "edge_degree_bound", "clique_size_bound"),
        (2, 1, 5, 4),
        "Thresholds(k=2, p=1, edge_degree_bound=5, clique_size_bound=4)",
    ),
    (
        ClawWitness,
        ("claw",),
        (CLAW,),
        "ClawWitness(claw=Claw(center=0, leaves=(1, 2, 3)))",
    ),
    (
        F1Witness,
        ("a", "b", "common"),
        (0, 5, (1, 2, 3)),
        "F1Witness(a=0, b=5, common=(1, 2, 3))",
    ),
    (
        F2Witness,
        ("clique", "vertex", "attachment"),
        ((0, 1, 2), 7, (0, 1)),
        "F2Witness(clique=(0, 1, 2), vertex=7, attachment=(0, 1))",
    ),
    (
        F3Witness,
        ("clique_a", "clique_b", "shared"),
        ((0, 1, 2), (1, 2, 3), (1, 2)),
        "F3Witness(clique_a=(0, 1, 2), clique_b=(1, 2, 3), shared=(1, 2))",
    ),
    (
        Member,
        ("cover",),
        (COVER,),
        "Member(cover=CliqueCover(n=4, cliques=((0, 1), (0, 2), (0, 3))))",
    ),
    (
        NonMember,
        ("witness",),
        (ClawWitness(CLAW),),
        "NonMember(witness=ClawWitness(claw=Claw(center=0, leaves=(1, 2, 3))))",
    ),
    (
        Inconclusive,
        ("min_edge_degree", "required"),
        (3, 9),
        "Inconclusive(min_edge_degree=3, required=9)",
    ),
    (
        CliqueCover,
        ("n", "cliques"),
        (4, ((0, 1), (0, 2), (0, 3))),
        "CliqueCover(n=4, cliques=((0, 1), (0, 2), (0, 3)))",
    ),
    (
        CoverDiagnostics,
        ("ok", "failure"),
        (False, "vertex 0 lies in 3 entries"),
        "CoverDiagnostics(ok=False, failure='vertex 0 lies in 3 entries')",
    ),
    (
        ScanReport,
        ("cases", "discrepancies"),
        (2, ("N=3 k=2 d=1: x",)),
        "ScanReport(cases=2, discrepancies=('N=3 k=2 d=1: x',))",
    ),
]


def _ids(cases):
    return [case[0].__name__ for case in cases]


def test_every_value_type_is_listed():
    assert len(CASES) == 15
    assert len({case[0] for case in CASES}) == 15


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=_ids(CASES))
def test_construction_repr_and_fields(cls, fields, args, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert repr(by_position) == repr(by_keyword) == text
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert tuple(vars(by_position)) == fields
    assert tuple(getattr(by_position, name) for name in fields) == tuple(vars(by_position).values())
    assert cls.__match_args__ == fields


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=_ids(CASES))
def test_frozen_values_hash_by_their_fields(cls, fields, args, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=_ids(CASES))
def test_frozen_values_refuse_assignment_and_deletion(cls, fields, args, text):
    value = cls(*args)
    before = repr(value)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=_ids(CASES))
def test_copy_and_pickle_round_trips(cls, fields, args, text):
    value = cls(*args)
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text
        assert tuple(vars(twin)) == fields


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=_ids(CASES))
def test_a_value_never_equals_its_field_tuple(cls, fields, args, text):
    value = cls(*args)
    assert value != tuple(vars(value).values())
    assert value != args
    assert value != None  # noqa: E711


def test_equality_holds_within_one_class_only():
    shared = ((0, 1, 2), (1, 2, 3), (1, 2))
    assert F2Witness(*shared) != F3Witness(*shared)
    assert F3Witness(*shared) != F2Witness(*shared)
    assert Member(COVER) != NonMember(COVER)
    assert Inconclusive(3, 9) != Claw(3, 9)
    assert Inconclusive(3, 9) != Inconclusive(3, 10)


def test_defaults():
    assert CoverDiagnostics(True) == CoverDiagnostics(True, None)
    assert CoverDiagnostics(ok=True).failure is None
    assert Hypergraph(3) == Hypergraph(3, ())
    assert ScanReport() == ScanReport(0, ()) and ScanReport().ok
    assert ScanReport(1, ["x"]) == ScanReport(1, ("x",)) and not ScanReport(1, ["x"]).ok


def test_constructors_that_validate_or_normalize():
    assert Hypergraph(4, [(3, 1), [0, 2]]).edges == ((1, 3), (0, 2))
    assert COVER.cliques == ((0, 1), (0, 2), (0, 3))


def test_match_statements_read_fields_by_position():
    match NonMember(ClawWitness(CLAW)):
        case NonMember(ClawWitness(Claw(center, leaves))):
            assert (center, leaves) == (0, (1, 2, 3))
        case _:
            pytest.fail("positional pattern did not match")
    match Inconclusive(3, 9):
        case Member(_):
            pytest.fail("matched another class")
        case Inconclusive(low, required=need):
            assert (low, need) == (3, 9)


def test_every_witness_is_truthy():
    """`recognize` chains its checks with `or`, so a witness that tested
    false, through a `__bool__` or a `__len__`, would skip the next check;
    every witness is truthy, whatever its fields hold."""
    assert get_args(Witness) == (ClawWitness, F1Witness, F2Witness, F3Witness)
    listed = [cls(*args) for cls, fields, args, text in CASES if cls in get_args(Witness)]
    empty = [ClawWitness(Claw(0, ())), F1Witness(0, 0, ()), F2Witness((), 0, ()), F3Witness((), (), ())]
    for witness in listed + empty:
        assert bool(witness), witness
    assert [type(w) for w in listed] == [type(w) for w in empty] == list(get_args(Witness))
