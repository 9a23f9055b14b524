"""The record types are immutable tuples that validate their fields.

Each record subclasses a ``collections.namedtuple`` class with
``__slots__ = ()``; the six that check their fields do so in ``__new__``,
so no instance with bad fields exists.  Fields cannot be reassigned, and no
record takes attributes beyond its fields.
"""

import pytest

from gracelab.conjecture import TreeClass, check_conjecture_42
from gracelab.digraph import FunctionalDigraph, Permutation
from gracelab.expansion import (
    GracefulExpansion,
    IdentityCheck,
    SignedPermutation,
    enumerate_sp,
)
from gracelab.genfun import check_P_properties
from gracelab.neighbors import ExpansionFamily, completeness_check, expansion_family
from gracelab.seeds import integer_matrix
from gracelab.whitty import CALIBRATION, build_whitty, whitty_check

STAR4 = FunctionalDigraph((0, 0, 0, 0))
ID3 = Permutation.identity(3)
MATRIX = integer_matrix(3, 1, 1, 100)

RECORDS = {
    "Permutation": lambda: Permutation((2, 0, 1)),
    "FunctionalDigraph": lambda: STAR4,
    "GracefulExpansion": lambda: GracefulExpansion(ID3, ID3, (0, 1, 1)),
    "SignedPermutation": lambda: enumerate_sp(3)[0],
    "IdentityCheck": lambda: IdentityCheck(1, 1),
    "ExpansionFamily": lambda: expansion_family(STAR4),
    "NeighborReport": lambda: completeness_check(expansion_family(STAR4)),
    "PropertyReport": lambda: check_P_properties(4),
    "ClaimCheck": lambda: check_P_properties(4).checks[0],
    "WhittyMatrices": lambda: build_whitty(MATRIX),
    "Calibration": lambda: CALIBRATION,
    "WhittyCheck": lambda: whitty_check(MATRIX),
    "TreeClass": lambda: TreeClass(STAR4, 4),
    "ConjectureReport": lambda: check_conjecture_42(4),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_fields_are_read_only(make):
    record = make()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_one_record_idiom(make):
    # typing.NamedTuple would make the record the namedtuple class itself,
    # with its fields' annotations
    record_class = type(make())
    (base,) = record_class.__bases__
    assert base.__bases__ == (tuple,)
    assert base._fields == record_class._fields
    assert vars(record_class)["__slots__"] == ()
    assert "__annotations__" not in vars(record_class)


@pytest.mark.parametrize(
    ("make", "message"),
    [
        pytest.param(
            lambda: GracefulExpansion(ID3, Permutation((0, 1)), (0, 1, 1)),
            "share one length",
            id="expansion-short-gamma",
        ),
        pytest.param(
            lambda: GracefulExpansion(ID3, ID3, (0, 1)),
            "share one length",
            id="expansion-short-p",
        ),
        pytest.param(
            lambda: GracefulExpansion(ID3, ID3, (0, 2, 1)),
            "bit vector",
            id="expansion-p-not-bits",
        ),
        pytest.param(
            lambda: SignedPermutation((1, 0, -1, 0)), "odd count", id="signed-even-count"
        ),
        pytest.param(lambda: SignedPermutation(()), "odd count", id="signed-empty"),
        pytest.param(
            lambda: ExpansionFamily(
                FunctionalDigraph((1, 1, 1, 1)), expansion_family(STAR4).members
            ),
            "expands to 4:0,0,0,0, not the base 4:1,1,1,1",
            id="family-wrong-base",
        ),
    ],
)
def test_construction_checks_the_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()
