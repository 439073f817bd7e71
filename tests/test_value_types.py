"""The value-type contract of the eleven immutable qhs types.

Each is frozen (setting or deleting a field raises AttributeError), equal and
hashed by its compared fields, and never equal to a tuple of its fields.
"""

from fractions import Fraction

import pytest

from qhs.exact import ExactMatrix, ScaledScalar
from qhs.opspaces import OperatorSpace
from qhs.oracle import OracleGroup, OracleRealization
from qhs.partitions import CategorySpec, FixBasis, SetPartition
from qhs.relations import Relation, RelationSystem
from qhs.weingarten import GramData, IndexSet


def _one(n=1):
    return ExactMatrix(n, n, [int(r == c) for r in range(n) for c in range(n)])


def _partition():
    return SetPartition(b"\x00\x01")


def _relation():
    return Relation("o", "", ExactMatrix(2, 1, (1, 1)), ScaledScalar(Fraction(1), 1, 2))


# (type, build one instance from fresh field values, the fields it is compared by)
VALUES = [
    (ScaledScalar, lambda: ScaledScalar(Fraction(1, 2), 1, 2), ("q", "s", "m")),
    (CategorySpec, lambda: CategorySpec("S+", 3), ("family", "N")),
    (SetPartition, _partition, ("block_index",)),
    (FixBasis, lambda: FixBasis((_partition(),), (0,)), ("members", "independent")),
    (IndexSet, lambda: IndexSet(3, frozenset({0, 2})), ("N", "members")),
    (
        GramData,
        lambda: GramData(FixBasis((_partition(),), (0,)), _one(), {b"\x00\x01": (0,)}),
        ("basis", "gram", "hits"),
    ),
    (OracleGroup, lambda: OracleGroup.symmetric(2), ("generators",)),
    (
        OracleRealization,
        lambda: OracleRealization(OracleGroup.symmetric(2), IndexSet(2, frozenset({0}))),
        ("source", "I"),
    ),
    (OperatorSpace, lambda: OperatorSpace("o", "o", 2, (_one(2),)), ("k_word", "l_word", "N", "basis")),
    (Relation, _relation, ("left_word", "right_word", "coefficients", "rhs")),
    (
        RelationSystem,
        lambda: RelationSystem(
            CategorySpec("S", 2), IndexSet(2, frozenset({0})), "med-form", (_relation(),)
        ),
        ("spec", "I", "provenance", "relations"),
    ),
]


@pytest.mark.parametrize("kind, make, fields", VALUES, ids=[kind.__name__ for kind, *_ in VALUES])
def test_value_types_are_frozen_values(kind, make, fields):
    value, twin = make(), make()
    assert type(value) is kind and value is not twin
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != tuple(getattr(value, f) for f in fields)
    if kind is not OracleGroup:  # whose elements are not compared
        assert kind(**{f: getattr(twin, f) for f in fields}) == value
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == twin


def test_uncompared_fields_are_ignored():
    group = OracleGroup.symmetric(3)
    relabelled = OracleGroup(group.generators, group.elements[::-1], name="other")
    assert relabelled == group and hash(relabelled) == hash(group)
    assert OracleGroup.symmetric(3) != OracleGroup.hyperoctahedral(3)
    space = OperatorSpace("o", "o", 2, (_one(2),))
    known = OperatorSpace("o", "o", 2, (_one(2),), equation_rows=((0, 1, 0, 0),))
    assert known == space and hash(known) == hash(space)
    assert OperatorSpace("o", "o", 2, (_one(2),)) != OperatorSpace("o", "b", 2, (_one(2),))


def test_rational_scaled_scalars_equal_their_rationals():
    for base in (1, 2, 3):
        value = ScaledScalar(Fraction(3, 4), 0, base)
        assert value == Fraction(3, 4) and hash(value) == hash(Fraction(3, 4))
    assert ScaledScalar(5, 0, 2) == 5 and hash(ScaledScalar(5, 0, 2)) == hash(5)
    # a whole power of the base folds into q, and a zero q drops the root
    assert ScaledScalar(Fraction(1), 2, 4) == Fraction(1, 4)
    assert ScaledScalar(0, 1, 2) == 0
    assert ScaledScalar(Fraction(1), 1, 2) != Fraction(1)
