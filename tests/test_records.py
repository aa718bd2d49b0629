"""The immutable result records: each keeps its field names and their
positional order, refuses assignment and deletion, and compares, hashes and
prints over the same fields as before."""

import copy
import pickle

import pytest

from whitforge.deform import (ComparCertificate, ConditionNotMet,
                              DeformationCertificate, compar_certificate,
                              deform_gl, deform_sl)
from whitforge.exactq import Grading, QMatrix, RrefResult, grading, rref_solve
from whitforge.orbits import (J_eta, SlOrbitClass, StandardRep, sl_class,
                              standard_rep)
from whitforge.partitions import GroupType, OrbitClassification, classify
from whitforge.whitpair import (ChainCertificate, DeformationSnapshot,
                                WhittakerPair, WhittakerTriple, chain)

from conftest import E


def _pair():
    return WhittakerPair(4, QMatrix.diag([3, 1, -1, -3]), E(4, 2, 1) + E(4, 4, 3))


# (record class, its fields in positional order, a factory of fresh equal
# records)
RECORDS = [
    (RrefResult, ("echelon", "pivots", "rank", "solution", "kernel"),
     lambda: rref_solve(QMatrix.from_rows([[1, 2, 3], [2, 4, 7]]), [1, 3])),
    (Grading, ("labels", "L", "cols", "R", "s"),
     lambda: grading(QMatrix.diag([1, -1, 0]))),
    (GroupType, ("tag", "field_flavor"), lambda: GroupType("Sp", "real")),
    (OrbitClassification, ("special", "admissible", "quasi_admissible"),
     lambda: classify(GroupType("U", "real"), (2, 1, 1))),
    (StandardRep, ("eta", "J", "h"), lambda: standard_rep((2, 1))),
    (SlOrbitClass, ("lam", "d", "a_class"), lambda: sl_class(J_eta((2, 2)))),
    (WhittakerPair, ("n", "S", "f"), _pair),
    (WhittakerTriple, ("pair", "f_prime"),
     lambda: WhittakerTriple(_pair(), QMatrix.zeros(4))),
    (DeformationSnapshot, ("t", "u", "v", "w", "rad", "l", "r"),
     lambda: chain(_pair()).snapshots[-1]),
    (ChainCertificate, ("pair", "h", "Z", "e", "criticals", "nodes", "snapshots",
                        "inclusions", "obstructions", "grading"),
     lambda: chain(_pair())),
    (DeformationCertificate, ("n", "h", "f", "Z", "psi", "mu", "lam", "checks"),
     lambda: deform_gl((2, 2, 1), (4, 1))),
    (ConditionNotMet, ("d", "a_class"), lambda: deform_sl((2, 2), (4,), 2, 1)),
    (ComparCertificate, ("h", "f", "S", "F", "mu", "lam", "conditions"),
     lambda: compar_certificate((2, 2), (3, 1))),
]


def _hash(record):
    try:
        return hash(record)
    except TypeError:           # a dict field
        return None


@pytest.mark.parametrize("cls, fields, make", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_are_immutable_and_compare_by_their_fields(cls, fields, make):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    # rebuilt positionally from its fields in order, it is equal
    assert cls(*(getattr(a, name) for name in fields)) == a
    assert a == b and not a != b and _hash(a) == _hash(b) and copy.copy(a) == a
    assert a != object() and repr(a) == repr(b) and repr(a).startswith(cls.__name__ + "(")
    for name in fields + ("undeclared",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


@pytest.mark.parametrize("make", [_pair, lambda: chain(_pair())],
                         ids=["WhittakerPair", "ChainCertificate"])
def test_equality_hash_and_repr_ignore_the_grading(make):
    a, b = make(), make()
    object.__setattr__(b, "grading", grading(QMatrix.diag([1, 0, 0, 0])))
    assert a == b and _hash(a) == _hash(b)
    assert "grading" not in repr(a) and repr(a) == repr(b)


def test_group_type_defaults_to_padic_and_refuses_a_bad_tag():
    assert GroupType("Sp").field_flavor == "padic" and GroupType("Sp") == GroupType("Sp", "padic")
    assert pickle.loads(pickle.dumps(GroupType("U", "real"))) == GroupType("U", "real")
    with pytest.raises(ValueError, match="unknown group tag"):
        GroupType("Spin")
    with pytest.raises(ValueError, match="unknown field flavor"):
        GroupType("Sp", "complex")
