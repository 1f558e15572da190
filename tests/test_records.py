"""The record contract: every value class of the package is an immutable
record that compares by class and fields, hashes, prints its fields, and
survives `copy.copy`, `copy.deepcopy` and `pickle`.

Each case builds one record of each class by keyword, in field order, from
the values a construction already returned, so a second record with the
same fields is built separately.
"""

import copy
import pickle

import pytest

from angulated import (
    Angle,
    CoverResult,
    ExactnessReport,
    FamilyParams,
    FLevelChain,
    Morphism,
    SubcatSpec,
    SumObject,
    TheoremBReport,
    basis_mor,
    cover,
    d_kernel,
    indec,
    min_angle,
    theorem_b_check,
    validate_params,
)
from angulated.verify import Check


def _cases():
    """(class, init keywords in order, the fields the record holds)."""
    p = validate_params(4, 4, 9)
    mor = basis_mor(p, 1, 3)
    angle = min_angle(mor)
    chain = d_kernel(p, 1, 2)
    spec = SubcatSpec(p, (1, 2, 5, 6, 9, 10))
    report = theorem_b_check(spec, 1)
    cov = cover(spec, 3)
    return [
        (FamilyParams, {"d": 4, "l": 4, "m": 9}, ("d", "l", "m", "period")),
        (SumObject, {"summands": (1, 3)}, ("summands",)),
        (Morphism, {"params": p, "source": mor.source, "target": mor.target,
                    "entries": mor.entries}, ("params", "source", "target", "entries")),
        (Angle, {"params": p, "objects": angle.objects, "maps": angle.maps},
         ("params", "objects", "maps")),
        (FLevelChain, {"params": p, "kind": "kernel", "objects": chain.objects,
                       "maps": chain.maps}, ("params", "kind", "objects", "maps")),
        (ExactnessReport, {"failures": ((1, 2), (3, 4))}, ("failures",)),
        (SubcatSpec, {"params": p, "indices": spec.indices}, ("params", "indices")),
        (CoverResult, {"source": cov.source, "mor": cov.mor}, ("source", "mor")),
        (TheoremBReport, {"cover_result": report.cover_result, "sub_angle": report.sub_angle,
                          "cover_is_cover": True, "sub_is_ar": True,
                          "head_matches_cover": True},
         ("cover_result", "sub_angle", "cover_is_cover", "sub_is_ar", "head_matches_cover")),
        (Check, {"name": "a check", "ok": True, "detail": "f1: ValueError"},
         ("name", "ok", "detail")),
    ]


CASES = _cases()
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_every_record_class_has_a_case():
    assert len(CASES) == len({cls for cls, _, _ in CASES}) == 10


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, kwargs, fields = case
    rec = cls(**kwargs)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name, 0))
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert cls(**kwargs) == rec


def test_equal_fields_give_equal_records_and_hashes(case):
    cls, kwargs, fields = case
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_compare_by_class(case):
    cls, kwargs, fields = case
    rec = cls(**kwargs)
    values = tuple(getattr(rec, name) for name in fields)
    assert rec != values and values != rec
    other = next(c(**k) for c, k, _ in CASES if c is not cls)
    assert rec != other and rec.__eq__(other) is NotImplemented


def test_positional_and_keyword_construction_agree(case):
    cls, kwargs, fields = case
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_defaults():
    assert SumObject() == SumObject(summands=()) == SumObject(())
    assert SumObject().summands == ()
    assert Check("c", False) == Check(name="c", ok=False, detail="")


def test_repr_names_every_field(case):
    cls, kwargs, fields = case
    rec = cls(**kwargs)
    assert repr(rec) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={getattr(rec, n)!r}" for n in fields) + ")"
    )


def test_repr_examples():
    assert repr(indec(3)) == "SumObject(summands=(3,))"
    assert repr(FamilyParams(4, 4, 9)) == "FamilyParams(d=4, l=4, m=9, period=12)"
    assert repr(Check("c", True)) == "Check(name='c', ok=True, detail='')"


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy,
                                 lambda rec: pickle.loads(pickle.dumps(rec))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(case, dup):
    cls, kwargs, fields = case
    rec = cls(**kwargs)
    again = dup(rec)
    assert type(again) is cls and again == rec and hash(again) == hash(rec)
    assert all(getattr(again, n) == getattr(rec, n) for n in fields)
