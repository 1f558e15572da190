"""The verify suites: each oracle verdict reaches exactly the checks built on it."""

import time

import pytest

import angulated
from angulated import (
    Angle,
    Morphism,
    angles,
    artheory,
    enumerate_wide,
    indec,
    validate_params,
    verify,
    wide,
)
from angulated.core import scale

AMBIENT = "ambient AR angles pass all oracle tests"
MINIMAL = "minimal angles: shape, radical middles, equivariance"
SUB_AR = "subcategory AR angles pass the definition oracle"
COVER = "covers verified by the raw cover test"
THEOREM_B = "cover <-> AR angle equivalence holds throughout"
SPLIT = "split epi + split mono iff iso (brute force)"
ENUM = "enumeration equals the power-set filter"
ORACLE = "classification agrees with the closure oracle"


def _negate(fn):
    return lambda *args: not fn(*args)


@pytest.mark.parametrize(
    "module, name, failing",
    [
        (artheory, "is_ar_angle", {SUB_AR, THEOREM_B}),
        (artheory, "is_cover", {COVER, THEOREM_B}),
        (verify, "block_iso_oracle", {SPLIT}),
    ],
)
def test_wrong_oracle_fails_exactly_its_checks(monkeypatch, module, name, failing):
    p = validate_params(2, 2, 3)
    monkeypatch.setattr(module, name, _negate(getattr(module, name)))
    assert {c.name for c in verify.verify_all(p) if not c.ok} == failing


def _edited(rules, edit):
    return lambda params, members: (edit(r) for r in rules(params, members))


def _shift_first_middle(rule):
    given, then = rule
    return given, (then[0] + 1,) + then[1:]


def _drop_last_member(rule):
    given, then = rule
    return given, then[:-1]


# A wrong periodic rule changes the classification, which both checks read.
@pytest.mark.parametrize(
    "name, edit, failing",
    [
        ("closure_rules", _shift_first_middle, {ORACLE}),
        ("periodic_rules", _drop_last_member, {ENUM, ORACLE}),
    ],
)
def test_wrong_rule_fails_exactly_its_checks(monkeypatch, p234, name, edit, failing):
    original = getattr(wide, name)
    planted = _edited(original, edit)
    assert wide.models(p234, planted) != wide.models(p234, original)
    monkeypatch.setattr(wide, name, planted)
    assert {c.name for c in verify.verify_all(p234) if not c.ok} == failing


@pytest.mark.parametrize("triple", [(2, 3, 4), (4, 4, 9), (2, 6, 7), (6, 3, 10), (10, 2, 11)])
def test_a_dropped_middle_is_brought_by_another_rule(monkeypatch, triple):
    # The pair (src, tgt) brings tgt - l; the pair (tgt - l, src), at
    # distance l - (tgt - src), brings src - l again, and so on down the
    # middles.  So dropping any one middle from every closure rule leaves
    # the model family, and with it every check, as it was.
    p = validate_params(*triple)
    original = wide.closure_rules
    family = wide.models(p, original)
    for k in range(p.d):
        planted = _edited(original, lambda r: (r[0], r[1][:k] + r[1][k + 1:]))
        assert wide.models(p, planted) == family
        monkeypatch.setattr(wide, "closure_rules", planted)
        assert all(c.ok for c in verify.verify_wide(p))


def test_enumeration_losing_a_spec_fails_exactly_its_check(monkeypatch, p234):
    specs = enumerate_wide(p234)
    lost = specs[len(specs) // 2]
    assert lost.indices not in ((), tuple(range(1, p234.period + 1)))
    monkeypatch.setattr(wide, "enumerate_wide", lambda params: [s for s in specs if s != lost])
    assert {c.name for c in verify.verify_all(p234) if not c.ok} == {ENUM}


def _connector_doubled(a):
    """`a` with the one entry of its connecting map doubled; still an angle."""
    return Angle(a.params, a.objects, a.maps[:-1] + (scale(a.connecting, 2),))


# The suite compares each AR angle at pos + period with the one at pos
# shifted, by positions and entries: a wrong entry past the window shows.
@pytest.mark.parametrize(
    "name, failing", [("ar_angle_in", {SUB_AR}), ("ar_angle", {AMBIENT})]
)
def test_a_wrong_shifted_ar_angle_fails_exactly_its_check(monkeypatch, p234, name, failing):
    original = getattr(artheory, name)

    def planted(owner, pos):
        a = original(owner, pos)
        return _connector_doubled(a) if pos > p234.period else a

    monkeypatch.setattr(artheory, name, planted)
    assert {c.name for c in verify.verify_all(p234) if not c.ok} == failing


def _second_object_moved(a):
    """`a` with objects[1] moved one position and maps 0 and 1 following it.

    The move makes a composite of two maps nonzero, so no valid angle can
    carry it: the record is made without the validation, as a construction
    that lost its check would return it.
    """
    p = a.params
    objects, maps = list(a.objects), list(a.maps)
    x, y = objects[0].summands[0], objects[1].summands[0]
    objects[1] = indec(y + (1 if y - x < p.l - 1 else -1))
    for k in (0, 1):
        maps[k] = Morphism(p, objects[k], objects[k + 1], maps[k].entries)
    moved = object.__new__(Angle)
    for field, value in (("params", p), ("objects", tuple(objects)), ("maps", tuple(maps))):
        object.__setattr__(moved, field, value)
    return moved


def test_a_moved_object_in_the_shifted_min_angle_fails_exactly_its_check(monkeypatch, p234):
    original = verify.min_angle

    def planted(mu):
        a = original(mu)
        return _second_object_moved(a) if mu.source.summands[0] > p234.period else a

    monkeypatch.setattr(verify, "min_angle", planted)
    assert {c.name for c in verify.verify_all(p234) if not c.ok} == {MINIMAL}


def test_verify_wide_at_period_24_needs_no_power_set_walk():
    # 2^24 subsets would take minutes to filter; the rule search lists the
    # 4,120 wide specs in well under a second on one core
    p = validate_params(2, 12, 13)
    start = time.perf_counter()
    checks = verify.verify_wide(p)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    assert len(enumerate_wide(p)) == 4120
    assert time.perf_counter() - start < 30


def test_ar_suite_asks_each_oracle_once_per_member(monkeypatch, p449):
    calls = {"is_ar_angle": 0, "is_cover": 0, "ar_angle_in": 0, "ar_angle": 0}

    def counting(name):
        fn = getattr(artheory, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(artheory, name, counting(name))
    shifted = []
    for module in (angles, angulated):
        fn = module.shift_angle
        monkeypatch.setattr(
            module, "shift_angle", lambda *args, fn=fn: shifted.append(args) or fn(*args)
        )
    assert not hasattr(verify, "shift_angle")
    assert all(c.ok for c in verify.verify_ar(p449))
    pairs = sum(len(spec.indices) for spec in enumerate_wide(p449))
    assert pairs == 168
    # ar_angle_in runs at pos (inside the Theorem-B check) and at pos +
    # period; ar_angle runs once per window position and once per shifted
    # copy, and the Theorem-B checks reuse the window's angles
    assert calls == {
        "is_ar_angle": pairs,
        "is_cover": pairs,
        "ar_angle_in": 2 * pairs,
        "ar_angle": 2 * p449.period,
    }
    assert shifted == []
