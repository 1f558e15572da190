"""The verify suites: each oracle verdict reaches exactly the checks built on it."""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

import angulated
from angulated import (
    ZERO_OBJ,
    Angle,
    CoverResult,
    InternalError,
    Morphism,
    SumObject,
    angles,
    artheory,
    basis_mor,
    enumerate_wide,
    indec,
    index_of,
    validate_params,
    verify,
    wide,
    zero_mor,
)
from angulated.core import is_split_epi, is_split_mono, scale

from oracles import admissible, path_hom_dim

AMBIENT = "ambient AR angles pass all oracle tests"
MINIMAL = "minimal angles: shape, radical middles, equivariance"
SUB_AR = "subcategory AR angles pass the definition oracle"
COVER = "covers verified by the raw cover test"
THEOREM_B = "cover <-> AR angle equivalence holds throughout"
SPLIT = "split epi + split mono iff iso (brute force)"
ENUM = "enumeration equals the power-set filter"
ORACLE = "classification agrees with the closure oracle"
SOCLE = "connecting maps span the Hom into the shifted head"
ROUND_TRIP = "unbar after bar is the identity on wide specs"
EDGES = "empty and full specs are wide"
PAIRS = (SUB_AR, COVER, THEOREM_B, SOCLE)


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


def _lies_at(fn, q):
    """`fn` with its verdict flipped on a morphism with a summand at `q`."""
    return lambda f: fn(f) != (q in f.source.summands + f.target.summands)


# The split check meets position 1 only at lowest placements and position
# l only at highest ones: where a union fills [1, 4], it holds two disjoint
# pairs, which carry no split map, so one lying split test changes nothing.
@pytest.mark.parametrize(
    "name, plant",
    [
        ("block_iso_oracle", _negate),
        ("is_split_epi", lambda fn: _lies_at(fn, 4)),
        ("is_split_mono", lambda fn: _lies_at(fn, 1)),
    ],
    ids=["iso-negated", "epi-lies-at-l", "mono-lies-at-1"],
)
def test_a_wrong_split_verdict_at_l_4_fails_exactly_the_split_check(monkeypatch, p449, name, plant):
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    assert {c.name for c in verify.verify_all(p449) if not c.ok} == {SPLIT}


def _matrices(p, src, tgt):
    """Every {0, +-1} matrix on the cells of Hom(src, tgt), by walking the quiver."""
    cells = [
        (i, j)
        for i, y in enumerate(tgt.summands)
        for j, x in enumerate(src.summands)
        if path_hom_dim(p, x, y)
    ]
    for combo in product((0, 1, -1), repeat=len(cells)):
        ents = [[Fraction(0)] * len(src) for _ in tgt.summands]
        for (i, j), v in zip(cells, combo):
            ents[i][j] = Fraction(v)
        yield tuple(map(tuple, ents))


def test_split_verdicts_read_only_the_order_type(p449):
    # every pair of the full scan, every matrix: the three verdicts equal
    # those of the pair moved onto 1..k, its positions replaced by their ranks
    objs = [
        SumObject(qs)
        for k in (1, 2)
        for qs in combinations_with_replacement(range(1, p449.l + 1), k)
    ]
    built = 0
    for src, tgt in product(objs, objs):
        rank = {q: r for r, q in enumerate(sorted(set(src.summands + tgt.summands)), 1)}
        low_src, low_tgt = (SumObject(tuple(rank[q] for q in o.summands)) for o in (src, tgt))
        for ents in _matrices(p449, src, tgt):
            f = Morphism(p449, src, tgt, ents)
            low = Morphism(p449, low_src, low_tgt, ents)
            for verdict in (is_split_epi, is_split_mono, verify.block_iso_oracle):
                assert verdict(f) == verdict(low), (src, tgt, ents, verdict.__name__)
            built += 1
    assert built == 4016


@pytest.mark.parametrize("triple, built", [((4, 4, 9), 1736), ((2, 6, 7), 1866), ((10, 2, 11), 541)])
def test_split_check_builds_each_order_type_at_two_placements(monkeypatch, triple, built):
    # at l = 2 every placement is a lowest or a highest one, so none is skipped
    p = validate_params(*triple)
    count = [0]

    def counted(*args):
        count[0] += 1
        return Morphism(*args)

    monkeypatch.setattr(verify, "Morphism", counted)
    assert all(c.ok for c in verify.verify_core(p))
    # the local endomorphism check builds three per window vertex
    assert count[0] - 3 * p.period == built


def test_associativity_builds_each_composite_once(monkeypatch, p449):
    # a case is one pair g = u(b -> c); h o g is built once per h = u(c -> e)
    # and g o f once per f = u(a -> b), then each of the period * l^3 tests
    # composes twice: (h o g) o f against h o (g o f)
    calls = Counter()
    for name in ("compose", "basis_mor"):
        fn = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args)
        )
    assert all(c.ok for c in verify.verify_core(p449))
    per, l = p449.period, p449.l
    assert calls == {
        "compose": 2 * per * l**3 + 2 * per * l**2, "basis_mor": per * l * (1 + 2 * l),
    }
    assert calls == {"compose": 1920, "basis_mor": 432}


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


def test_a_wrong_ambient_head_fails_exactly_the_theorem_b_check(monkeypatch, p449):
    # the head read one position low: each cover is still a cover of its
    # vertex and each subcategory angle still an AR angle, but an angle
    # ending at a member whose head is a member does not start at the cover
    original = artheory._min_positions
    monkeypatch.setattr(
        artheory, "_min_positions", lambda p, x, y: [q - 1 for q in original(p, x, y)]
    )
    assert {c.name for c in verify.verify_all(p449) if not c.ok} == {THEOREM_B}


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
    # copy, and the Theorem-B checks build none
    assert calls == {
        "is_ar_angle": pairs,
        "is_cover": pairs,
        "ar_angle_in": 2 * pairs,
        "ar_angle": 2 * p449.period,
    }
    assert shifted == []


def _cover_stopping_at_index_1(spec, pos):
    """`artheory.cover` with a scan that reads window indices: it stops at
    index 1 instead of going on to index `period` one period lower."""
    p = spec.params
    for w in range(pos, pos - p.l, -1):
        if spec.contains_pos(w):
            return CoverResult(indec(w), basis_mor(p, w, pos))
        if index_of(p, w) == 1:
            break
    return CoverResult(ZERO_OBJ, zero_mor(p, ZERO_OBJ, indec(pos)))


def _enumeration_raising(params):
    raise InternalError("planted")


_ar_angle = artheory.ar_angle


def _ar_angle_raising_at_f5(params, pos):
    if pos == 5:
        raise InternalError("planted")
    return _ar_angle(params, pos)


# Planted defects that raise inside a suite, as (owner, name, replacement,
# failing): at (4,4,9) each fails exactly the checks in `failing`, with the
# detail given there.  A raise names its first case and the exception
# class; a raise while listing names the case list; a check that fails
# without a raise keeps an empty detail.
RAISING_PLANTS = {
    "cover-stops-at-index-1": (
        artheory, "cover", _cover_stopping_at_index_1,
        dict.fromkeys(PAIRS, "spec [2, 3, 4, 6, 7, 8, 10, 11, 12] at f10: InternalError"),
    ),
    "contains-pos-reads-pos-mod-period": (
        wide.SubcatSpec, "contains_pos",
        lambda spec, pos: pos % spec.params.period in spec.indices,
        {
            AMBIENT: "f9: NotMember",
            **dict.fromkeys(PAIRS, f"spec {list(range(1, 13))} at f12: NotMember"),
            ROUND_TRIP: "",
        },
    ),
    "enumeration-raises": (
        wide, "enumerate_wide", _enumeration_raising,
        dict.fromkeys(PAIRS + (ENUM, ORACLE, ROUND_TRIP, EDGES), "case list: InternalError"),
    ),
    # the ambient angles are listed as cases, and no Theorem-B check needs one
    "ar-angle-raises-at-f5": (
        artheory, "ar_angle", _ar_angle_raising_at_f5, {AMBIENT: "case list: InternalError"},
    ),
}


@pytest.mark.parametrize("plant", RAISING_PLANTS)
def test_a_raising_plant_fails_exactly_its_checks(monkeypatch, p449, plant):
    owner, name, replacement, failing = RAISING_PLANTS[plant]
    monkeypatch.setattr(owner, name, replacement)
    assert {c.name: c.detail for c in verify.verify_all(p449) if not c.ok} == failing


def test_admissible_lists_the_triples_by_period():
    triples = admissible(12)
    assert [t[:2] for t in triples] == [
        (2, 2), (2, 3), (4, 2), (2, 4), (6, 2), (4, 3),
        (2, 5), (8, 2), (2, 6), (4, 4), (6, 3), (10, 2),
    ]
    assert len(admissible(18)) == 23


def test_verify_all_passes_at_every_admissible_triple_up_to_period_12():
    failed = {
        triple: names for triple in admissible(12)
        if (names := [c.name for c in verify.verify_all(validate_params(*triple)) if not c.ok])
    }
    assert failed == {}


def test_verify_wide_passes_at_every_admissible_triple_with_l_from_3_up_to_period_24():
    # l >= 3 keeps the frontier of `models` large and the enumeration small;
    # at l = 2 the enumeration and the bar/unbar round trip dominate
    triples = [t for t in admissible(24) if t[1] >= 3]
    assert len(triples) == 26
    failed = {
        triple: names for triple in triples
        if (names := [c.name for c in verify.verify_wide(validate_params(*triple)) if not c.ok])
    }
    assert failed == {}
