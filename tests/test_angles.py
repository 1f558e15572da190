import importlib.util
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from angulated import (
    Angle,
    BadDistance,
    FamilyParams,
    Morphism,
    ShapeMismatch,
    SumObject,
    ZERO_OBJ,
    basis_mor,
    check_d_cokernel,
    check_d_exact,
    check_d_kernel,
    check_hom_exactness,
    compose,
    d_cokernel,
    d_exact_seq,
    d_kernel,
    direct_sum,
    extend,
    identity_mor,
    indec,
    is_radical,
    join_pos,
    min_angle,
    rotate_left,
    rotate_right,
    shift_angle,
    shift_mor,
    trivial_angle,
    validate_params,
    zero_mor,
)
from angulated import angles, linalg
from angulated.angles import FLevelChain, _degenerate_angle
from angulated.core import scale
from angulated.verify import verify_ar

from oracles import (
    admissible,
    angle_composite_failure,
    angle_objects,
    extend_reference,
    hom_exactness_reference,
    matching_connector,
    with_map_zeroed,
)


def _gate_exactness_requests():
    """(params, (source, target, entries)) of the 100 `exactness` requests
    of the query-session gate seed, each a connector for `extend`.

    `perfbench/session.py` is loaded read-only from its file.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "session.py"
    spec = importlib.util.spec_from_file_location("gate_session", path)
    session = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(session)
    return [
        (validate_params(*triple), payload)
        for kind, triple, payload in session.take(session.GATE_SEED, session.GATE_REQUESTS)
        if kind == "exactness"
    ]


class TestTrivialAngle:
    def test_on_a_vertex(self, p449):
        a = trivial_angle(p449, indec(1))
        assert angle_objects(p449, a) == [1, 1, None, None, None, None]
        assert a.maps[0] == identity_mor(p449, indec(1))
        assert all(m.is_zero for m in a.maps[1:])

    def test_on_zero(self, p449):
        a = trivial_angle(p449, ZERO_OBJ)
        assert all(o.is_zero for o in a.objects)
        assert check_hom_exactness(a).ok
        assert extend(zero_mor(p449, ZERO_OBJ, ZERO_OBJ)) == a

    def test_on_a_sum(self, p449):
        x = SumObject((1, 2))
        a = trivial_angle(p449, x)
        assert a.objects[0] == a.objects[1] == x
        assert check_hom_exactness(a).ok

    def test_scalar_on_a_sum(self, p449):
        c = Fraction(-3, 2)
        a = trivial_angle(p449, SumObject((1, 2)), c)
        assert a.maps[0].entries == ((c, 0), (0, c))
        assert all(m.is_zero for m in a.maps[1:])

    def test_zero_scalar_gives_zero_maps(self, p449):
        a = trivial_angle(p449, SumObject((1, 2)), 0)
        assert a.objects[0] == a.objects[1] == SumObject((1, 2))
        assert all(m.is_zero for m in a.maps)

    @pytest.mark.parametrize("c", [0.5, Decimal("0.1"), "1/2"])
    def test_inexact_scalar_rejected(self, p449, c):
        with pytest.raises(TypeError, match="scalar"):
            trivial_angle(p449, SumObject((1, 2)), c)


class TestRotations:
    def test_round_trips(self, p449):
        a = min_angle(basis_mor(p449, 9, 10))
        assert rotate_left(rotate_right(a)) == a
        assert rotate_right(rotate_left(a)) == a

    def test_rotate_right_of_first_golden_angle(self, p449):
        # right rotation of the angle ending at f1 starts one period down
        a = min_angle(basis_mor(p449, 0, 1))
        r = rotate_right(a)
        assert angle_objects(p449, r) == [-11, -8, -7, -4, -3, 0]
        assert check_hom_exactness(r).ok

    def test_full_rotation_is_shift(self, p449):
        for a in (
            trivial_angle(p449, indec(1)),
            min_angle(basis_mor(p449, 3, 6)),
        ):
            b = a
            for _ in range(p449.d + 2):
                b = rotate_left(b)
            assert b == shift_angle(a, 1)


class TestDirectSum:
    def test_zero_angle_is_neutral(self, p449):
        a = min_angle(basis_mor(p449, 4, 5))
        z = trivial_angle(p449, ZERO_OBJ)
        assert direct_sum(a, z) == a

    def test_trivial_angles_add(self, p449):
        got = direct_sum(trivial_angle(p449, indec(1)), trivial_angle(p449, indec(2)))
        assert got == trivial_angle(p449, SumObject((1, 2)))

    def test_sum_with_golden_angle_stays_exact(self, p449):
        a = min_angle(basis_mor(p449, 4, 5))  # the angle ending at f5
        s = direct_sum(a, trivial_angle(p449, indec(3)))
        assert check_hom_exactness(s).ok

    def test_needs_one_angle_over_one_parameter_triple(self, p449, p223):
        with pytest.raises(TypeError):
            direct_sum()
        a = trivial_angle(p449, indec(1))
        with pytest.raises(ShapeMismatch):
            direct_sum(a, a, trivial_angle(p223, indec(1)))


class TestMinAngle:
    def test_golden_angle_ending_at_f10(self, p449):
        a = min_angle(basis_mor(p449, 9, 10))
        assert angle_objects(p449, a) == [1, 2, 5, 6, 9, 10]
        expected = [(1, 2), (2, 5), (5, 6), (6, 9), (9, 10), (10, 13)]
        assert list(a.maps) == [basis_mor(p449, x, y) for x, y in expected]

    def test_golden_angle_ending_at_f5(self, p449):
        a = min_angle(basis_mor(p449, 4, 5))
        assert angle_objects(p449, a) == [-4, -3, 0, 1, 4, 5]

    def test_derived_angle_on_distance_three(self, p449):
        # positions {j - r*l} u {i - r*l} = {6, 2, -2} u {3, -1, -5}
        a = min_angle(basis_mor(p449, 3, 6))
        assert angle_objects(p449, a) == [-5, -2, -1, 2, 3, 6]
        assert check_hom_exactness(a).ok

    def test_distance_zero_contracts(self, p449):
        for c in (Fraction(1), Fraction(-2, 3)):
            a = min_angle(scale(identity_mor(p449, indec(4)), c))
            assert angle_objects(p449, a) == [4, 4, None, None, None, None]
            assert check_hom_exactness(a).ok
            assert a == trivial_angle(p449, indec(4), c)

    def test_bad_distance(self, p449):
        with pytest.raises(BadDistance):
            min_angle(zero_mor(p449, indec(1), indec(2)))
        with pytest.raises(BadDistance):
            min_angle(zero_mor(p449, SumObject((1, 2)), indec(2)))

    def test_structure_of_every_admissible_angle(self, any_params):
        p = any_params
        for i in range(1, p.period + 1):
            for delta in range(1, p.l):
                mu = basis_mor(p, i, i + delta)
                a = min_angle(mu)
                nonzero = [o for o in a.objects if not o.is_zero]
                assert len(nonzero) == p.d + 2
                assert all(o.is_indec for o in nonzero)
                gaps = [
                    b.summands[0] - a_.summands[0]
                    for a_, b in zip(a.objects, a.objects[1:])
                ]
                assert gaps == [
                    delta if k % 2 == 0 else p.l - delta for k in range(p.d + 1)
                ]
                span = a.objects[-1].summands[0] - a.objects[0].summands[0]
                assert span == p.m - 1 + delta
                assert all(is_radical(a.maps[k]) for k in range(1, p.d))
                assert not a.connecting.is_zero
                assert min_angle(shift_mor(mu, 2)) == shift_angle(a, 2)

    def test_exactness_of_every_admissible_angle(self, p449):
        for i in range(1, p449.period + 1):
            for delta in range(1, p449.l):
                assert check_hom_exactness(min_angle(basis_mor(p449, i, i + delta))).ok


class TestExtend:
    def test_connecting_map_of_golden_angle(self, p449):
        # extending f10 -> shifted f1 recovers the angle ending at f10
        delta = basis_mor(p449, 10, 13)
        a = extend(delta)
        assert a == min_angle(basis_mor(p449, 9, 10))
        assert a.connecting == delta

    def test_zero_connector_splits(self, p449):
        delta = zero_mor(p449, indec(3), indec(join_pos(p449, 1, 1)))
        a = extend(delta)
        assert angle_objects(p449, a) == [1, 1, None, None, 3, 3]
        assert a.connecting.is_zero
        assert a.maps[0] == identity_mor(p449, indec(1))
        assert a.maps[p449.d] == identity_mor(p449, indec(3))
        assert check_hom_exactness(a).ok

    def test_distance_two_connector(self, p449):
        # f12 -> shifted f2: middle ladder runs over even positions
        a = extend(basis_mor(p449, 12, join_pos(p449, 1, 2)))
        assert angle_objects(p449, a) == [2, 4, 6, 8, 10, 12]
        assert check_hom_exactness(a).ok

    def test_blockwise_connector(self, p449):
        delta = Morphism(
            p449,
            SumObject((10, 12)),
            SumObject((13, 14)),
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        a = extend(delta)
        assert a.connecting == delta
        assert check_hom_exactness(a).ok

    @pytest.mark.parametrize("source, target, entries", [
        ((10, 12), (13,), ((1, 1),)),
        ((12,), (13, 14), ((1,), (1,))),
    ], ids=["two sources into one target", "one source into two targets"])
    def test_entangled_connector_rejected(self, p449, source, target, entries):
        bad = Morphism(p449, SumObject(source), SumObject(target), entries)
        with pytest.raises(ShapeMismatch):
            extend(bad)

    def test_validates_one_angle_per_call(self, monkeypatch, p223):
        # no block is built as an Angle; only the returned sum is one, also
        # where equal positions from different blocks meet
        rng = random.Random(8)
        connectors = [
            matching_connector(p223, [(0, 1, 1), (0, 0, 1)], [], []),  # equal sources
            zero_mor(p223, ZERO_OBJ, ZERO_OBJ),
        ]
        for triple in ((2, 2, 3), (4, 4, 9), (6, 3, 10), (10, 2, 11)):
            p = validate_params(*triple)
            for _ in range(25):
                pairs = []
                for _ in range(rng.randint(1, 3)):
                    s = rng.randint(-p.period, p.period)
                    pairs.append((s, s + rng.randint(0, p.l - 1), rng.choice((1, -2))))
                lone = [rng.randint(-p.period, p.period) for _ in range(rng.randint(0, 3))]
                connectors.append(matching_connector(p, pairs, lone[:1], lone[1:]))
        built = []
        post_init = Angle.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Angle, "__post_init__", counting)
        for delta in connectors:
            built.clear()
            a = extend(delta)
            assert len(built) == 1 and built[0] is a and a.connecting == delta

    def test_morphisms_built_on_the_session_gate_connectors(self, monkeypatch):
        # The 100 `exactness` requests of the query-session gate seed, each
        # a connector and its `extend`.  Per call: the connector and its two
        # objects; d new middle objects and shift(target, -1); the d+1 maps
        # before the connector; and one composite per consecutive pair of
        # nonzero maps.  Only when map 0 and the connector are both nonzero,
        # the shifted connector (three objects) and the wrap composite.
        # Angle validation checks the wrap-around target on positions, so it
        # builds no shift(object 0, 1).
        requests = _gate_exactness_requests()
        assert len(requests) == 100
        built = {Morphism: 0, SumObject: 0}
        for cls in built:
            post_init = cls.__post_init__

            def counting(self, cls=cls, post_init=post_init):
                built[cls] += 1
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        extended = [
            extend(Morphism(p, SumObject(src), SumObject(tgt), ents))
            for p, (src, tgt, ents) in requests
        ]
        want = [0, 0]
        for a in extended:
            nonzero = [not m.is_zero for m in a.maps]
            pairs = sum(f and g for f, g in zip(nonzero, nonzero[1:]))
            wrap = nonzero[0] and nonzero[-1]
            want[0] += a.params.d + 2 + pairs + 2 * wrap
            want[1] += a.params.d + 3 + 2 * wrap
        assert [built[Morphism], built[SumObject]] == want
        assert (built[Morphism], built[SumObject]) == (1318, 940)


class TestWindowChains:
    def test_kernel_chain(self, p449):
        chain = d_kernel(p449, 3, 6)
        got = [None if o.is_zero else o.summands[0] for o in chain.objects]
        assert got == [None, None, None, 2, 3]

    def test_cokernel_chain(self, p449):
        chain = d_cokernel(p449, 3, 6)
        got = [None if o.is_zero else o.summands[0] for o in chain.objects]
        assert got == [6, 7, 10, 11, None]

    def test_exact_chain(self, p449):
        chain = d_exact_seq(p449, 9, 10)
        assert [o.summands[0] for o in chain.objects] == [1, 2, 5, 6, 9, 10]

    def test_chains_pass_definition_oracles(self, any_params):
        p = any_params
        for i in range(1, p.period + 1):
            for j in range(i + 1, min(i + p.l, p.period + 1)):
                mu = basis_mor(p, i, j)
                kernel, cokernel = d_kernel(p, i, j), d_cokernel(p, i, j)
                assert check_d_kernel(kernel, mu)
                assert check_d_cokernel(cokernel, mu)
                exact = d_exact_seq(p, i, j)
                assert check_d_exact(exact)
                assert sum(1 for o in exact.objects if not o.is_zero) == p.d + 2
                # f_i, f_j are neighbours on the ladder: the d-kernel and the
                # d-cokernel are its zero-padded head and tail
                ladder = [o for o in kernel.objects + cokernel.objects if not o.is_zero]
                assert tuple(ladder) == exact.objects

    # A map that does not go from object k to object k+1 would be cut
    # against the wrong summands; each check raises, as Angle does.
    def test_misaligned_kernel_chain_rejected(self, p449):
        f1, f1f2 = indec(1), SumObject((1, 2))
        chain = FLevelChain(p449, "kernel", (f1, f1f2), (basis_mor(p449, 1, 2),))
        mu = Morphism(p449, f1f2, indec(3), ((1, 1),))
        with pytest.raises(ShapeMismatch, match="object k"):
            check_d_kernel(chain, mu)

    def test_misaligned_cokernel_chain_rejected(self, p449):
        f3, f3f4 = indec(3), SumObject((3, 4))
        chain = FLevelChain(p449, "cokernel", (f3, f3f4), (basis_mor(p449, 3, 4),))
        with pytest.raises(ShapeMismatch, match="object k"):
            check_d_cokernel(chain, basis_mor(p449, 2, 3))

    def test_misaligned_exact_chain_rejected(self, p449):
        exact = d_exact_seq(p449, 3, 6)  # 2, 3, 6, 7, 10, 11
        maps = exact.maps[:2] + (basis_mor(p449, 7, 10),) + exact.maps[3:]
        with pytest.raises(ShapeMismatch, match="object k"):
            check_d_exact(FLevelChain(p449, "exact", exact.objects, maps))

    def test_chain_not_at_the_end_of_mu_rejected(self, p449):
        # the kernel chain ends at f3 and the cokernel chain starts at f5
        # (ladder 1, 3, 5, 7, 9, 11), so neither meets u(2 -> 4)
        mu = basis_mor(p449, 2, 4)
        with pytest.raises(ShapeMismatch, match="end at the source"):
            check_d_kernel(d_kernel(p449, 3, 5), mu)
        with pytest.raises(ShapeMismatch, match="start at the target"):
            check_d_cokernel(d_cokernel(p449, 3, 5), mu)

    def test_maps_over_other_parameters_rejected(self, p449, p223):
        # the checks read l and the period off the chain, so a map over
        # another triple would be tested against the wrong windows
        with pytest.raises(ShapeMismatch):
            check_d_kernel(d_kernel(p449, 3, 5), basis_mor(p223, 3, 4))
        with pytest.raises(ShapeMismatch):
            check_d_cokernel(d_cokernel(p449, 3, 5), basis_mor(p223, 4, 5))
        kernel = d_kernel(p223, 1, 2)  # 0 -> 0 -> f1 over (2,2,3)
        with pytest.raises(ShapeMismatch):
            check_d_kernel(
                FLevelChain(p449, "kernel", kernel.objects, kernel.maps), basis_mor(p449, 1, 2)
            )
        exact = d_exact_seq(p223, 1, 2)
        with pytest.raises(ShapeMismatch):
            check_d_exact(FLevelChain(p449, "exact", exact.objects, exact.maps))

    def test_bad_pairs_rejected(self, p449):
        with pytest.raises(BadDistance):
            d_kernel(p449, 3, 3)
        with pytest.raises(BadDistance):
            d_cokernel(p449, 3, 7)  # distance l
        with pytest.raises(BadDistance):
            d_exact_seq(p449, 0, 2)

    def test_tampered_chain_fails(self, p449):
        chain = d_kernel(p449, 3, 6)
        objects = list(chain.objects)
        objects[3] = ZERO_OBJ  # drop f2 from the ladder
        maps = list(chain.maps)
        maps[2] = zero_mor(p449, objects[2], objects[3])
        maps[3] = zero_mor(p449, objects[3], objects[4])
        broken = type(chain)(p449, "kernel", tuple(objects), tuple(maps))
        assert not check_d_kernel(broken, basis_mor(p449, 3, 6))

    def test_tampered_cokernel_chain_fails(self, p449):
        chain = d_cokernel(p449, 3, 6)
        objects = list(chain.objects)
        objects[2] = ZERO_OBJ  # drop f10 from the ladder
        maps = list(chain.maps)
        maps[1] = zero_mor(p449, objects[1], objects[2])
        maps[2] = zero_mor(p449, objects[2], objects[3])
        broken = type(chain)(p449, "cokernel", tuple(objects), tuple(maps))
        assert not check_d_cokernel(broken, basis_mor(p449, 3, 6))
        # the same gap in the full sequence 2, 3, 6, 7, 10, 11
        exact = d_exact_seq(p449, 3, 6)
        objects = list(exact.objects)
        objects[4] = ZERO_OBJ
        maps = list(exact.maps)
        maps[3] = zero_mor(p449, objects[3], objects[4])
        maps[4] = zero_mor(p449, objects[4], objects[5])
        broken = type(exact)(p449, "exact", tuple(objects), tuple(maps))
        assert not check_d_exact(broken)

    def test_ranks_alone_do_not_make_a_chain_exact(self, p449):
        # f1 -> f1 + f1 -> f1 into the first summand and out of the first or
        # the second: every window keeps all of it or nothing, so the ranks
        # add up at every slot, and only the composite tells the two apart
        x, y = indec(1), SumObject((1, 1))
        into = Morphism(p449, x, y, ((1,), (0,)))
        for out, exact in ((((0, 1),), True), (((1, 0),), False)):
            out = Morphism(p449, y, x, out)
            assert check_d_kernel(FLevelChain(p449, "kernel", (x, y), (into,)), out) == exact
            assert check_d_cokernel(FLevelChain(p449, "cokernel", (y, x), (out,)), into) == exact
            assert check_d_exact(FLevelChain(p449, "exact", (x, y, x), (into, out))) == exact


class TestHomExactnessOracle:
    def test_golden_angle_passes(self, p449):
        assert check_hom_exactness(min_angle(basis_mor(p449, 0, 1))).ok

    def test_zero_angle_passes(self, p449):
        assert check_hom_exactness(trivial_angle(p449, ZERO_OBJ)).ok

    def test_tampered_angle_fails_with_witness(self, p449):
        a = min_angle(basis_mor(p449, 4, 5))
        maps = list(a.maps)
        maps[2] = zero_mor(p449, a.objects[2], a.objects[3])
        report = check_hom_exactness(Angle(p449, a.objects, tuple(maps)))
        assert not report.ok
        assert report.failures
        # the zeroed map sits at slots d+2+2, d+2+3 of the extended complex
        assert any(slot in {p449.d + 4, p449.d + 5} for _, slot in report.failures)

    def test_ranks_each_nonempty_map_once(self, p449, monkeypatch):
        shapes = []
        rank = linalg.rank

        def counting_rank(rows):
            shapes.append((len(rows), len(rows[0]) if rows else 0))
            return rank(rows)

        monkeypatch.setattr(linalg, "rank", counting_rank)
        assert check_hom_exactness(min_angle(basis_mor(p449, 1, 3))).ok
        assert all(r and c for r, c in shapes), "rank called on an empty matrix"
        # every cut is one of the angle's six 1 x 1 entry matrices, the
        # connector's shared by both ends of the swept copy: each is ranked
        # once per call
        assert len(shapes) == 6

    def test_sweeps_one_period(self, p449, monkeypatch):
        calls = []
        sweep = angles._inexact_windows

        def spy(summands, entries, l, ts, slots):
            calls.append((ts, slots))
            return sweep(summands, entries, l, ts, slots)

        monkeypatch.setattr(angles, "_inexact_windows", spy)
        a = with_map_zeroed(min_angle(basis_mor(p449, 4, 6)), 2)
        positions = [q for o in a.objects for q in o.summands]
        assert check_hom_exactness(a).failures == hom_exactness_reference(a)
        assert len(calls) == 1
        ts, slots = calls[0]
        assert len(ts) == max(positions) - min(positions) + p449.l
        assert len(slots) == p449.d + 2

    def test_zeroed_minimal_angles_match_the_reference(self):
        # every map of every minimal angle u(1 -> 1 + D) zeroed in turn;
        # slots 1 and 3(d+2) - 2 are where the repeated copies are cut off
        angles_seen, edges = 0, {"first": 0, "last": 0}
        for triple in admissible(12):
            p = validate_params(*triple)
            n = p.d + 2
            for dist in range(1, p.l):
                a = min_angle(basis_mor(p, 1, 1 + dist))
                for k in range(n):
                    b = with_map_zeroed(a, k)
                    report = check_hom_exactness(b)
                    assert report.failures == hom_exactness_reference(b), (triple, dist, k)
                    assert not report.ok
                    slots = {s for _, s in report.failures}
                    edges["first"] += 1 in slots
                    edges["last"] += 3 * n - 2 in slots
                    angles_seen += 1
        assert angles_seen == 142
        assert edges == {"first": 52, "last": 52}

    def test_session_gate_angles_match_the_reference(self):
        # each gate angle as built, and with map n mod (d+2) zeroed; the
        # reference walks every test vertex and builds shifted Morphisms.
        # Each angle is also the one the old block-sum construction builds.
        spoiled = 0
        for n, (p, (src, tgt, ents)) in enumerate(_gate_exactness_requests()):
            delta = Morphism(p, SumObject(src), SumObject(tgt), ents)
            a = extend(delta)
            assert a == extend_reference(delta)
            for b in (a, with_map_zeroed(a, n % len(a.maps))):
                report = check_hom_exactness(b)
                assert report.failures == hom_exactness_reference(b)
                assert report.ok == (not report.failures)
                spoiled += not report.ok
        assert spoiled == 91  # zeroing a map spoils most angles, not all

    def test_work_follows_the_summands(self):
        # two cells 10^5 periods apart: about 1.2 million test vertices lie
        # between them, all with empty windows; a walk over every vertex
        # takes about 25 s on one core, the sweep about a millisecond
        p = validate_params(10, 2, 11)
        far = 10 ** 5 * p.period
        a = extend(matching_connector(p, [(0, 1, 1), (far, far + 1, Fraction(-2, 3))], [], []))
        start = time.perf_counter()
        assert check_hom_exactness(a).ok
        assert time.perf_counter() - start < 2


class TestAngleValidation:
    def test_nonzero_consecutive_composite_rejected(self, p449):
        # f1 -> f2 -> f3 survives (distance 2 < l), so this is no angle
        with pytest.raises(ValueError, match="consecutive"):
            Angle(
                p449,
                (indec(1), indec(2), indec(3), ZERO_OBJ, ZERO_OBJ, indec(12)),
                (
                    basis_mor(p449, 1, 2),
                    basis_mor(p449, 2, 3),
                    zero_mor(p449, indec(3), ZERO_OBJ),
                    zero_mor(p449, ZERO_OBJ, ZERO_OBJ),
                    zero_mor(p449, ZERO_OBJ, indec(12)),
                    basis_mor(p449, 12, 13),
                ),
            )

    def test_misaligned_maps_rejected(self, p449):
        a = min_angle(basis_mor(p449, 9, 10))
        maps = list(a.maps)
        maps[1] = basis_mor(p449, 2, 4)  # wrong target slot
        with pytest.raises(ShapeMismatch):
            Angle(p449, a.objects, tuple(maps))

    def test_wrong_length_rejected(self, p449):
        a = min_angle(basis_mor(p449, 9, 10))
        with pytest.raises(ShapeMismatch, match="6 objects and 6 maps"):
            Angle(p449, a.objects[:-1], a.maps)
        with pytest.raises(ShapeMismatch, match="6 objects and 6 maps"):
            Angle(p449, a.objects, a.maps + (a.maps[0],))

    def test_map_over_other_parameters_rejected(self, p449, p223):
        # the identity on f1 is a valid matrix over both triples
        a = trivial_angle(p449, indec(1))
        maps = (Morphism(p223, indec(1), indec(1), ((1,),)),) + a.maps[1:]
        with pytest.raises(ShapeMismatch, match="different parameters"):
            Angle(p449, a.objects, maps)

    def test_wrap_composite_checked(self, p449):
        # the first map must kill the unshifted connecting map: here the
        # composite s-1:f12 -> f1 -> f2 has distance 2 and survives.  Every
        # middle map is zero, so no consecutive composite is built
        objects = (indec(1), indec(2), ZERO_OBJ, ZERO_OBJ, ZERO_OBJ, indec(12))
        maps = (
            basis_mor(p449, 1, 2),
            zero_mor(p449, indec(2), ZERO_OBJ),
            zero_mor(p449, ZERO_OBJ, ZERO_OBJ),
            zero_mor(p449, ZERO_OBJ, ZERO_OBJ),
            zero_mor(p449, ZERO_OBJ, indec(12)),
            basis_mor(p449, 12, 13),
        )
        want = "wrap-around composite is nonzero"
        assert angle_composite_failure(objects, maps) == want
        with pytest.raises(ValueError, match=f"^{want}$"):
            Angle(p449, objects, maps)

    def test_zero_maps_around_a_surviving_pair_still_rejected(self, p449):
        # maps 0 and 3 are zero, so their composites are not built; maps 1
        # and 2 compose to u(f1 -> f3), which survives (distance 2 < l)
        objects = (indec(0), indec(1), indec(2), indec(3), ZERO_OBJ, ZERO_OBJ)
        maps = (
            zero_mor(p449, indec(0), indec(1)),
            basis_mor(p449, 1, 2),
            basis_mor(p449, 2, 3),
            zero_mor(p449, indec(3), ZERO_OBJ),
            zero_mor(p449, ZERO_OBJ, ZERO_OBJ),
            zero_mor(p449, ZERO_OBJ, indec(12)),
        )
        want = "consecutive maps 1, 2 do not compose to zero"
        assert angle_composite_failure(objects, maps) == want
        with pytest.raises(ValueError, match=f"^{want}$"):
            Angle(p449, objects, maps)


class TestValidationComposites:
    """A composite with a zero factor vanishes, so Angle does not build it."""

    @pytest.fixture
    def composites(self, monkeypatch):
        """The number of `compose` calls that Angle validation makes."""
        calls = [0]

        def counting(g, f):
            calls[0] += 1
            return compose(g, f)

        monkeypatch.setattr(angles, "compose", counting)
        return calls

    def test_contractible_angles_build_none(self, p449, composites):
        _degenerate_angle(p449, 5)
        trivial_angle(p449, indec(5))
        assert composites[0] == 0

    def test_min_angle_builds_every_composite(self, p449, composites):
        # every map of a minimal angle is nonzero: d + 1 consecutive
        # composites and the wrap
        min_angle(basis_mor(p449, 1, 3))
        assert composites[0] == p449.d + 2 == 6

    def test_verify_ar_builds_only_composites_of_nonzero_maps(self, p449, composites):
        assert all(c.ok for c in verify_ar(p449))
        assert composites[0] == 1152

    def test_min_angle_compares_no_object_or_record(self, p449, monkeypatch):
        # validation and its composites compare position tuples, and the
        # parameter record by identity, so no dataclass equality runs
        calls = {SumObject: 0, FamilyParams: 0}
        for cls in calls:
            def counting(self, other, cls=cls, eq=cls.__eq__):
                calls[cls] += 1
                return eq(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
        mu = basis_mor(p449, 1, 3)
        a = min_angle(mu)
        assert calls == {SumObject: 0, FamilyParams: 0}
        assert a.objects[0] == indec(-7) and calls[SumObject] == 1  # the counter counts
