from fractions import Fraction

import pytest

from angulated import (
    Angle,
    FamilyParams,
    Morphism,
    NotMember,
    NotWide,
    ShapeMismatch,
    SubcatSpec,
    SumObject,
    ZERO_OBJ,
    ar_angle,
    ar_angle_in,
    basis_mor,
    check_hom_exactness,
    compose,
    cover,
    empty_spec,
    enumerate_wide,
    full_spec,
    hom_dim,
    identity_mor,
    indec,
    is_ar_angle,
    is_cover,
    is_left_almost_split,
    is_precover,
    is_radical,
    is_right_almost_split,
    is_right_minimal,
    join_pos,
    min_angle,
    rotate_left,
    shift_angle,
    theorem_b_check,
    trivial_angle,
    validate_params,
    zero_mor,
)
from angulated.core import direct_sum_mor

from oracles import (
    admissible,
    angle_objects,
    ar_angle_in_reference,
    left_almost_split_reference,
    precover_reference,
    right_almost_split_reference,
)

PERIODIC = (1, 2, 5, 6, 9, 10)
SINGLE_CLASS = (1, 5, 9)


class TestArAngle:
    def test_ending_at_f1(self, p449):
        a = ar_angle(p449, 1)
        assert angle_objects(p449, a) == [-8, -7, -4, -3, 0, 1]

    def test_ending_at_f5(self, p449):
        a = ar_angle(p449, 5)
        assert angle_objects(p449, a) == [-4, -3, 0, 1, 4, 5]

    def test_shift_equivariance(self, p449):
        assert ar_angle(p449, join_pos(p449, 1, 10)) == shift_angle(
            ar_angle(p449, 10), 1
        )

    def test_all_oracle_properties(self, any_params):
        p = any_params
        full = full_spec(p)
        for pos in range(1, p.period + 1):
            a = ar_angle(p, pos)
            assert check_hom_exactness(a).ok
            assert is_right_almost_split(full, a.maps[p.d])
            assert is_left_almost_split(full, a.maps[0])
            assert all(is_radical(a.maps[k]) for k in range(p.d + 1))
            assert not a.connecting.is_zero


class TestCover:
    def test_golden_example(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        result = cover(sp, join_pos(p449, -1, 4))
        assert result.source == indec(join_pos(p449, -1, 2))
        assert result.mor.entries == ((Fraction(1),),)

    def test_member_gets_identity(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        result = cover(sp, 5)
        assert result.mor == identity_mor(p449, indec(5))

    def test_empty_spec_gives_zero(self, p449):
        result = cover(empty_spec(p449), 5)
        assert result.source.is_zero
        assert result.mor.is_zero

    def test_source_zero_or_indecomposable(self, any_params):
        for sp in enumerate_wide(any_params):
            for pos in range(1, any_params.period + 1):
                assert len(cover(sp, pos).source) <= 1

    def test_outputs_pass_cover_oracle(self, p449):
        for indices in [PERIODIC, SINGLE_CLASS, (3,), tuple(range(1, 13))]:
            sp = SubcatSpec(p449, indices)
            for pos in range(1, p449.period + 1):
                assert is_cover(sp, cover(sp, pos).mor)

    def test_shift_equivariance(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        lifted = cover(sp, 4 + p449.period)
        assert lifted.source == indec(2 + p449.period)


class TestArAngleIn:
    def test_periodic_spec_at_f1(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        a = ar_angle_in(sp, 1)
        assert angle_objects(p449, a) == [-10, -7, -6, -3, -2, 1]

    def test_periodic_spec_at_f5(self, p449):
        # ends at f5, connecting into the shifted head f6
        sp = SubcatSpec(p449, PERIODIC)
        a = ar_angle_in(sp, 5)
        assert angle_objects(p449, a) == [-6, -3, -2, 1, 2, 5]
        head = a.objects[0].summands[0]
        assert head + p449.period == 6

    def test_periodic_spec_at_f6_is_ambient(self, p449):
        # the ambient angle ending at f6 already lives in the subcategory
        sp = SubcatSpec(p449, PERIODIC)
        assert ar_angle_in(sp, 6) == ar_angle(p449, 6)

    def test_periodic_spec_at_f10_is_ambient(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        assert ar_angle_in(sp, 10) == ar_angle(p449, 10)

    def test_degenerate_single_class(self, p449):
        sp = SubcatSpec(p449, SINGLE_CLASS)
        a = ar_angle_in(sp, 5)
        assert angle_objects(p449, a) == [-7, None, None, None, None, 5]
        assert a.connecting == identity_mor(p449, indec(5))
        assert all(m.is_zero for m in a.maps[:-1])
        assert a == rotate_left(trivial_angle(p449, indec(5 - p449.period)))

    def test_full_spec_gives_ambient(self, p449):
        for pos in range(1, p449.period + 1):
            assert ar_angle_in(full_spec(p449), pos) == ar_angle(p449, pos)

    def test_not_wide_rejected(self, p449):
        with pytest.raises(NotWide, match=r"^spec \[1, 2\] is not wide$"):
            ar_angle_in(SubcatSpec(p449, (1, 2)), 1)

    def test_not_member_rejected(self, p449):
        with pytest.raises(NotMember, match="^vertex at position 3 is not a member$"):
            ar_angle_in(SubcatSpec(p449, PERIODIC), 3)

    def test_shift_equivariance(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        assert ar_angle_in(sp, 5 + 12) == shift_angle(ar_angle_in(sp, 5), 1)

    def test_head_is_cover_source(self, any_params):
        p = any_params
        for sp in enumerate_wide(p):
            for pos in sp.indices:
                a = ar_angle_in(sp, pos)
                assert a.objects[0] == cover(sp, pos - p.m).source
                assert not a.connecting.is_zero

    def test_is_the_angle_on_its_connector(self):
        # every (wide spec, member) pair at the admissible triples up to
        # period 12, the member moved by -1, 0 and 2 periods
        cases = 0
        for triple in admissible(12):
            p = validate_params(*triple)
            for spec in enumerate_wide(p):
                for i in spec.indices:
                    for r in (-1, 0, 2):
                        pos = i + r * p.period
                        assert ar_angle_in(spec, pos) == ar_angle_in_reference(spec, pos), (
                            triple, spec.indices, pos,
                        )
                        cases += 1
        assert cases == 8313


class TestRightAlmostSplit:
    def test_last_inner_map_of_ar_angle(self, p449):
        a = ar_angle(p449, 5)
        assert is_right_almost_split(full_spec(p449), a.maps[p449.d])

    def test_identity_fails(self, p449):
        assert not is_right_almost_split(full_spec(p449), identity_mor(p449, indec(5)))

    def test_zero_map_in_sparse_subcategory(self, p449):
        sp = SubcatSpec(p449, SINGLE_CLASS)
        xi = zero_mor(p449, ZERO_OBJ, indec(5))
        assert is_right_almost_split(sp, xi)
        # but not in the full category, where f4 -> f5 needs a factorisation
        assert not is_right_almost_split(full_spec(p449), xi)

    def test_nonmember_target_rejected(self, p449):
        with pytest.raises(NotMember):
            is_right_almost_split(
                SubcatSpec(p449, SINGLE_CLASS), identity_mor(p449, indec(2))
            )

    def test_nonmember_source_fails(self, p449):
        # f5 is a member and every member map into f5 is an isomorphism or
        # zero, so u(f4 -> f5) would pass, but f4 is not a member
        assert not is_right_almost_split(SubcatSpec(p449, SINGLE_CLASS), basis_mor(p449, 4, 5))

    def test_sum_target_rejected(self, p449):
        with pytest.raises(NotMember, match="single vertex target"):
            is_right_almost_split(full_spec(p449), identity_mor(p449, SumObject((4, 5))))


class TestLeftAlmostSplit:
    def test_first_map_of_ar_angle(self, p449):
        a = ar_angle(p449, 5)
        assert is_left_almost_split(full_spec(p449), a.maps[0])

    def test_identity_fails(self, p449):
        assert not is_left_almost_split(full_spec(p449), identity_mor(p449, indec(5)))

    def test_irreducible_arrow_is_left_almost_split(self, p449):
        # u(f1 -> f2) extends every non-section out of f1: any nonzero
        # u(f1 -> y) has distance <= l-1, so u(f2 -> y) exists and matches
        assert is_left_almost_split(full_spec(p449), basis_mor(p449, 1, 2))

    def test_distance_two_arrow_fails(self, p449):
        # u(f1 -> f2) cannot factor through u(f1 -> f3): Hom(f3, f2) = 0
        assert not is_left_almost_split(full_spec(p449), basis_mor(p449, 1, 3))

    def test_nonmember_target_fails(self, p449):
        # the dual: u(f5 -> f6) out of the member f5, but f6 is not a member
        assert not is_left_almost_split(SubcatSpec(p449, SINGLE_CLASS), basis_mor(p449, 5, 6))

    def test_sum_source_rejected(self, p449):
        with pytest.raises(NotMember, match="single vertex source"):
            is_left_almost_split(full_spec(p449), identity_mor(p449, SumObject((4, 5))))


def _library_and_reference(checker, reference):
    return pytest.mark.parametrize("check", [checker, reference], ids=["library", "reference"])


class TestOtherParameters:
    """A checker given a spec over other parameters raises ShapeMismatch, and
    so does its reference in `tests/oracles.py` where one exists."""

    @_library_and_reference(is_right_almost_split, right_almost_split_reference)
    def test_right_almost_split(self, p449, p223, check):
        with pytest.raises(ShapeMismatch):
            check(full_spec(p449), basis_mor(p223, 1, 2))

    @_library_and_reference(is_left_almost_split, left_almost_split_reference)
    def test_left_almost_split(self, p449, p223, check):
        with pytest.raises(ShapeMismatch):
            check(full_spec(p449), basis_mor(p223, 1, 2))

    @_library_and_reference(is_precover, precover_reference)
    def test_precover(self, p449, p223, check):
        with pytest.raises(ShapeMismatch):
            check(full_spec(p449), basis_mor(p223, 1, 2))

    def test_cover(self, p449, p223):
        with pytest.raises(ShapeMismatch):
            is_cover(full_spec(p449), identity_mor(p223, indec(2)))

    def test_ar_angle(self, p449, p223):
        with pytest.raises(ShapeMismatch):
            is_ar_angle(full_spec(p449), ar_angle(p223, 3))



class TestEqualParameterRecords:
    """Parameter records are compared by identity first and by equality
    after, so an equal record built separately is accepted, and a record
    of another triple is still rejected with the same message."""

    @staticmethod
    def _over(params, mor):
        return Morphism(params, mor.source, mor.target, mor.entries)

    @pytest.mark.parametrize("triple, message", [
        ((4, 4, 9), None),
        # the id names the case, an angle with a map over other parameters
        pytest.param((2, 2, 3), "map 0 lives over different parameters",
                     id="triple1-angle maps live over different parameters"),
    ])
    def test_angle(self, p449, triple, message):
        # map 0 of the minimal angle on u(f1 -> f2) is u(-7 -> -6), a valid
        # matrix over both triples
        a = min_angle(basis_mor(p449, 1, 2))
        maps = (self._over(FamilyParams(*triple), a.maps[0]),) + a.maps[1:]
        if message is None:
            assert Angle(p449, a.objects, maps).maps == a.maps
            assert Angle(FamilyParams(4, 4, 9), a.objects, a.maps).objects == a.objects
            return
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            Angle(p449, a.objects, maps)

    @pytest.mark.parametrize("triple, message", [
        ((4, 4, 9), None), ((2, 2, 3), "morphisms live over different parameters"),
    ])
    def test_composite(self, p449, triple, message):
        g = basis_mor(FamilyParams(*triple), 2, 3)
        if message is None:
            assert compose(g, basis_mor(p449, 1, 2)) == basis_mor(p449, 1, 3)
            return
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            compose(g, basis_mor(p449, 1, 2))

    @pytest.mark.parametrize("triple, message", [
        ((4, 4, 9), None), ((2, 2, 3), "morphisms live over different parameters"),
    ])
    def test_direct_sum_mor(self, p449, triple, message):
        f, g = basis_mor(p449, 1, 2), basis_mor(FamilyParams(*triple), 3, 4)
        if message is None:
            want = Morphism(p449, SumObject((1, 3)), SumObject((2, 4)), ((1, 0), (0, 1)))
            assert direct_sum_mor(f, g) == want
            return
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            direct_sum_mor(f, g)

    @pytest.mark.parametrize("triple, message", [
        ((4, 4, 9), None),
        ((2, 2, 3), "spec and checked map or angle live over different parameters"),
    ])
    def test_is_cover(self, p449, triple, message):
        spec = SubcatSpec(p449, SINGLE_CLASS)
        xi = self._over(FamilyParams(*triple), cover(spec, 2).mor)  # u(f1 -> f2)
        if message is None:
            assert is_cover(spec, xi)
            return
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            is_cover(spec, xi)


class TestRightMinimal:
    def test_identity(self, p449):
        assert is_right_minimal(identity_mor(p449, indec(1)))

    def test_basis_morphism(self, p449):
        # End(f1) is the scalars: xi*c = xi forces c = 1
        assert is_right_minimal(basis_mor(p449, 1, 2))

    def test_padded_source_fails(self, p449):
        # (u, 0): f1 + f1 -> f2 absorbs diag(1, 0)-style non-isomorphisms
        f = Morphism(
            p449, SumObject((1, 1)), indec(2), ((Fraction(1), Fraction(0)),)
        )
        assert not is_right_minimal(f)

    def test_zero_to_nonzero_source_fails(self, p449):
        f = zero_mor(p449, indec(1), indec(2))
        assert not is_right_minimal(f)

    def test_escape_in_a_later_nullspace_vector(self, p449):
        # the column at f1 has two null vectors: (0, 1, 0) stays in the
        # radical, (-1, 0, 1) does not; psi = -u(1->1) + u(1->2) into the
        # second summand at f2 gives xi o psi = 0, so xi is not right minimal
        f = Morphism(p449, SumObject((1, 2, 2)), SumObject((3, 5)), ((1, 0, 1), (0, 1, 1)))
        assert not is_right_minimal(f)


class TestPrecoverCover:
    def test_cover_outputs(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        for pos in (1, 3, 4, 8, 12):
            mor = cover(sp, pos).mor
            assert is_precover(sp, mor)
            assert is_cover(sp, mor)

    def test_identity_on_member(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        assert is_cover(sp, identity_mor(p449, indec(5)))

    def test_skipping_a_member_fails(self, p449):
        # s-1:f1 -> s-1:f4 is not a precover: s-1:f2 -> s-1:f4 cannot
        # factor through it (Hom(s-1:f2, s-1:f1) = 0)
        sp = SubcatSpec(p449, PERIODIC)
        mor = basis_mor(p449, join_pos(p449, -1, 1), join_pos(p449, -1, 4))
        assert not is_precover(sp, mor)
        assert not is_cover(sp, mor)

    def test_source_outside_the_subcategory_fails(self, p449):
        # every test map into f3 factors through id(f3), but f3 is not a
        # member: the cover of f3 is f1 -> f3
        sp = SubcatSpec(p449, SINGLE_CLASS)
        assert not is_precover(sp, identity_mor(p449, indec(3)))
        assert not is_cover(sp, identity_mor(p449, indec(3)))
        assert is_cover(sp, cover(sp, 3).mor)
        assert cover(sp, 3).source == indec(1)

    def test_zero_source_is_a_member(self, p449):
        result = cover(empty_spec(p449), 3)
        assert result.source == ZERO_OBJ
        assert is_cover(empty_spec(p449), result.mor)


class TestCheckerWork:
    """Each checker factors one test morphism, one system per test map."""

    def test_precover_stops_at_the_first_test_column(self, p449, solves):
        # u(f1 -> f4) does not factor through the zero map, and f1 is the
        # first of the four test vertices f1..f4
        assert not is_precover(full_spec(p449), zero_mor(p449, indec(1), indec(4)))
        assert len(solves) == 1

    def test_right_almost_split_solves_once_per_member_source(self, p449, solves):
        # one split test on the single target summand, then one system for
        # each of the member sources f2, f3, f4 of f5
        a = ar_angle(p449, 5)
        assert is_right_almost_split(full_spec(p449), a.maps[p449.d])
        assert len(solves) == 1 + 3


class TestIsArAngle:
    def test_constructed_angles_pass(self, p449):
        for indices in [PERIODIC, SINGLE_CLASS, tuple(range(1, 13))]:
            sp = SubcatSpec(p449, indices)
            for pos in indices:
                assert is_ar_angle(sp, ar_angle_in(sp, pos))

    def test_trivial_angle_fails(self, p449):
        assert not is_ar_angle(full_spec(p449), trivial_angle(p449, indec(1)))

    def test_membership_gate(self, p449):
        with pytest.raises(NotMember):
            is_ar_angle(SubcatSpec(p449, SINGLE_CLASS), ar_angle(p449, 5))

    def test_fails_at_map_d_alone(self, p449):
        # map d of an AR angle replaced by zero: the composites still vanish
        # and map 0 is still left almost split, but no map into the end
        # factors through zero
        a, d, full = ar_angle(p449, 5), p449.d, full_spec(p449)
        zero = zero_mor(p449, a.objects[d], a.objects[d + 1])
        b = Angle(p449, a.objects, a.maps[:d] + (zero, a.maps[d + 1]))
        assert is_left_almost_split(full, b.maps[0])
        assert not is_ar_angle(full, b)

    def test_fails_at_map_0_alone(self, p449):
        # the mirror: map 0 replaced by zero, map d is still right almost
        # split, but no map out of the start extends along zero
        a, d, full = ar_angle(p449, 5), p449.d, full_spec(p449)
        zero = zero_mor(p449, a.objects[0], a.objects[1])
        b = Angle(p449, a.objects, (zero,) + a.maps[1:])
        assert is_right_almost_split(full, b.maps[d])
        assert not is_ar_angle(full, b)


class TestTheoremB:
    def test_periodic_golden_case(self, p449):
        sp = SubcatSpec(p449, PERIODIC)
        report = theorem_b_check(sp, 1)
        assert report.ok
        assert report.cover_result.source == indec(join_pos(p449, -1, 2))
        assert report.sub_angle.objects[0] == report.cover_result.source

    def test_full_spec_everywhere(self, p449):
        for pos in range(1, p449.period + 1):
            report = theorem_b_check(full_spec(p449), pos)
            assert report.ok
            assert report.sub_angle == ar_angle(p449, pos)

    def test_degenerate_branch(self, p449):
        report = theorem_b_check(SubcatSpec(p449, SINGLE_CLASS), 9)
        assert report.ok
        assert angle_objects(p449, report.sub_angle) == [-3, None, None, None, None, 9]

    def test_gates(self, p449):
        with pytest.raises(NotWide):
            theorem_b_check(SubcatSpec(p449, (1, 2)), 1)
        with pytest.raises(NotMember):
            theorem_b_check(SubcatSpec(p449, PERIODIC), 3)


class TestConnectingSpansHom:
    def test_one_dimensional_socle_style_invariant(self, p449):
        # Hom(end, shifted head) is one dimensional and the connecting map
        # is a nonzero element of it, for every generated AR angle
        for indices in [PERIODIC, SINGLE_CLASS, tuple(range(1, 13))]:
            sp = SubcatSpec(p449, indices)
            for pos in indices:
                a = ar_angle_in(sp, pos)
                head = a.objects[0].summands[0]
                tail = a.objects[-1].summands[0]
                assert hom_dim(p449, tail, head + p449.period) == 1
                assert not a.connecting.is_zero
