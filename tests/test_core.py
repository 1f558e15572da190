import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from angulated import (
    BadDistance,
    ConstraintViolation,
    FamilyParams,
    Morphism,
    ShapeMismatch,
    SumObject,
    ZERO_OBJ,
    ZeroHom,
    basis_mor,
    compose,
    hom_dim,
    identity_mor,
    indec,
    is_iso,
    is_radical,
    is_split_epi,
    is_split_mono,
    join_pos,
    pos_label,
    shift_mor,
    shift_obj,
    split_pos,
    validate_params,
    zero_mor,
)
from angulated.core import direct_sum_mor, left_factor, right_factor

from oracles import block_iso_oracle, path_hom_dim


class TestValidateParams:
    def test_paper_example_triple(self):
        p = validate_params(4, 4, 9)
        assert (p.d, p.l, p.m, p.period) == (4, 4, 9, 12)

    def test_smallest_admissible_triple(self):
        assert validate_params(2, 2, 3).period == 4

    def test_odd_d_rejected(self):
        with pytest.raises(ConstraintViolation):
            validate_params(3, 2, 4)

    @pytest.mark.parametrize(
        "d,l,m",
        [(4, 4, 8), (2, 1, 2), (0, 2, 1), (2, 2, 4), (-2, 2, 3), (2, 2, 2),
         (True, 2, 3), (2, 4.0, 5), ("4", 2, 3)],
    )
    def test_bad_triples_rejected(self, d, l, m):
        with pytest.raises(ConstraintViolation):
            validate_params(d, l, m)

    @pytest.mark.parametrize("d,l,m,message", [
        (2, 4.0, 5, "l must be an integer, got 4.0"),
        (3, 2, 4, "d must be an even integer >= 2, got 3"),
        (2, 1, 2, "l must be an integer >= 2, got 1"),
        (2, 2, 2, "m must be an integer >= 3, got 2"),
        (4, 4, 8, "need m - 1 = d*l/2, got m - 1 = 7 and d*l/2 = 8"),
    ])
    def test_message_names_the_first_failed_condition(self, d, l, m, message):
        with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
            validate_params(d, l, m)

    def test_period_formula(self):
        # period = l*(d+2)/2 follows from the constraint
        for d, l, m in [(2, 2, 3), (2, 3, 4), (4, 4, 9), (2, 4, 5), (6, 2, 7)]:
            p = validate_params(d, l, m)
            assert 2 * p.period == l * (d + 2)


class TestFamilyParams:
    # the record checks itself: validate_params only names it
    def test_period_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            FamilyParams(4, 4, 9, 13)
        p = FamilyParams(4, 4, 9)
        assert p == validate_params(4, 4, 9) and p.period == 12

    @pytest.mark.parametrize("d,l,m", [(3, 4, 9), (4, 4, 8), (2, 1, 2), (True, 2, 3)])
    def test_checks_as_validate_params_does(self, d, l, m):
        with pytest.raises(ConstraintViolation) as want:
            validate_params(d, l, m)
        with pytest.raises(ConstraintViolation, match=re.escape(str(want.value))):
            FamilyParams(d, l, m)


class TestPositions:
    def test_split_join_round_trip(self, p449):
        for pos in range(-30, 31):
            s, i = split_pos(p449, pos)
            assert 1 <= i <= p449.period
            assert join_pos(p449, s, i) == pos

    @pytest.mark.parametrize("index", [0, 13])
    def test_join_outside_the_window_is_bad_distance(self, p449, index):
        # the out-of-window error of SubcatSpec and parse_object, still a ValueError
        with pytest.raises(BadDistance, match=r"outside \[1, 12\]"):
            join_pos(p449, 0, index)
        assert issubclass(BadDistance, ValueError)

    def test_labels(self, p449):
        assert pos_label(p449, 5) == "f5"
        assert pos_label(p449, 0) == "s-1:f12"
        assert pos_label(p449, 13) == "s1:f1"


class TestHomDim:
    def test_within_window(self, p449):
        assert hom_dim(p449, 1, 4) == 1  # distance 3 <= l - 1

    def test_identity_distance(self, p449):
        assert hom_dim(p449, 7, 7) == 1

    def test_across_period(self, p449):
        # f12 -> shifted f2 has distance 2; confirmed by the path walker
        assert hom_dim(p449, 12, join_pos(p449, 1, 2)) == 1
        assert path_hom_dim(p449, 12, 14) == 1

    def test_agrees_with_path_oracle(self, any_params):
        p = any_params
        for x in range(1, p.period + 1):
            for y in range(x - 2, x + 2 * p.l + 2):
                assert hom_dim(p, x, y) == path_hom_dim(p, x, y)

    def test_shift_equivariance(self, p449):
        for x in range(1, p449.period + 1):
            for y in range(x - 2, x + p449.l + 2):
                for r in (-2, -1, 1, 5):
                    t = r * p449.period
                    assert hom_dim(p449, x, y) == hom_dim(p449, x + t, y + t)


class TestBasisMor:
    def test_forced_scalar_one(self, p449):
        u = basis_mor(p449, 1, 2)
        assert u.entries == ((Fraction(1),),)

    def test_zero_hom_raises(self, p449):
        with pytest.raises(ZeroHom):
            basis_mor(p449, 1, 5)  # distance 4 = l

    def test_across_period_boundary(self, p449):
        u = basis_mor(p449, join_pos(p449, -1, 12), 1)
        assert u.entries == ((Fraction(1),),)
        assert path_hom_dim(p449, 0, 1) == 1


class TestCompose:
    def test_path_concatenation(self, p449):
        f = basis_mor(p449, 1, 2)
        g = basis_mor(p449, 2, 3)
        assert compose(g, f) == basis_mor(p449, 1, 3)

    def test_l_fold_composite_vanishes(self, p449):
        f = basis_mor(p449, 1, 4)
        g = basis_mor(p449, 4, 5)
        assert compose(g, f).is_zero

    def test_identity_laws(self, p449):
        f = basis_mor(p449, 2, 4)
        assert compose(f, identity_mor(p449, f.source)) == f
        assert compose(identity_mor(p449, f.target), f) == f

    def test_shape_mismatch(self, p449):
        with pytest.raises(ShapeMismatch):
            compose(basis_mor(p449, 1, 2), basis_mor(p449, 1, 2))

    @pytest.mark.parametrize("operation", [compose, right_factor, left_factor])
    def test_other_parameters_or_ends_rejected(self, p449, p223, operation):
        # compose(g, f) needs target(f) = source(g), right_factor equal
        # targets and left_factor equal sources, all over one triple
        u12 = basis_mor(p449, 1, 2)
        with pytest.raises(ShapeMismatch):
            operation(u12, basis_mor(p223, 1, 2))
        with pytest.raises(ShapeMismatch):
            operation(u12, basis_mor(p449, 3, 4))

    @pytest.mark.parametrize(
        "operation, message",
        [
            (compose, "compose needs target(f) = source(g)"),
            (right_factor, "right_factor needs target(f) = target(t)"),
            (left_factor, "left_factor needs source(f) = source(t)"),
        ],
        ids=["compose", "right_factor", "left_factor"],
    )
    def test_end_messages_in_full(self, p449, operation, message):
        # u(1 -> 2) against u(3 -> 4): no end of one meets an end of the other
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            operation(basis_mor(p449, 1, 2), basis_mor(p449, 3, 4))

    def test_factor_and_sum_gates_compare_no_object_or_record(self, p449, monkeypatch):
        # the gates of right_factor, left_factor and direct_sum_mor compare
        # position tuples, and the parameter record by identity, so no
        # record equality runs
        calls = {SumObject: 0, FamilyParams: 0}
        for cls in calls:
            def counting(self, other, cls=cls, eq=cls.__eq__):
                calls[cls] += 1
                return eq(self, other)

            monkeypatch.setattr(cls, "__eq__", counting)
        f = basis_mor(p449, 1, 2)
        g, h = right_factor(f, f), left_factor(f, f)
        direct_sum_mor(f, basis_mor(p449, 3, 4))
        assert calls == {SumObject: 0, FamilyParams: 0}
        assert g.entries == h.entries == ((1,),)  # f factors through the identity
        assert f.source == indec(1) and calls[SumObject] == 1  # the counter counts

    def test_associativity_window(self, p223):
        p = p223
        for a in range(1, p.period + 1):
            for b in range(a, a + p.l):
                for c in range(b, b + p.l):
                    for e in range(c, c + p.l):
                        f, g, h = (
                            basis_mor(p, a, b),
                            basis_mor(p, b, c),
                            basis_mor(p, c, e),
                        )
                        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


class TestShift:
    def test_object_translation(self, p449):
        assert shift_obj(p449, indec(1), 1) == indec(13)

    def test_round_trip(self, p449):
        x = SumObject((1, 5, 5))
        assert shift_obj(p449, shift_obj(p449, x, 1), -1) == x

    def test_morphism_functorial(self, p449):
        f = basis_mor(p449, 4, 5)
        assert shift_mor(f, -1) == basis_mor(p449, 4 - 12, 5 - 12)
        g = basis_mor(p449, 5, 7)
        assert shift_mor(compose(g, f), 3) == compose(shift_mor(g, 3), shift_mor(f, 3))


class TestGenericShift:
    def test_dispatch_by_kind(self, p449):
        from angulated import ar_angle, shift, shift_angle

        assert shift(indec(1), 1, params=p449) == indec(13)
        assert shift(basis_mor(p449, 4, 5), -1) == basis_mor(p449, -8, -7)
        a = ar_angle(p449, 5)
        assert shift(a, 2) == shift_angle(a, 2)
        with pytest.raises(TypeError):
            shift(indec(1), 1)
        with pytest.raises(TypeError):
            shift("f1", 1)


class TestRadical:
    def test_basis_between_distinct_is_radical(self, p449):
        assert is_radical(basis_mor(p449, 1, 2))

    def test_identity_not_radical(self, p449):
        assert not is_radical(identity_mor(p449, indec(1)))

    def test_diagonal_block_detected(self, p449):
        x = SumObject((1, 1))
        f = Morphism(p449, x, x, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
        assert not is_radical(f)
        assert not block_iso_oracle(f)

    def test_radical_is_ideal_on_basis_pairs(self, p223):
        p = p223
        for a in range(1, p.period + 1):
            for b in range(a, a + p.l):
                for c in range(b, b + p.l):
                    f, g = basis_mor(p, a, b), basis_mor(p, b, c)
                    if is_radical(f) or is_radical(g):
                        assert is_radical(compose(g, f))


class TestSplitAndIso:
    def test_identity_all_true(self, p449):
        i = identity_mor(p449, SumObject((1, 2)))
        assert is_split_epi(i) and is_split_mono(i) and is_iso(i)

    def test_basis_all_false(self, p449):
        # Hom(f1+k, f1) = 0 at every distance k, so the candidate space for a
        # section or a retraction of a basis morphism is empty
        for k in range(1, p449.l):
            u = basis_mor(p449, 1, 1 + k)
            assert not is_split_epi(u)
            assert not is_split_mono(u)
            assert not is_iso(u)

    def test_projection_split_epi_not_iso(self, p449):
        src = SumObject((1, 2))
        f = Morphism(p449, src, indec(1), ((Fraction(1), Fraction(0)),))
        assert is_split_epi(f)
        assert not is_iso(f)

    def test_zero_object_morphisms(self, p449):
        z = identity_mor(p449, ZERO_OBJ)
        assert is_iso(z)
        to_zero = zero_mor(p449, indec(1), ZERO_OBJ)
        assert is_split_epi(to_zero)
        assert not is_split_mono(to_zero)

    def test_brute_force_iso_equivalence(self, p223):
        # is_split_epi and is_split_mono together iff iso, against the
        # independent block-rank oracle, over all small matrices
        p = p223
        objs = [indec(q) for q in range(1, p.l + 2)]
        objs += [SumObject(c) for c in combinations(range(1, p.l + 2), 2)]
        objs += [SumObject((q, q)) for q in range(1, p.l + 2)]
        values = (Fraction(0), Fraction(1), Fraction(-1))
        for src in objs:
            for tgt in objs:
                cells = [
                    (i, j)
                    for i, y in enumerate(tgt.summands)
                    for j, x in enumerate(src.summands)
                    if hom_dim(p, x, y)
                ]
                if len(cells) > 4:
                    continue
                for combo in product(values, repeat=len(cells)):
                    ents = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
                    for (i, j), v in zip(cells, combo):
                        ents[i][j] = v
                    f = Morphism(p, src, tgt, tuple(tuple(r) for r in ents))
                    both = is_split_epi(f) and is_split_mono(f)
                    assert both == is_iso(f) == block_iso_oracle(f)


class TestLocalEndomorphisms:
    def test_endo_space_dimension_one(self, p449):
        for q in (1, 7, 12):
            assert hom_dim(p449, q, q) == 1
            assert hom_dim(p449, q, q + p449.period) == 0

    def test_noninvertible_endo_is_zero(self, p449):
        x = indec(3)
        for c in (Fraction(0), Fraction(1), Fraction(-5, 7)):
            f = Morphism(p449, x, x, ((c,),))
            assert is_iso(f) == (c != 0)


class TestMorphismValidation:
    def test_support_rule_enforced(self, p449):
        with pytest.raises(ShapeMismatch):
            Morphism(p449, indec(1), indec(5), ((Fraction(1),),))
        with pytest.raises(ShapeMismatch):
            Morphism(p449, indec(5), indec(1), ((Fraction(1),),))

    def test_shape_enforced(self, p449):
        with pytest.raises(ShapeMismatch):
            Morphism(p449, indec(1), indec(2), ((Fraction(1), Fraction(0)),))
        # a short or long row anywhere raises, whether the rows are kept or converted
        src, tgt = SumObject((1, 2)), SumObject((2, 3))
        one, zero = Fraction(1), Fraction(0)
        for ents in (
            ((one, zero),),
            ((one, zero), (one,)),
            ((one, zero), (one, zero, zero)),
            ((1, 0), (1,)),
            [[1, 0], [1, 0, 0]],
            ((one, zero), [1]),
        ):
            with pytest.raises(ShapeMismatch, match="2 x 2"):
                Morphism(p449, src, tgt, ents)

    def test_int_and_list_entries_normalise(self, p449):
        src, tgt = SumObject((1, 2)), SumObject((2, 3))
        want = Morphism(
            p449, src, tgt,
            ((Fraction(1), Fraction(0)), (Fraction(-2), Fraction(1, 3))),
        )
        for ents in (
            ((1, 0), (-2, Fraction(1, 3))),
            [[1, 0], [-2, Fraction(1, 3)]],
            [(Fraction(1), Fraction(0)), (Fraction(-2), Fraction(1, 3))],
        ):
            got = Morphism(p449, src, tgt, ents)
            assert got == want and hash(got) == hash(want)
            assert type(got.entries) is tuple
            assert all(
                type(row) is tuple and all(type(e) is Fraction for e in row)
                for row in got.entries
            )

    def test_support_rule_on_both_paths(self, p449):
        # Fraction tuples are kept as given; ints and lists are converted.
        # l = 4, so Hom(x -> y) != 0 iff 0 <= y - x <= 3
        one, f5 = Fraction(1), indec(5)
        pair = SumObject((5, 1))  # sorted to (1, 5); Hom(1 -> 5) = 0
        for src, tgt, ents, cell in (
            (indec(1), f5, ((one,),), (0, 0)),
            (indec(1), f5, ((1,),), (0, 0)),
            (indec(1), f5, [[1]], (0, 0)),
            (pair, f5, ((Fraction(0), one),), None),
            (pair, f5, ((one, one),), (0, 0)),
            (pair, f5, ((2, 0),), (0, 0)),
            (SumObject((5, 9)), f5, ((one, one),), (0, 1)),  # Hom(9 -> 5) = 0
            (SumObject((5, 9)), f5, [[1, 1]], (0, 1)),
            (indec(1), SumObject((3, 5)), ((one,), (one,)), (1, 0)),  # two equal rows
            (indec(1), SumObject((3, 5)), [[1], [1]], (1, 0)),
        ):
            if cell is None:
                Morphism(p449, src, tgt, ents)  # only the allowed cell is set
                continue
            i, j = cell
            x, y = src.summands[j], tgt.summands[i]
            want = f"entry ({i}, {j}) nonzero but Hom({x} -> {y}) = 0"
            with pytest.raises(ShapeMismatch, match=f"^{re.escape(want)}$"):
                Morphism(p449, src, tgt, ents)

    def test_support_message_skips_the_allowed_cells_at_both_band_ends(self, p449):
        # l = 4: the cells at distance 3 and at distance 0 are allowed, so
        # the message names the third cell, whose Hom space vanishes
        one = Fraction(1)
        want = "entry (0, 2) nonzero but Hom(9 -> 5) = 0"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(want)}$"):
            Morphism(p449, SumObject((2, 5, 9)), indec(5), ((one, one, one),))

    def test_first_failing_cell_decides_the_error(self, p449):
        # Cells are scanned row by row: an inexact cell raises TypeError and
        # a nonzero cell whose Hom space vanishes ShapeMismatch, whichever
        # comes first.  An int cell is exact, so it is converted and the
        # violation after it still raises ShapeMismatch.  Over (3, 9) ->
        # (5, 9), only the cells (0, 0) and (1, 1) may be nonzero; at one
        # cell the type is checked first.
        one, sq = Fraction(1), SumObject((3, 9))
        for tgt, ents, error, cell in (
            ((5,), ((0.5, one),), TypeError, "(0, 0)"),
            ((5,), ((2, one),), ShapeMismatch, "(0, 1)"),
            ((5, 9), ((0.5, 0), (one, one)), TypeError, "(0, 0)"),
            ((5, 9), ((one, one), (0, 0.5)), ShapeMismatch, "(0, 1)"),
            ((5, 9), ((one, Fraction(0)), (0.5, one)), TypeError, "(1, 0)"),  # type first
        ):
            with pytest.raises(error, match=re.escape(f"entry {cell}")):
                Morphism(p449, sq, SumObject(tgt), ents)
        # within one row: the violation at (0, 0) comes before the float
        with pytest.raises(ShapeMismatch, match=re.escape("entry (0, 0)")):
            Morphism(p449, SumObject((1, 3, 5)), indec(5), ((one, 0.5, one),))

    @pytest.mark.parametrize(
        "ents, error, message",
        [
            (((1, 0),), ShapeMismatch, "entry matrix must be 2 x 2"),
            (((1, 0), (0,)), ShapeMismatch, "entry matrix must be 2 x 2"),
            (((1, 0), (0.5, 1)), TypeError,
             "entry (1, 0) must be an int or a Fraction, got 0.5"),
        ],
        ids=["row-count", "row-length", "inexact-cell"],
    )
    def test_messages_in_full(self, p449, ents, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Morphism(p449, SumObject((1, 2)), SumObject((2, 3)), ents)

    def test_inexact_entries_rejected(self, p449):
        from decimal import Decimal

        from angulated.core import scale

        for bad in (0.1, 1.0, Decimal("0.1"), "1/2"):
            with pytest.raises(TypeError, match=r"entry \(0, 1\)"):
                Morphism(p449, SumObject((1, 2)), indec(2), ((Fraction(1), bad),))
            want = f"^scalar must be an int or a Fraction, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=want):
                scale(basis_mor(p449, 1, 2), bad)
        assert scale(basis_mor(p449, 1, 2), 3).entries == ((Fraction(3),),)

    def test_zero_morphisms_exist_everywhere(self, p449):
        f = zero_mor(p449, indec(5), indec(1))
        assert f.is_zero

    def test_compose_is_bilinear(self, p449):
        from angulated.core import scale

        from oracles import add_mor

        f1, f2 = basis_mor(p449, 1, 2), scale(basis_mor(p449, 1, 2), Fraction(3, 7))
        g = scale(basis_mor(p449, 2, 4), -2)
        assert compose(g, add_mor(f1, f2)) == add_mor(compose(g, f1), compose(g, f2))
        assert compose(g, f2).entries[0][0] == Fraction(-6, 7)

    def test_factor_solvers(self, p449):
        # u(1->3) factors through u(1->2); u(1->2) does not factor through u(1->3)
        u12, u13, u23 = (
            basis_mor(p449, 1, 2),
            basis_mor(p449, 1, 3),
            basis_mor(p449, 2, 3),
        )
        g = left_factor(u12, u13)
        assert g is not None and compose(g, u12) == u13
        assert right_factor(u23, u13) is not None
        assert left_factor(u13, u12) is None


def _ones(p, src, tgt):
    """Coefficient one on every cell the distance rule keeps."""
    return Morphism(p, src, tgt, tuple(
        tuple(hom_dim(p, x, y) for x in src.summands) for y in tgt.summands
    ))


class TestFactorWork:
    """A factorisation is one small system per column of g (per row on the left)."""

    def test_right_factor_solves_one_system_per_column(self, p449, solves):
        a, b, c = SumObject((0, 1, 1, 3)), SumObject((1, 2, 3)), SumObject((2, 3, 4, 5))
        f = _ones(p449, b, c)
        t = compose(f, _ones(p449, a, b))
        g = right_factor(f, t)
        assert g is not None and compose(f, g) == t
        assert len(solves) == len(a)
        assert max(solves) <= len(b)

    def test_left_factor_solves_one_system_per_row(self, p449, solves):
        a, b, c = SumObject((0, 1, 2)), SumObject((1, 2, 3)), SumObject((2, 3, 3, 4))
        f = _ones(p449, a, b)
        t = compose(_ones(p449, b, c), f)
        g = left_factor(f, t)
        assert g is not None and compose(g, f) == t
        assert len(solves) == len(c)
        assert max(solves) <= len(b)

    def test_no_factor_stops_at_the_first_inconsistent_column(self, p449, solves):
        # column 0 of f o g is zero at target 2 whatever g is, but t is not
        f = Morphism(p449, indec(1), SumObject((1, 2)), ((1,), (0,)))
        t = Morphism(p449, SumObject((1, 2)), SumObject((1, 2)), ((0, 0), (1, 0)))
        assert right_factor(f, t) is None
        assert solves == [1]
