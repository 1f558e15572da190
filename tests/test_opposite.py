"""The opposite category as an oracle: each right-hand construction and
checker agrees, through `oracles.op`, with its left-hand mirror.

pos -> -pos is an isomorphism of the category with its opposite, so a map
is right almost split in a spec exactly when its op is left almost split
in the op of the spec, and op keeps angles, their exactness, AR angles
and wideness.  The left-hand checker (`is_left_almost_split`, over
`core._left_solve`) is thus checked against the right-hand one, which
shares no solver with it; `tests/test_properties.py` does the same for
`right_factor` and `left_factor`.  Every sweep runs at the 12 triples of
`admissible(12)`.
"""

from fractions import Fraction

from angulated import (
    Morphism,
    SumObject,
    ar_angle,
    ar_angle_in,
    basis_mor,
    check_hom_exactness,
    enumerate_wide,
    is_ar_angle,
    is_left_almost_split,
    is_right_almost_split,
    min_angle,
    validate_params,
)

from oracles import admissible, op

PARAMS = [validate_params(*t) for t in admissible(12)]
SPECS = [(p, spec) for p in PARAMS for spec in enumerate_wide(p)]


def test_wide_family_is_closed_under_op():
    for p in PARAMS:
        specs = enumerate_wide(p)
        assert sorted(op(s).indices for s in specs) == sorted(s.indices for s in specs)
        assert all(op(op(s)) == s for s in specs)


def test_almost_split_checkers_agree_through_op():
    # u(q -> pos) for each member pos and each other q of its Hom window
    cases = 0
    for p, spec in SPECS:
        dual = op(spec)
        for pos in spec.indices:
            for q in range(pos - p.l + 1, pos):
                xi = basis_mor(p, q, pos)
                assert is_right_almost_split(spec, xi) == is_left_almost_split(dual, op(xi))
                cases += 1
    assert cases == 5720


def test_op_of_every_minimal_angle_is_exact():
    angles = 0
    for p in PARAMS:
        for i in range(1, p.period + 1):
            for gap in range(1, p.l):
                a = min_angle(basis_mor(p, i, i + gap))
                assert op(op(a)) == a
                assert check_hom_exactness(op(a)).ok
                angles += 1
    assert angles == 254


def test_op_of_every_ar_angle_is_exact():
    # the ambient AR angles, and the subcategory AR angle at each member,
    # whose op is the AR angle of the op spec that starts at -pos
    for p in PARAMS:
        for pos in range(1, p.period + 1):
            assert check_hom_exactness(op(ar_angle(p, pos))).ok
    pairs = 0
    for p, spec in SPECS:
        dual = op(spec)
        for pos in spec.indices:
            a = op(ar_angle_in(spec, pos))
            assert check_hom_exactness(a).ok and is_ar_angle(dual, a)
            assert a.objects[0].summands == (-pos,)
            pairs += 1
    assert pairs == 2771


def test_op_is_an_involution_on_maps_with_repeated_positions():
    p = PARAMS[0]
    f = Morphism(p, SumObject((1, 1, 2)), SumObject((2, 3)), ((1, 2, 3), (0, 0, Fraction(1, 2))))
    assert op(f).source == SumObject((-3, -2)) and op(f).target == SumObject((-2, -1, -1))
    assert op(f).entries == ((Fraction(1, 2), 3), (0, 2), (0, 1))
    assert op(op(f)) == f
