"""Property-based checks over randomly drawn positions and subsets."""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings, strategies as st

from angulated import (
    Angle,
    Morphism,
    NotMember,
    SubcatSpec,
    SumObject,
    ar_angle,
    ar_angle_in,
    basis_mor,
    check_hom_exactness,
    check_d_cokernel,
    check_d_exact,
    check_d_kernel,
    compose,
    cover,
    d_cokernel,
    d_exact_seq,
    d_kernel,
    direct_sum,
    enumerate_wide,
    extend,
    hom_dim,
    is_ar_angle,
    is_cover,
    is_left_almost_split,
    is_precover,
    is_right_almost_split,
    is_right_minimal,
    is_split_epi,
    is_split_mono,
    is_wide,
    is_wide_oracle,
    join_pos,
    min_angle,
    rotate_left,
    rotate_right,
    shift_angle,
    shift_mor,
    shift_obj,
    split_pos,
    theorem_b_check,
    trivial_angle,
    validate_params,
    zero_mor,
)
from angulated.angles import FLevelChain, _degenerate_angle
from angulated.core import direct_sum_mor, left_factor, right_factor, scale
from angulated.verify import _is_shift

from oracles import (
    admissible,
    angle_composite_failure,
    block_iso_oracle,
    d_cokernel_reference,
    d_exact_reference,
    d_kernel_reference,
    extend_reference,
    extended_chain,
    factor_reference,
    hom_exactness_reference,
    hom_from_inexact_slots,
    hom_into_inexact_slots,
    left_almost_split_reference,
    matching_connector,
    op,
    precover_reference,
    right_almost_split_reference,
    right_minimal_reference,
    split_epi_reference,
    split_mono_reference,
    ties_reordered,
    with_map_zeroed,
)

TRIPLES = [(2, 2, 3), (2, 3, 4), (4, 4, 9), (2, 4, 5), (4, 2, 5), (6, 2, 7)]
PARAMS = [validate_params(*t) for t in TRIPLES]

params_st = st.sampled_from(PARAMS)
small_params_st = st.sampled_from(PARAMS[:3])
factor_params_st = st.sampled_from([PARAMS[1], PARAMS[2]])
rationals_st = st.fractions(-3, 3, max_denominator=4)


def _draw_sum(data, p):
    """A sum of 1-3 vertices close enough together to carry maps."""
    positions = data.draw(st.lists(st.integers(0, 2 * p.l), min_size=1, max_size=3))
    return SumObject(tuple(positions))


def _draw_mor(data, p, src, tgt, values=rationals_st):
    ents = tuple(
        tuple(data.draw(values) if hom_dim(p, x, y) else 0 for x in src.summands)
        for y in tgt.summands
    )
    return Morphism(p, src, tgt, ents)


@settings(deadline=None)
@given(small_params_st, st.data())
def test_compose_is_the_masked_matrix_product(p, data):
    # Entries have denominators up to 12, and one cell is forced to cancel:
    # x0 in a, y1 and y2 in b and z0 = x0 + t in c, with x0 <= y1, y2 <= z0
    # and t <= l - 1, so both products through y1 and y2 survive the mask;
    # f's column at x0 is nonzero only at y1 and y2, and the two products
    # at (z0, x0) are nonzero and sum to zero.
    values = st.fractions(-3, 3, max_denominator=12)
    nonzero = values.filter(bool)
    x0, t = data.draw(st.integers(0, p.l)), data.draw(st.integers(0, p.l - 1))
    y1, y2 = (x0 + data.draw(st.integers(0, t)) for _ in range(2))
    a, b, c = (
        SumObject(_draw_sum(data, p).summands + forced)
        for forced in ((x0,), (y1, y2), (x0 + t,))
    )
    ia, iz = a.summands.index(x0), c.summands.index(x0 + t)
    k1 = b.summands.index(y1)
    k2 = b.summands.index(y2, k1 + 1 if y2 == y1 else 0)
    fents = [list(row) for row in _draw_mor(data, p, a, b, values).entries]
    gents = [list(row) for row in _draw_mor(data, p, b, c, values).entries]
    g1, g2, f1 = (data.draw(nonzero) for _ in range(3))
    gents[iz][k1], gents[iz][k2] = g1, g2
    for row in fents:
        row[ia] = 0
    fents[k1][ia], fents[k2][ia] = f1, -g1 * f1 / g2
    f, g = Morphism(p, a, b, fents), Morphism(p, b, c, gents)
    want = tuple(
        tuple(
            sum((g.entries[i][k] * f.entries[k][j] for k in range(len(b))), Fraction(0))
            if hom_dim(p, x, z) else 0
            for j, x in enumerate(a.summands)
        )
        for i, z in enumerate(c.summands)
    )
    got = compose(g, f).entries
    assert got == want
    assert got[iz][ia] == 0
    assert all(type(e) is Fraction for row in got for e in row)


@given(params_st, st.integers(-10 ** 6, 10 ** 6))
def test_position_views_round_trip(p, pos):
    s, i = split_pos(p, pos)
    assert 1 <= i <= p.period
    assert join_pos(p, s, i) == pos


@given(params_st, st.integers(-50, 50), st.integers(-20, 20), st.integers(-3, 3))
def test_hom_dim_shift_equivariance(p, x, gap, r):
    y = x + gap
    assert hom_dim(p, x, y) == hom_dim(p, x + r * p.period, y + r * p.period)


@given(params_st, st.integers(-20, 20), st.data())
def test_compose_associative_on_basis_chains(p, a, data):
    b = a + data.draw(st.integers(0, p.l - 1))
    c = b + data.draw(st.integers(0, p.l - 1))
    e = c + data.draw(st.integers(0, p.l - 1))
    f, g, h = basis_mor(p, a, b), basis_mor(p, b, c), basis_mor(p, c, e)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@given(params_st, st.integers(-15, 15), st.data())
@settings(max_examples=40, deadline=None)
def test_min_angle_shape_and_exactness(p, i, data):
    delta = data.draw(st.integers(1, p.l - 1))
    scalar = data.draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
    mu = basis_mor(p, i, i + delta)
    a = min_angle(scale(mu, scalar))
    gaps = [y.summands[0] - x.summands[0] for x, y in zip(a.objects, a.objects[1:])]
    assert gaps == [delta if k % 2 == 0 else p.l - delta for k in range(p.d + 1)]
    assert a.objects[-1].summands[0] - a.objects[0].summands[0] == p.m - 1 + delta
    assert check_hom_exactness(a).ok
    assert rotate_left(rotate_right(a)) == a
    assert min_angle(shift_mor(scale(mu, scalar), 1)) == shift_angle(a, 1)


@given(params_st, st.integers(-12, 12), st.data())
@settings(max_examples=25, deadline=None)
def test_full_rotation_cycle_is_shift(p, i, data):
    delta = data.draw(st.integers(1, p.l - 1))
    a = min_angle(basis_mor(p, i, i + delta))
    left = a
    for _ in range(p.d + 2):
        left = rotate_left(left)
    assert left == shift_angle(a, 1)
    right = a
    for _ in range(p.d + 2):
        right = rotate_right(right)
    assert right == shift_angle(a, -1)


@given(small_params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_classification_matches_oracle_on_random_subsets(p, data):
    indices = data.draw(
        st.sets(st.integers(1, p.period), max_size=p.period).map(tuple)
    )
    spec = SubcatSpec(p, indices)
    assert is_wide(spec) == is_wide_oracle(spec)


@given(small_params_st, st.data())
@settings(max_examples=30, deadline=None)
def test_cover_outputs_pass_cover_oracle(p, data):
    spec = data.draw(st.sampled_from(enumerate_wide(p)))
    pos = data.draw(st.integers(1 - p.period, 2 * p.period))
    result = cover(spec, pos)
    assert len(result.source) <= 1
    assert is_cover(spec, result.mor)


@given(small_params_st, st.data())
@settings(max_examples=30, deadline=None)
def test_subcategory_ar_angles_and_equivalence(p, data):
    wides = [s for s in enumerate_wide(p) if s.indices]
    spec = data.draw(st.sampled_from(wides))
    index = data.draw(st.sampled_from(spec.indices))
    shift = data.draw(st.integers(-1, 1))
    pos = join_pos(p, shift, index)
    a = ar_angle_in(spec, pos)
    assert is_ar_angle(spec, a)
    assert a.objects[-1].summands[0] == pos
    assert theorem_b_check(spec, pos).ok


@given(params_st, st.integers(-12, 12))
@settings(max_examples=30, deadline=None)
def test_ambient_ar_angle_ends_at_its_vertex(p, pos):
    a = ar_angle(p, pos)
    assert a.objects[-1].summands[0] == pos
    assert ar_angle(p, pos + p.period) == shift_angle(a, 1)


@given(factor_params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_factor_solvers_recompose_composites(p, data):
    a, b, c = (_draw_sum(data, p) for _ in range(3))
    f, g = _draw_mor(data, p, b, c), _draw_mor(data, p, a, b)
    h = right_factor(f, compose(f, g))
    assert h is not None and compose(f, h) == compose(f, g)
    f, g = _draw_mor(data, p, a, b), _draw_mor(data, p, b, c)
    h = left_factor(f, compose(g, f))
    assert h is not None and compose(h, f) == compose(g, f)


@given(factor_params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_right_minimal_rejects_non_invertible_fixers(p, data):
    a, c = _draw_sum(data, p), _draw_sum(data, p)
    xi = _draw_mor(data, p, a, c)
    cells = [
        (i, j)
        for i, y in enumerate(a.summands)
        for j, x in enumerate(a.summands)
        if hom_dim(p, x, y)
    ]
    assume(len(cells) <= 6)
    for combo in product((0, 1, -1), repeat=len(cells)):
        ents = [[0] * len(a) for _ in range(len(a))]
        for (i, j), v in zip(cells, combo):
            ents[i][j] = v
        phi = Morphism(p, a, a, tuple(map(tuple, ents)))
        if compose(xi, phi) == xi and not block_iso_oracle(phi):
            assert not is_right_minimal(xi)
            return


def _perturbed_chain(data, p, objects, maps):
    """The chain as given, or with one object or one map redrawn at random.

    A redrawn object is a sum of 0-2 vertices near the window, and the maps
    on either side of it are redrawn too, so most perturbed chains are not
    exact under some Hom functor.
    """
    objects, maps = list(objects), list(maps)
    k = data.draw(st.integers(0, len(objects)))
    if k < len(objects):
        if data.draw(st.booleans()):
            objects[k] = SumObject(tuple(sorted(data.draw(st.lists(
                st.integers(1 - p.l, p.period + p.l), max_size=2)))))
        for m in (k - 1, k):
            if 0 <= m < len(maps):
                maps[m] = _draw_mor(data, p, objects[m], objects[m + 1])
    return tuple(objects), tuple(maps)


def _window_pair(data, p):
    i = data.draw(st.integers(1, p.period - 1))
    j = data.draw(st.integers(i + 1, min(i + p.l - 1, p.period)))
    return i, j


@given(small_params_st, st.data())
@settings(max_examples=150, deadline=None)
def test_d_cokernel_matches_reversed_transposed_reference(p, data):
    i, j = _window_pair(data, p)
    chain, mu = d_cokernel(p, i, j), basis_mor(p, i, j)
    objects, maps = _perturbed_chain(
        data, p, (mu.source,) + chain.objects, (mu,) + chain.maps
    )
    chain = FLevelChain(p, "cokernel", objects[1:], maps[1:])
    assert check_d_cokernel(chain, maps[0]) == d_cokernel_reference(chain, maps[0])


@given(small_params_st, st.data())
@settings(max_examples=150, deadline=None)
def test_d_kernel_matches_hom_from_reference(p, data):
    i, j = _window_pair(data, p)
    chain, mu = d_kernel(p, i, j), basis_mor(p, i, j)
    objects, maps = _perturbed_chain(
        data, p, chain.objects + (mu.target,), chain.maps + (mu,)
    )
    chain = FLevelChain(p, "kernel", objects[:-1], maps[:-1])
    assert check_d_kernel(chain, maps[-1]) == d_kernel_reference(chain, maps[-1])


@given(small_params_st, st.data())
@settings(max_examples=150, deadline=None)
def test_d_exact_matches_two_sided_reference(p, data):
    chain = d_exact_seq(p, *_window_pair(data, p))
    chain = FLevelChain(p, "exact", *_perturbed_chain(data, p, chain.objects, chain.maps))
    assert check_d_exact(chain) == d_exact_reference(chain)


def _draw_block(data, p):
    """A minimal or trivial angle near the window, possibly shifted.

    Positions come from a range of width about 2l, so blocks drawn for one
    sum often share positions.
    """
    x = data.draw(st.integers(0, p.l))
    c = data.draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
    if data.draw(st.booleans()):
        dist = data.draw(st.integers(1, p.l - 1))
        a = min_angle(scale(basis_mor(p, x, x + dist), c))
    else:
        a = trivial_angle(p, _draw_sum(data, p), c)
    return shift_angle(a, data.draw(st.integers(-1, 1)))


@given(params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_direct_sum_is_the_pairwise_fold(p, data):
    blocks = [_draw_block(data, p) for _ in range(data.draw(st.integers(1, 4)))]
    fold = blocks[0]
    for b in blocks[1:]:
        fold = direct_sum(fold, b)
    assert direct_sum(*blocks) == fold


@given(small_params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_direct_sum_mor_is_the_pairwise_fold(p, data):
    mors = []
    for _ in range(data.draw(st.integers(1, 4))):
        src, tgt = _draw_sum(data, p), _draw_sum(data, p)
        mors.append(_draw_mor(data, p, src, tgt))
    fold = mors[0]
    for g in mors[1:]:
        fold = direct_sum_mor(fold, g)
    assert direct_sum_mor(*mors) == fold


_SCALARS_ST = st.sampled_from(
    sorted({Fraction(n, q) for n in range(-4, 5) if n for q in (1, 2, 3)})
)


def _draw_connector(data, p, periods=1):
    """1-3 matched pairs s -> s + D (0 <= D <= l - 1) with scalars n/q, and
    0-2 unmatched summands on each side; positions lie within `periods`
    periods of 0 and may repeat, and slots of equal position come in any
    order, matched or not."""
    pos_st = st.integers(-periods * p.period, periods * p.period)
    pairs = [
        (s, s + data.draw(st.integers(0, p.l - 1)), data.draw(_SCALARS_ST))
        for s in data.draw(st.lists(pos_st, min_size=1, max_size=3))
    ]
    lone = st.lists(pos_st, max_size=2)
    delta = matching_connector(p, pairs, data.draw(lone), data.draw(lone))
    return ties_reordered(
        delta,
        data.draw(st.permutations(range(len(delta.target)))),
        data.draw(st.permutations(range(len(delta.source)))),
    )


@given(params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_extend_realises_every_partial_matching(p, data):
    delta = _draw_connector(data, p)
    a = extend(delta)
    assert a.connecting == delta
    assert check_hom_exactness(a).ok


# the five query-session triples, and the same led by (2, 2, 3)
SESSION_PARAMS = [
    validate_params(*t) for t in ((4, 4, 9), (2, 3, 4), (6, 3, 10), (10, 2, 11), (2, 6, 7))
]
P223_AND_SESSION_PARAMS = [PARAMS[0], *SESSION_PARAMS]


@given(st.sampled_from(P223_AND_SESSION_PARAMS), st.sampled_from([0, 1, 3]), st.data())
@settings(max_examples=120, deadline=None)
def test_extend_is_the_summed_block_construction(p, periods, data):
    # (2,2,3) and the five query-session triples; with every position at 0
    # (periods = 0) equal positions meet on both sides, and distance-0
    # cells and unmatched summands are drawn at every span
    delta = _draw_connector(data, p, periods)
    assert extend(delta) == extend_reference(delta)


def _draw_chain(data, p):
    """Objects and maps of a chain that may not be an angle.

    Its d + 2 gaps, the last one the connector's into shift(object 0, 1),
    lie in [0, l - 1] and sum to one period, so every map may be nonzero
    and a composite survives where two gaps sum to less than l.  Each
    object is 0-2 vertices at its place or one past it.  A quarter of the
    maps are zero, the others have a nonzero rational at every cell the
    support rule allows.
    """
    # gap k is the count of k among l - 1 units per gap, shuffled, cut to a period
    units = data.draw(st.permutations([k for k in range(p.d + 2) for _ in range(p.l - 1)]))
    units, place = units[:p.period], data.draw(st.integers(-p.period, p.period))
    objects = []
    for k in range(p.d + 2):
        size = data.draw(st.sampled_from([1, 2, 0]))
        objects.append(SumObject(tuple(data.draw(
            st.lists(st.integers(place, place + 1), min_size=size, max_size=size)))))
        place += units.count(k)
    targets = objects[1:] + [shift_obj(p, objects[0], 1)]
    maps = tuple(
        zero_mor(p, src, tgt) if data.draw(st.integers(0, 3)) == 0
        else Morphism(p, src, tgt, tuple(
            tuple(data.draw(_SCALARS_ST) if hom_dim(p, x, y) else 0 for x in src.summands)
            for y in tgt.summands
        ))
        for src, tgt in zip(objects, targets)
    )
    return tuple(objects), maps


def _draw_angle_parts(data, p):
    """Objects and maps of a random chain half of the time, otherwise of an
    angle from `min_angle`, `extend`, `trivial_angle` or `_degenerate_angle`
    with one or two maps zeroed or scaled, which is still an angle."""
    if data.draw(st.booleans()):
        return _draw_chain(data, p)
    kind = data.draw(st.sampled_from(["min", "extend", "trivial", "degenerate"]))
    i = data.draw(st.integers(-p.period, p.period))
    if kind == "min":
        a = min_angle(basis_mor(p, i, i + data.draw(st.integers(0, p.l - 1))))
    elif kind == "extend":
        a = extend(_draw_connector(data, p))
    elif kind == "trivial":
        x = SumObject(tuple(data.draw(st.lists(st.integers(i, i + p.l), max_size=2))))
        a = trivial_angle(p, x, data.draw(_SCALARS_ST))
    else:
        a = _degenerate_angle(p, i)
    maps = list(a.maps)
    ks = st.lists(st.integers(0, len(maps) - 1), min_size=1, max_size=2, unique=True)
    for k in data.draw(ks):
        maps[k] = scale(maps[k], data.draw(st.one_of(st.just(0), _SCALARS_ST)))
    return a.objects, tuple(maps)


@given(st.sampled_from(SESSION_PARAMS), st.data())
@settings(max_examples=300, deadline=None)
def test_angle_validation_matches_the_every_composite_reference(p, data):
    # Angle builds no composite with a zero factor, the reference builds
    # every one: each chain fails in both or in neither, with one message
    objects, maps = _draw_angle_parts(data, p)
    want = angle_composite_failure(objects, maps)
    try:
        Angle(p, objects, maps)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == want


@given(params_st, st.data())
@settings(max_examples=80, deadline=None)
def test_hom_exactness_matches_shifted_morphism_reference(p, data):
    # about half of the drawn angles have one map zeroed, and most of those
    # fail somewhere, so the failures tuples are compared, not just `ok`
    a = extend(_draw_connector(data, p))
    k = data.draw(st.integers(0, 2 * len(a.maps) - 1))
    if k < len(a.maps):
        maps = list(a.maps)
        maps[k] = zero_mor(p, maps[k].source, maps[k].target)
        a = Angle(p, a.objects, tuple(maps))
    assert check_hom_exactness(a).failures == hom_exactness_reference(a)


@given(st.sampled_from([validate_params(6, 3, 10), validate_params(10, 2, 11)]), st.data())
@settings(max_examples=60, deadline=None)
def test_hom_exactness_matches_reference_at_session_shapes(p, data):
    # the large-d triples of the query session, with positions over +-3
    # periods as it draws them: summands lie far apart and most windows
    # are empty; half of the drawn angles have one map zeroed
    a = extend(_draw_connector(data, p, periods=3))
    if data.draw(st.booleans()):
        a = with_map_zeroed(a, data.draw(st.integers(0, len(a.maps) - 1)))
    assert check_hom_exactness(a).failures == hom_exactness_reference(a)


@given(params_st, st.data())
@settings(max_examples=60, deadline=None)
def test_hom_into_t_fails_where_hom_from_t_minus_l_plus_1_does(p, data):
    # Hom(-, t) keeps the positions [t - l + 1, t] that Hom(t - l + 1, -)
    # keeps, so the quiver-walking references agree slot by slot, and the
    # covariant oracle moved by l - 1 is the contravariant reference; on
    # minimal and AR angles, as built or with one map zeroed or scaled
    i = data.draw(st.integers(-p.period, 2 * p.period))
    if data.draw(st.booleans()):
        a = ar_angle(p, i)
    else:
        a = min_angle(basis_mor(p, i, i + data.draw(st.integers(1, p.l - 1))))
    k = data.draw(st.integers(0, len(a.maps) - 1))
    c = data.draw(st.sampled_from([1, 0, 2, -1]))
    if c == 0:
        a = with_map_zeroed(a, k)
    elif c != 1:
        a = Angle(p, a.objects, a.maps[:k] + (scale(a.maps[k], c),) + a.maps[k + 1:])
    objects, maps = extended_chain(a)
    positions = [q for o in a.objects for q in o.summands]
    ts = range(min(positions) - p.period, max(positions) + p.period + p.l)
    for t in ts:
        assert hom_into_inexact_slots(p, objects, maps, t, range(len(objects))) == (
            hom_from_inexact_slots(p, objects, maps, t - p.l + 1, range(len(objects)))
        )
    # the oracle reports the middle copy, objects d+2..2d+3 of the
    # extension, at the test vertices whose windows meet it
    n = len(a.objects)
    into = [
        (t, s - n) for t in range(min(positions), max(positions) + p.l)
        for s in hom_into_inexact_slots(p, objects, maps, t, range(n, 2 * n))
    ]
    moved = [(t + p.l - 1, s) for t, s in check_hom_exactness(a).failures]
    assert moved == into


@given(factor_params_st, st.data())
@settings(max_examples=100, deadline=None)
def test_split_both_ways_is_the_block_iso_oracle(p, data):
    # sums of up to 4 vertices; the target is a permutation of the source
    # half of the time, so isomorphisms and near misses are both drawn
    positions = data.draw(st.lists(st.integers(0, p.l), min_size=1, max_size=4))
    src = SumObject(tuple(positions))
    if data.draw(st.booleans()):
        tgt = src
    else:
        tgt = SumObject(tuple(data.draw(
            st.lists(st.integers(0, p.l), min_size=1, max_size=4))))
    f = _draw_mor(data, p, src, tgt)
    assert (is_split_epi(f) and is_split_mono(f)) == block_iso_oracle(f)


def _draw_angle(data, p):
    """A minimal angle on a scaled basis morphism, an AR angle, or `extend`
    of a partial-matching connector, within a period or two of the window."""
    kind = data.draw(st.sampled_from(["min", "ar", "extend"]))
    if kind == "extend":
        return extend(_draw_connector(data, p))
    i = data.draw(st.integers(-p.period, 2 * p.period))
    if kind == "ar":
        return ar_angle(p, i)
    c = data.draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 5)]))
    return min_angle(scale(basis_mor(p, i, i + data.draw(st.integers(1, p.l - 1))), c))


@given(params_st, st.data())
@settings(max_examples=150, deadline=None)
def test_is_shift_is_equality_with_the_shifted_angle(p, data):
    a = _draw_angle(data, p)
    r = data.draw(st.integers(-2, 2))
    want = shift_angle(a, r)
    how = data.draw(st.sampled_from(["same", "other r", "map scaled", "other angle", "other triple"]))
    if how == "same":
        b = want
    elif how == "other r":
        b = shift_angle(a, data.draw(st.integers(-2, 2).filter(lambda s: s != r)))
    elif how == "map scaled":
        # min and AR angles have 1 x 1 maps, so one entry changes there
        k = data.draw(st.integers(0, len(a.maps) - 1))
        maps = list(want.maps)
        maps[k] = scale(maps[k], 2)
        b = Angle(p, want.objects, tuple(maps))
    elif how == "other angle":
        b = shift_angle(_draw_angle(data, p), r)
    else:
        q = data.draw(st.sampled_from([q for q in PARAMS if q != p]))
        b = shift_angle(_draw_angle(data, q), r)
    assert _is_shift(b, a, r) == (b == want)


@given(factor_params_st, st.data())
@settings(max_examples=150, deadline=None)
def test_split_tests_match_the_factor_references(p, data):
    # one side keeps some summands of the other half of the time, so split
    # epis and monos are drawn as well as maps that split neither way
    x = _draw_sum(data, p)
    if data.draw(st.booleans()):
        kept = data.draw(st.sets(st.integers(0, len(x) - 1), min_size=1))
        y = SumObject(tuple(x.summands[k] for k in kept))
    else:
        y = _draw_sum(data, p)
    src, tgt = (x, y) if data.draw(st.booleans()) else (y, x)
    f = _draw_mor(data, p, src, tgt)
    assert is_split_epi(f) == split_epi_reference(f)
    assert is_split_mono(f) == split_mono_reference(f)


def _draw_wide_sum(data, p, base):
    """A sum of 1-6 vertices in [base, base + 2(l - 1)]; positions may repeat."""
    positions = data.draw(
        st.lists(st.integers(base, base + 2 * (p.l - 1)), min_size=1, max_size=6)
    )
    return SumObject(tuple(positions))


@given(st.sampled_from(SESSION_PARAMS), st.data())
@settings(max_examples=100, deadline=None)
def test_factors_match_the_whole_cell_reference(p, data):
    # half of the targets are composites, so a factor exists for those
    base = data.draw(st.integers(-3 * p.period, 3 * p.period))
    a, b, c = (_draw_wide_sum(data, p, base) for _ in range(3))
    composite = data.draw(st.booleans())
    f = _draw_mor(data, p, b, c)
    t = compose(f, _draw_mor(data, p, a, b)) if composite else _draw_mor(data, p, a, c)
    got, want = right_factor(f, t), factor_reference(f, t, "right")
    assert got == want
    assert composite <= (got is not None)
    f = _draw_mor(data, p, a, b)
    t = compose(_draw_mor(data, p, b, c), f) if composite else _draw_mor(data, p, a, c)
    got, want = left_factor(f, t), factor_reference(f, t, "left")
    assert got == want
    assert composite <= (got is not None)


@given(st.sampled_from([validate_params(*t) for t in admissible(12)]), st.data())
@settings(max_examples=150, deadline=None)
def test_right_and_left_factors_agree_through_op(p, data):
    # op(g) is a left factor of op(t) along op(f) exactly when g is a right
    # factor of t through f; factors are not unique, so each side is judged
    # by its equation.  Half of the targets are composites, which factor.
    base = data.draw(st.integers(-2 * p.period, 2 * p.period))
    a, b, c = (_draw_wide_sum(data, p, base) for _ in range(3))
    composite = data.draw(st.booleans())
    f = _draw_mor(data, p, b, c)
    t = compose(f, _draw_mor(data, p, a, b)) if composite else _draw_mor(data, p, a, c)
    g, h = right_factor(f, t), left_factor(op(f), op(t))
    assert (g is None) == (h is None) and composite <= (g is not None)
    if g is not None:
        assert compose(op(g), op(f)) == op(t) and compose(h, op(f)) == op(t)
    f = _draw_mor(data, p, a, b)
    t = compose(_draw_mor(data, p, b, c), f) if composite else _draw_mor(data, p, a, c)
    g, h = left_factor(f, t), right_factor(op(f), op(t))
    assert (g is None) == (h is None) and composite <= (g is not None)
    if g is not None:
        assert compose(op(f), op(g)) == op(t) and compose(op(f), h) == op(t)


@given(st.sampled_from(SESSION_PARAMS), st.data())
@settings(max_examples=100, deadline=None)
def test_right_minimal_matches_the_whole_system_nullspace(p, data):
    # a target that keeps some source summands makes minimal maps likelier
    base = data.draw(st.integers(-3 * p.period, 3 * p.period))
    a = _draw_wide_sum(data, p, base)
    if data.draw(st.booleans()):
        kept = data.draw(st.sets(st.integers(0, len(a) - 1), min_size=1))
        c = SumObject(tuple(a.summands[k] for k in kept))
    else:
        c = _draw_wide_sum(data, p, base)
    xi = _draw_mor(data, p, a, c)
    assert is_right_minimal(xi) == right_minimal_reference(xi)


def _outcome(check, spec, xi):
    try:
        return check(spec, xi)
    except NotMember:
        return NotMember


@given(st.sampled_from(P223_AND_SESSION_PARAMS), st.data())
@settings(max_examples=150, deadline=None)
def test_approximation_checkers_match_one_factor_per_test_map(p, data):
    # (2,2,3) and the five session triples; the spec is any index set, wide
    # or not, and the sums have 0-4 summands with repeats, members or not,
    # so an almost-split map's other end is often outside the subcategory
    spec = SubcatSpec(p, tuple(sorted(data.draw(st.sets(st.integers(1, p.period))))))
    base = data.draw(st.integers(-3 * p.period, 3 * p.period))
    window = st.integers(base, base + 2 * (p.l - 1))

    def draw_sum(members_only):
        positions = data.draw(st.lists(window, max_size=4))
        if members_only:
            positions = [q for q in positions if spec.contains_pos(q)]
        return SumObject(tuple(positions))

    a, b = draw_sum(data.draw(st.booleans())), draw_sum(False)
    xi = _draw_mor(data, p, a, b)
    assert is_precover(spec, xi) == precover_reference(spec, xi)
    assert is_cover(spec, xi) == (precover_reference(spec, xi) and right_minimal_reference(xi))
    vertex = SumObject((base + p.l - 1,))
    xi = _draw_mor(data, p, a, vertex)
    want = _outcome(right_almost_split_reference, spec, xi)
    assert _outcome(is_right_almost_split, spec, xi) == want
    xi = _draw_mor(data, p, vertex, b)
    want = _outcome(left_almost_split_reference, spec, xi)
    assert _outcome(is_left_almost_split, spec, xi) == want
