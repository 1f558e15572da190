"""Higher angles: construction, rotation and the exactness oracle.

An angle is a chain of d+2 objects whose last map lands in the period
shift of the first object, with all consecutive composites zero.  The
minimal angle on a basis morphism of distance D places its objects on the
two arithmetic progressions of step l through source and target, so the
d+1 gaps alternate between D and l - D and the total span is m - 1 + D.

The oracle `check_hom_exactness` never looks at how an angle was built: it
applies every covariant Hom functor from a window of test vertices to the
angle, read as the infinite sequence, and verifies exactness of the
resulting rational complexes by rank counting; each failure is reported
once, at the angle's own object.  Hom(t, -) keeps the positions [t, t+l-1];
Hom(-, t) keeps the window of Hom(t-l+1, -), reversed and transposed,
which changes no rank and no vanishing composite, so it fails exactly
where Hom(t-l+1, -) does.  One kernel with one window family thus tests
both functors, the contravariant one at test vertices moved by -(l-1),
and `check_hom_exactness` also decides contravariant exactness.  F keeps
both tests: its test vertices are only f_1..f_period, and the d-kernel
test covers every slot but the last, the d-cokernel test every slot but
the first.  The kernel sweeps all test vertices of a call at once, in runs
of t whose windows keep the same summands, so its work follows the
summands, not the span.
"""

from bisect import bisect_left, bisect_right

from . import linalg
from .core import (
    BadDistance,
    FamilyParams,
    InternalError,
    Morphism,
    Record,
    ShapeMismatch,
    SumObject,
    ZERO_OBJ,
    _ONE,
    _ZERO,
    _cells,
    _exact,
    compose,
    direct_sum_mor,
    indec,
    shift_mor,
    shift_obj,
    zero_mor,
)


def _check_chain(params: FamilyParams, ends, maps) -> None:
    """Raise ShapeMismatch unless map k goes from ends[k] to ends[k + 1],
    position tuples, over `params`: compared by identity, falling back to
    equality for a separately built record."""
    if len(maps) != len(ends) - 1:
        raise ShapeMismatch(f"a chain of {len(ends)} objects needs {len(ends) - 1} maps")
    for k, mor in enumerate(maps):
        if mor.params is not params and mor.params != params:
            raise ShapeMismatch(f"map {k} lives over different parameters")
        if mor.source.summands != ends[k] or mor.target.summands != ends[k + 1]:
            raise ShapeMismatch(f"map {k} does not go from object {k} to object {k + 1}")


class Angle(Record):
    """Sigma^d-sequence of d+2 objects; validated on construction.

    maps[k] goes objects[k] -> objects[k+1] for k <= d and the connecting
    map maps[d+1] goes objects[d+1] -> shift(objects[0], 1).  Consecutive
    composites vanish, including around the wrap; a composite with a zero
    factor vanishes and is not built, nor then is the shifted connector.
    The maps are checked as a chain (`_check_chain`) whose last end, object
    d+2, is object 0's positions moved by one period.
    """

    _fields = ("params", "objects", "maps")

    def __init__(self, params: FamilyParams, objects: tuple, maps: tuple):
        n = params.d + 2
        if len(objects) != n or len(maps) != n:
            raise ShapeMismatch(f"an angle needs {n} objects and {n} maps")
        ends = [o.summands for o in objects]
        _check_chain(params, [*ends, tuple(q + params.period for q in ends[0])], maps)
        zero = [m.is_zero for m in maps]
        for k in range(n - 1):
            if not (zero[k] or zero[k + 1] or compose(maps[k + 1], maps[k]).is_zero):
                raise ValueError(f"consecutive maps {k}, {k + 1} do not compose to zero")
        if not (zero[0] or zero[-1] or compose(maps[0], shift_mor(maps[-1], -1)).is_zero):
            raise ValueError("wrap-around composite is nonzero")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "maps", maps)

    @property
    def connecting(self) -> Morphism:
        return self.maps[-1]


def _contractible(params: FamilyParams, y: SumObject, k: int, c=1):
    """Objects and maps of the contractible chain with c*id_y in slot k.

    Slot k is the map objects[k] -> objects[k+1], so objects[k] and
    objects[k+1] are y; for k = d + 1 the map is the connector and
    objects[0] is shift(y, -1), and y itself is the connector's target.
    Every other object and map is zero.  The one map c*id_y is a single
    Morphism; an inexact c raises TypeError.
    """
    n, c = params.d + 2, _exact(c, "scalar")
    objects = [ZERO_OBJ] * n
    objects[k] = y
    objects[(k + 1) % n] = y if k + 1 < n else shift_obj(params, y, -1)
    targets = objects[1:] + [y if k + 1 == n else shift_obj(params, objects[0], 1)]
    zero = zero_mor(params, ZERO_OBJ, ZERO_OBJ)  # immutable, so shared by its slots
    cid = tuple(tuple(c if i == j else _ZERO for j in range(len(y))) for i in range(len(y)))
    maps = tuple(
        Morphism(params, y, y, cid) if s == k
        else zero if not (src.summands or tgt.summands)
        else zero_mor(params, src, tgt)
        for s, (src, tgt) in enumerate(zip(objects, targets))
    )
    return tuple(objects), maps


def trivial_angle(params: FamilyParams, x: SumObject, c=1) -> Angle:
    """x --c*id--> x -> 0 -> ... -> 0 -> shift(x); contractible for c != 0."""
    return Angle(params, *_contractible(params, x, 0, c))


def _degenerate_angle(params: FamilyParams, pos: int) -> Angle:
    """shift(x, -1) -> 0 -> ... -> 0 -> x with connecting map id on x = f_pos.

    This is rotate_left(trivial_angle(params, indec(pos - period))), built
    directly as the contractible chain with id in the connector slot,
    because the rotation validates a second angle of d + 2 maps.  It is the
    AR angle of a subcategory in the degenerate case.
    """
    return Angle(params, *_contractible(params, indec(pos), params.d + 1))


def rotate_left(a: Angle) -> Angle:
    """Drop the first object, append its shift; d is even so no sign flips."""
    p = a.params
    objects = a.objects[1:] + (shift_obj(p, a.objects[0], 1),)
    maps = a.maps[1:] + (shift_mor(a.maps[0], 1),)
    return Angle(p, objects, maps)


def rotate_right(a: Angle) -> Angle:
    """Drop the last object, prepend its inverse shift; undoes rotate_left."""
    p = a.params
    objects = (shift_obj(p, a.objects[-1], -1),) + a.objects[:-1]
    maps = (shift_mor(a.maps[-1], -1),) + a.maps[:-1]
    return Angle(p, objects, maps)


def shift_angle(a: Angle, r: int) -> Angle:
    p = a.params
    return Angle(
        p,
        tuple(shift_obj(p, o, r) for o in a.objects),
        tuple(shift_mor(m, r) for m in a.maps),
    )


def direct_sum(first: Angle, *rest: Angle) -> Angle:
    """Slot-wise direct sum of one or more angles, validated once; object k
    of the sum is the source of summed map k.

    Angles over different parameters raise ShapeMismatch in direct_sum_mor.
    """
    maps = tuple(direct_sum_mor(*mors) for mors in zip(*(a.maps for a in (first, *rest))))
    return Angle(first.params, tuple(m.source for m in maps), maps)


def _min_positions(p: FamilyParams, x: int, y: int) -> list[int]:
    """Sorted positions of the minimal angle on u(x -> y), 1 <= y - x <= l - 1:
    y - r*l and x - r*l for 0 <= r <= d/2, so the last two are x and y."""
    half = p.d // 2
    positions = sorted(
        [y - r * p.l for r in range(half + 1)] + [x - r * p.l for r in range(half + 1)]
    )
    # alternating gaps y - x, l - (y - x); total span m - 1 + (y - x)
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    if (
        gaps != [y - x if k % 2 == 0 else p.l - (y - x) for k in range(p.d + 1)]
        or positions[-1] - positions[0] != p.m - 1 + y - x
    ):
        raise InternalError(f"minimal angle positions {positions} break the gap law")
    return positions


def min_angle(mu: Morphism) -> Angle:
    """The unique angle on mu with all middle maps in the radical.

    mu must be a nonzero morphism between single vertices.  For distance
    D in [1, l-1] the objects sit at the positions target - r*l and
    source - r*l for 0 <= r <= d/2, sorted increasingly, with mu occupying
    the last slot before the connecting map; the connecting map is the
    basis morphism of distance l - D.  Distance 0 yields the contractible
    angle on the isomorphism mu.  Each map is built on the angle's own
    objects, the ends of mu among them, and only the connector's target,
    the shifted first object, is made for it.
    """
    p = mu.params
    if not (mu.source.is_indec and mu.target.is_indec and mu.entries[0][0]):
        raise BadDistance("min_angle needs a nonzero morphism between single vertices")
    x, y = mu.source.summands[0], mu.target.summands[0]
    if x == y:
        return trivial_angle(p, mu.source, mu.entries[0][0])
    positions = _min_positions(p, x, y)
    objects = (*map(indec, positions[:-2]), mu.source, mu.target)
    ends = (*objects, indec(positions[0] + p.period))
    maps = tuple(mu if k == p.d else Morphism(p, a, b, ((_ONE,),))  # mu in slot d
                 for k, (a, b) in enumerate(zip(ends, ends[1:])))
    return Angle(p, objects, maps)


def extend(delta: Morphism) -> Angle:
    """Some angle whose connecting map is `delta`, assembled in one pass.

    The support of `delta` must be a partial matching of summands (no row
    or column with two nonzero cells); otherwise ShapeMismatch.  The angle
    is the direct sum of blocks with one vertex or zero per object, in this
    order: per nonzero cell from source vertex x to target vertex y, row by
    row, the minimal chain on u(x -> y) turned right, or for x = y the chain
    y - period, 0, ..., 0, x; per target summand y without a cell,
    y - period twice, then zeros; per source summand x without one, zeros,
    then x twice.  Every block map but the connector has coefficient one, so
    a block is its positions: each middle object is one sort of them, equal
    positions in block order, and each of the d+1 maps before the connector
    is the 0/1 matrix joining a block's vertices.  Object 0 is
    shift(target, -1) and object d+1 the source, both in delta's own order
    (equal positions go by row and by column index), so `delta` itself is
    the connector and nothing is permuted back.  The sum is block diagonal,
    so its composites vanish exactly when every block's do; the one Angle
    built per call validates them.
    """
    p = delta.params
    n = p.d + 2
    src, tgt = delta.source.summands, delta.target.summands
    cells = [(i, j) for i, row in enumerate(delta.entries) for j, e in enumerate(row) if e]
    rows, cols = {i for i, _ in cells}, {j for _, j in cells}
    if len(rows) < len(cells) or len(cols) < len(cells):
        raise ShapeMismatch("connector support must be a partial matching")
    lone_rows = [i for i in range(len(tgt)) if i not in rows]
    lone_cols = [j for j in range(len(src)) if j not in cols]
    middles = [  # per block, its position or None at objects 1..d
        _min_positions(p, src[j], tgt[i])[:-2] if src[j] != tgt[i] else (None,) * p.d
        for i, j in cells
    ]
    middles += [(tgt[i] - p.period,) + (None,) * (p.d - 1) for i in lone_rows]
    middles += [(None,) * (p.d - 1) + (src[j],) for j in lone_cols]
    ends = cells + [(i, None) for i in lone_rows] + [(None, j) for j in lone_cols]
    at = [[i, *[None] * p.d, j] for i, j in ends]  # at[b][k]: block b's index in object k
    objects = [shift_obj(p, delta.target, -1)]
    for k in range(1, n - 1):
        tags = sorted((qs[k - 1], b) for b, qs in enumerate(middles) if qs[k - 1] is not None)
        for c, (_, b) in enumerate(tags):
            at[b][k] = c
        objects.append(SumObject(tuple(q for q, _ in tags)))
    objects.append(delta.source)
    maps = []
    for k in range(n - 1):
        ents = [[_ZERO] * len(objects[k]) for _ in objects[k + 1].summands]
        for b in at:
            if b[k] is not None and b[k + 1] is not None:
                ents[b[k + 1]][b[k]] = _ONE
        maps.append(Morphism(p, objects[k], objects[k + 1], tuple(map(tuple, ents))))
    return Angle(p, tuple(objects), (*maps, delta))


# ---------------------------------------------------------------------------
# F-level chains: d-kernels, d-cokernels, d-exact sequences
# ---------------------------------------------------------------------------

class FLevelChain(Record):
    """Chain of objects in the fundamental window with its defining role."""

    _fields = ("params", "kind", "objects", "maps")

    def __init__(self, params: FamilyParams, kind: str, objects: tuple, maps: tuple):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "kind", kind)  # "kernel" | "cokernel" | "exact"
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "maps", maps)


def _ladder(params: FamilyParams, kind: str, i: int, j: int) -> FLevelChain:
    """The `kind` chain cut from the ladder through f_i, f_j.

    The ladder is the minimal angle on u(a -> b), where a < b are the
    highest window positions congruent to i and j mod l, cut down to the
    window: its d+2 positions are `_min_positions(a, b)`, the window
    positions congruent to i or j mod l, and the gap law holds, so f_j
    follows f_i.  With d zeros on each side, the d-kernel is its d+1
    objects ending at f_i and the d-cokernel its d+1 objects starting at
    f_j.  Neighbouring vertices are joined by basis morphisms, anything
    else by zero maps, each built on the chain's own objects.
    """
    if not (1 <= i <= params.period and 1 <= j <= params.period):
        raise BadDistance(f"indices must lie in [1, {params.period}]")
    if not 1 <= j - i <= params.l - 1:
        raise BadDistance(f"need 1 <= j - i <= {params.l - 1}, got {j - i}")
    d, per = params.d, params.period
    positions = _min_positions(params, *sorted(per - (per - q) % params.l for q in (i, j)))
    row = [ZERO_OBJ] * d + [indec(q) for q in positions] + [ZERO_OBJ] * d
    at_i = d + positions.index(i)
    start = {"kernel": at_i - d, "cokernel": at_i + 1, "exact": d}[kind]
    objects = tuple(row[start:start + d + 1 + (kind == "exact")])
    maps = tuple(
        zero_mor(params, a, b) if a.is_zero or b.is_zero
        else Morphism(params, a, b, ((_ONE,),))
        for a, b in zip(objects, objects[1:])
    )
    return FLevelChain(params, kind, objects, maps)


def d_kernel(params: FamilyParams, i: int, j: int) -> FLevelChain:
    """d+1 objects ending at f_i whose Hom-from sequences kill u(i -> j):
    the ladder's head up to f_i, padded with zeros on the left."""
    return _ladder(params, "kernel", i, j)


def d_cokernel(params: FamilyParams, i: int, j: int) -> FLevelChain:
    """d+1 objects starting at f_j, dual to `d_kernel`: the ladder's tail
    from f_j, padded with zeros on the right."""
    return _ladder(params, "cokernel", i, j)


def d_exact_seq(params: FamilyParams, i: int, j: int) -> FLevelChain:
    """The full d+2 term sequence through u(i -> j) inside the window."""
    return _ladder(params, "exact", i, j)


# ---------------------------------------------------------------------------
# Exactness oracles
# ---------------------------------------------------------------------------

def _cut(mat, rows, cols):
    """`mat` cut down to the (start, stop) index ranges `rows` and `cols`."""
    return [row[cols[0]:cols[1]] for row in mat[rows[0]:rows[1]]]


def _inexact_windows(summands, entries, l: int, ts: range, slots: range):
    """The (t, slot) pairs, t in `ts` and slot in `slots`, where Hom(t, -)
    leaves the chain inexact, in the order of t, then of the slot.

    summands[k] holds the sorted positions of object k, and entries[k] is
    the matrix of the map object k -> object k+1.  Hom(t, -) keeps the
    window [t, t + l - 1] of positions and sends a map to its entry matrix
    cut down to the summands in the window.  Exactness at slot s is
    rank(in) + rank(out) = dim together with out o in = 0; a slot whose
    window space is zero is exact.  out o in is `compose`'s masked product
    `_cells`, which in one window drops no cell that could be nonzero.
    Hom(-, t) fails exactly where Hom(t - l + 1, -) does, so a
    contravariant test passes `ts` moved by -(l - 1).

    The summands of the whole chain are sorted once as (position, object,
    index), so a window keeps one slice of that list, found by two
    bisections.  The slice changes only at a breakpoint, a t where a
    summand enters the window (t = q - l + 1) or leaves it (t = q + 1), so
    t is walked in runs between breakpoints: each run's slice is tested
    once, at the objects it touches, and its failing slots are reported
    for every t of the run.  An empty run costs nothing.  A cut is fixed by
    its entry matrix and its two index ranges, and each distinct one is
    ranked once per call.
    """
    tags = sorted((q, k, i) for k, qs in enumerate(summands) for i, q in enumerate(qs))
    pos = [q for q, _, _ in tags]
    starts = sorted(
        {ts.start} | {t for q in pos for t in (q - l + 1, q + 1) if ts.start < t < ts.stop}
    )
    ranks = {}

    def rank(k, rows, cols):
        key = (id(entries[k]), rows, cols)
        if key not in ranks:
            ranks[key] = linalg.rank(_cut(entries[k], rows, cols))
        return ranks[key]

    failures = []
    for start, stop in zip(starts, starts[1:] + [ts.stop]):
        keep = {}  # object -> (first, stop) of the summand indices in the window
        for _, k, i in tags[bisect_left(pos, start):bisect_right(pos, start + l - 1)]:
            keep[k] = (keep[k][0] if k in keep else i, i + 1)
        bad = []
        for s in sorted(keep):
            if s not in slots:
                continue
            here, back, fwd = keep[s], keep.get(s - 1), keep.get(s + 1)
            r_in = rank(s - 1, here, back) if back else 0
            r_out = rank(s, fwd, here) if fwd else 0
            if r_in + r_out != here[1] - here[0] or back and fwd and any(_cells(
                summands[s + 1][fwd[0]:fwd[1]], _cut(entries[s], fwd, here),
                summands[s - 1][back[0]:back[1]], _cut(entries[s - 1], here, back), l - 1,
            )):
                bad.append(s)
        if bad:
            failures += [(t, s) for t in range(start, stop) for s in bad]
    return failures


def _exact_in_f(params: FamilyParams, objects, maps, *sides) -> bool:
    """The chain passes `_check_chain` once, else raises; then for each side
    (first, slots), Hom(t, -) leaves it exact at `slots` for the period of
    test vertices t from `first` on."""
    ends = [o.summands for o in objects]
    _check_chain(params, ends, maps)
    entries = [m.entries for m in maps]
    return not any(
        _inexact_windows(ends, entries, params.l, range(first, first + params.period), slots)
        for first, slots in sides
    )


def check_d_kernel(chain: FLevelChain, mu: Morphism) -> bool:
    """Definition-level test: 0 -> chain -> target(mu) exact under Hom(f_t, -)."""
    objects, maps = chain.objects + (mu.target,), chain.maps + (mu,)
    return _exact_in_f(chain.params, objects, maps, (1, range(len(objects) - 1)))


def check_d_cokernel(chain: FLevelChain, mu: Morphism) -> bool:
    """Dual test: source(mu) -> chain -> 0 exact under Hom(-, f_t), which
    fails where Hom(t - l + 1, -) does."""
    p = chain.params
    objects, maps = (mu.source,) + chain.objects, (mu,) + chain.maps
    return _exact_in_f(p, objects, maps, (2 - p.l, range(1, len(objects))))


def check_d_exact(chain: FLevelChain) -> bool:
    """Both functor tests on a full d+2 term sequence."""
    p, n = chain.params, len(chain.objects)
    return _exact_in_f(p, chain.objects, chain.maps, (1, range(n - 1)), (2 - p.l, range(1, n)))


class ExactnessReport(Record):
    """Outcome of the Hom-exactness oracle; failures are (vertex, object)
    pairs, each once, object s in 0..d+1 of the angle itself; it is ok
    exactly when it lists no failure."""

    _fields = ("failures",)

    def __init__(self, failures: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_hom_exactness(a: Angle) -> ExactnessReport:
    """Brute-force exactness of every induced Hom sequence across the angle.

    Exactness at object s reads objects s-1, s and s+1 only, so the angle
    is swept with one neighbour on each side: its last object moved back a
    period and its first moved on one, glued by the connector's entry
    matrix (a shift leaves entries unchanged), and no shifted object or
    Morphism is built.  Every covariant Hom functor from a test vertex t,
    the window [t, t+l-1], is applied for t in [min position - l + 1, max
    position], the windows that meet the angle.  A failure (t, s) says
    Hom(t, -) is not exact at object s, 0 <= s <= d+1; moving t by a
    period and the object by d+2 gives the same cut matrices, so each
    failure is reported once, in the order of t, then of s.  Hom(-, t)
    fails exactly where Hom(t - l + 1, -) does, so this also decides the
    contravariant exactness of the angle, at the failures' t moved by l - 1.
    """
    p, n = a.params, a.params.d + 2
    ends = [o.summands for o in a.objects]
    positions = [q for qs in ends for q in qs]
    if not positions:
        return ExactnessReport(())
    conn = a.maps[-1].entries
    failures = _inexact_windows(  # swept slot s is object s - 1
        [tuple(q - p.period for q in ends[-1]), *ends, tuple(q + p.period for q in ends[0])],
        [conn, *(m.entries for m in a.maps[:-1]), conn], p.l,
        range(min(positions) - p.l + 1, max(positions) + 1), range(1, n + 1),
    )
    return ExactnessReport(tuple((t, s - 1) for t, s in failures))
