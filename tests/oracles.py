"""Test-side oracles, deliberately independent of the library formulas.

The block-rank isomorphism oracle is shared with the verify suite and
re-exported from there.  The Hom-exactness references select Hom spaces by
walking the quiver and build the contravariant complex reversed and
transposed, as the definition reads, instead of the library's single
position-window kernel; `hom_exactness_reference` extends an angle by
shifted Morphisms (`extended_chain`) instead of reusing its entry matrices.
`add_mor` adds parallel morphisms entrywise, for the bilinearity test.
`factor_reference` solves a factorisation as one system over every cell
of the factor, cells chosen by walking the quiver, where the library
solves one small system per column (per row on the left);
`right_minimal_reference` takes one nullspace of that whole system, and
the split references build the factor through the identity with it, as
the definition reads.  The almost-split and precover references solve one
`factor_reference` per test map, test vertices chosen by walking the
quiver, where the library factors one test morphism whose columns are
the test maps; like the library, they raise ShapeMismatch for a map over
other parameters than the spec's.  `matching_connector` builds the partial-matching
connectors that `extend` is tested on, from drawn pairs,
`ties_reordered` trades their slots of equal position, and
`extend_reference` is the construction `extend` replaced: validated
block angles summed slot-wise, then permuted back onto the connector.
`with_map_zeroed` spoils an angle so that the exactness tests see failures
too.  `angle_composite_failure` is `Angle`'s composite check with every
composite built, a zero factor or not.  `admissible` lists the triples
that sweeps run at, from the definition rather than `validate_params`, and
`wide_counts` gives the number of wide specs and of their members by a
closed form instead of by enumerating them.
`ar_angle_in_reference` builds a subcategory AR angle as the angle on its
connector, its cover found by walking the quiver, instead of the
library's merged progressions.
"""

from fractions import Fraction
from math import comb

from angulated import (
    Angle,
    Morphism,
    NotMember,
    ShapeMismatch,
    SumObject,
    ZERO_OBJ,
    basis_mor,
    compose,
    extend,
    identity_mor,
    indec,
    linalg,
    min_angle,
    rotate_left,
    rotate_right,
    shift_mor,
    trivial_angle,
    zero_mor,
)
from angulated.core import direct_sum_mor
from angulated.verify import block_iso_oracle  # noqa: F401


def path_hom_dim(params, x, y):
    """Dimension of Hom(x -> y) by walking arrows on the quiver.

    Builds the unique arrow path step by step and kills it as soon as it
    uses l consecutive arrows, instead of evaluating the distance rule.
    """
    count = 0
    stack = [(x, 0)]
    while stack:
        vertex, steps = stack.pop()
        if steps >= params.l:
            continue  # a composite of l consecutive arrows vanishes
        if vertex == y:
            count += 1
            continue
        if vertex < y:
            stack.append((vertex + 1, steps + 1))
    return count


def admissible(max_period):
    """The admissible triples (d, l, m), d even >= 2, l >= 2 and
    m = dl/2 + 1, whose period l(d + 2)/2 is at most `max_period`, in order
    of period and then of d."""
    return sorted(
        ((d, l, d * l // 2 + 1) for d in range(2, max_period, 2)
         for l in range(2, 2 * max_period // (d + 2) + 1)),
        key=lambda t: (t[1] * (t[0] + 2) // 2, t[0]),
    )


def wide_counts(params):
    """(wide specs, their members in total) at `params`, by the closed form.

    With n = period, a semisimple spec of size k >= 1 is a k-subset of the
    n-cycle whose cyclic gaps are all >= l: there are
    (n/k)*C(n - k(l-1) - 1, k - 1) of them, holding n*C(n - k(l-1) - 1, k - 1)
    members together; the empty spec adds one.  The 2^l unions of residue
    classes mod l hold 2^(l-1)*n members, and the empty one and the l single
    classes, n members together, are semisimple already.  The sums are
    exact, so a closed form that is not whole cannot equal a count.
    """
    n, l = params.period, params.l
    ways = [(k, comb(n - k * (l - 1) - 1, k - 1)) for k in range(1, n // l + 1)]
    specs = 1 + sum(Fraction(n * w, k) for k, w in ways) + 2 ** l - 1 - l
    pairs = sum(n * w for _, w in ways) + 2 ** (l - 1) * n - n
    return specs, pairs


def ar_angle_in_reference(spec, pos):
    """The subcategory AR angle ending at the member `pos`, as `extend` of
    its connector u(pos -> w + period).

    w is the cover of pos - m: the rightmost member w <= pos - m, at most
    a period back, with Hom(w, pos - m) nonzero by walking the quiver.  An
    angle is determined by its connector up to isomorphism, and AR angles
    are unique up to isomorphism, so this is the same angle built another
    way.
    """
    p = spec.params
    fbar = pos - p.m
    w = next(
        w for w in range(fbar, fbar - p.period, -1)
        if spec.contains_pos(w) and path_hom_dim(p, w, fbar)
    )
    return extend(basis_mor(p, pos, w + p.period))


def add_mor(a, b):
    """The entrywise sum of two parallel morphisms."""
    if a.params != b.params or a.source != b.source or a.target != b.target:
        raise ShapeMismatch("can only add parallel morphisms")
    ents = tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
    )
    return Morphism(a.params, a.source, a.target, ents)


def _factor_system(f, obj, side):
    """The system of a factorisation over every cell of the factor g.

    side "right": f o g with g: obj -> source(f); side "left": g o f with
    g: target(f) -> obj.  The unknowns are the cells of g whose Hom space
    `path_hom_dim` finds nonzero, row by row; there is one equation per
    cell of the composite that the structure rule keeps.  Returns g's
    source and target, the cells, the rows and the composite cells.
    """
    p = f.params
    if side == "right":
        g_src, g_tgt, out_src, out_tgt = obj, f.source, obj, f.target
    else:
        g_src, g_tgt, out_src, out_tgt = f.target, obj, f.source, obj
    cells = [
        (r, c)
        for r, y in enumerate(g_tgt.summands)
        for c, x in enumerate(g_src.summands)
        if path_hom_dim(p, x, y)
    ]
    rows, keys = [], []
    for i, y in enumerate(out_tgt.summands):
        for j, x in enumerate(out_src.summands):
            if not path_hom_dim(p, x, y):
                continue  # a composite of l consecutive arrows vanishes
            if side == "right":  # (f o g)[i][j] = sum over k of f[i][k] g[k][j]
                rows.append([f.entries[i][r] if c == j else 0 for r, c in cells])
            else:  # (g o f)[i][j] = sum over k of g[i][k] f[k][j]
                rows.append([f.entries[c][j] if r == i else 0 for r, c in cells])
            keys.append((i, j))
    return g_src, g_tgt, cells, rows, keys


def factor_reference(f, t, side):
    """A g with f o g = t (side "right") or g o f = t (side "left"), or None.

    One system over every cell of g, solved with its free cells at zero.
    """
    obj = t.source if side == "right" else t.target
    g_src, g_tgt, cells, rows, keys = _factor_system(f, obj, side)
    sol = linalg.solve(rows, [t.entries[i][j] for i, j in keys], len(cells))
    if sol is None:
        return None
    ents = [[0] * len(g_src) for _ in g_tgt.summands]
    for (r, c), v in zip(cells, sol):
        ents[r][c] = v
    return Morphism(f.params, g_src, g_tgt, ents)


def right_minimal_reference(xi):
    """No endomorphism phi of the source with xi o phi = 0 escapes the radical.

    One nullspace of the whole system over every cell of phi; a basis
    vector escapes when it is nonzero between two equal positions.
    """
    src = xi.source.summands
    _, _, cells, rows, _ = _factor_system(xi, xi.source, "right")
    return not any(
        v and src[r] == src[c]
        for vec in linalg.nullspace(rows, len(cells))
        for (r, c), v in zip(cells, vec)
    )


def split_epi_reference(f):
    """f is a split epi: the identity on its target factors through it."""
    return factor_reference(f, identity_mor(f.params, f.target), "right") is not None


def split_mono_reference(f):
    """f is a split mono: the identity on its source extends along it."""
    return factor_reference(f, identity_mor(f.params, f.source), "left") is not None


def _same_params(spec, xi):
    """A map over other parameters than the spec's has no verdict."""
    if spec.params != xi.params:
        raise ShapeMismatch("spec and map live over different parameters")


def right_almost_split_reference(spec, xi):
    """xi, into a member vertex from a member object, is not split epi, and
    every basis map into its target from another member vertex factors
    through xi, one at a time.

    The test vertices are the members w among the period positions left
    of the target with `path_hom_dim(w, target)` nonzero.
    """
    _same_params(spec, xi)
    p, tgt = spec.params, xi.target.summands
    if len(tgt) != 1 or not spec.contains_pos(tgt[0]):
        raise NotMember("right almost split needs a member vertex target")
    if not all(spec.contains_pos(x) for x in xi.source.summands):
        return False  # a map of the subcategory starts at a member
    if split_epi_reference(xi):
        return False
    return all(
        factor_reference(xi, basis_mor(p, w, tgt[0]), "right") is not None
        for w in range(tgt[0] - p.period, tgt[0])
        if spec.contains_pos(w) and path_hom_dim(p, w, tgt[0])
    )


def left_almost_split_reference(spec, xi):
    """xi, out of a member vertex into a member object, is not split mono,
    and every basis map out of its source to another member vertex extends
    along xi, one at a time.
    """
    _same_params(spec, xi)
    p, src = spec.params, xi.source.summands
    if len(src) != 1 or not spec.contains_pos(src[0]):
        raise NotMember("left almost split needs a member vertex source")
    if not all(spec.contains_pos(y) for y in xi.target.summands):
        return False  # a map of the subcategory ends at a member
    if split_mono_reference(xi):
        return False
    return all(
        factor_reference(xi, basis_mor(p, src[0], w), "left") is not None
        for w in range(src[0] + 1, src[0] + p.period + 1)
        if spec.contains_pos(w) and path_hom_dim(p, src[0], w)
    )


def precover_reference(spec, xi):
    """Every summand of source(xi) is a member, and each elementary map into
    target(xi), one member vertex w into one summand i by the basis
    morphism, factors through xi, one at a time.

    The test vertices are the members w among the positions from a period
    left of the target's first summand to its last with
    `path_hom_dim(w, target_i)` nonzero.
    """
    _same_params(spec, xi)
    p, tgt = spec.params, xi.target
    if not all(spec.contains_pos(x) for x in xi.source.summands):
        return False
    if tgt.is_zero:
        return True
    return all(
        factor_reference(xi, Morphism(
            p, indec(w), tgt, tuple((1 if r == i else 0,) for r in range(len(tgt)))
        ), "right") is not None
        for w in range(tgt.summands[0] - p.period, tgt.summands[-1] + 1)
        if spec.contains_pos(w)
        for i, q in enumerate(tgt.summands)
        if path_hom_dim(p, w, q)
    )


def matching_connector(params, pairs, lone_sources, lone_targets):
    """The connector with one cell c from source s to target t per pair (s, t, c).

    Its nonzero cells form a partial matching of summands; the positions in
    `lone_sources` and `lone_targets` add unmatched summands.  Positions may
    repeat, and slots of equal position keep the order they are given in.
    """
    src = sorted(
        [(s, k) for k, (s, _, _) in enumerate(pairs)] + [(s, None) for s in lone_sources],
        key=lambda slot: slot[0],
    )
    tgt = sorted(
        [(t, k) for k, (_, t, _) in enumerate(pairs)] + [(t, None) for t in lone_targets],
        key=lambda slot: slot[0],
    )
    col = {k: j for j, (_, k) in enumerate(src) if k is not None}
    ents = [[0] * len(src) for _ in tgt]
    for i, (_, k) in enumerate(tgt):
        if k is not None:
            ents[i][col[k]] = pairs[k][2]
    return Morphism(
        params,
        SumObject(tuple(s for s, _ in src)),
        SumObject(tuple(t for t, _ in tgt)),
        tuple(map(tuple, ents)),
    )


def ties_reordered(delta, rows, cols):
    """`delta` with its rows read in the order `rows` and its columns in the
    order `cols`, each then sorted stably by position: only slots of equal
    position trade places, so the source and target stay the same.
    `matching_connector` always puts a matched slot before an unmatched one
    of the same position; this reaches the other orders."""
    src, tgt = delta.source.summands, delta.target.summands
    rows, cols = sorted(rows, key=tgt.__getitem__), sorted(cols, key=src.__getitem__)
    ents = tuple(tuple(delta.entries[i][j] for j in cols) for i in rows)
    return Morphism(delta.params, delta.source, delta.target, ents)


def extend_reference(delta):
    """An angle ending in the partial-matching connector `delta`, built the
    long way.

    One validated block angle per nonzero cell e from x to y, row by row:
    the minimal angle on e*u(x -> y) turned right, or for x = y the
    contractible angle with e*id in the connector slot; then one per target
    summand without a cell (id in slot 0) and one per source summand
    without a cell (id in slot d), each rotated into place.  The blocks are
    summed slot-wise with `direct_sum_mor`, which orders equal positions by
    block, and the sum is permuted back: the columns of map 0, the rows of
    map d and both sides of the connector go to delta's row and column
    order.  Nothing puts `delta` in; the connector comes out of the sum.
    """
    p = delta.params
    src, tgt = delta.source.summands, delta.target.summands
    cells = [(i, j, e) for i, row in enumerate(delta.entries) for j, e in enumerate(row) if e]
    rows, cols = [i for i, _, _ in cells], [j for _, j, _ in cells]
    if len(set(rows)) < len(cells) or len(set(cols)) < len(cells):
        raise ShapeMismatch("connector support must be a partial matching")
    lone_rows = [i for i in range(len(tgt)) if i not in rows]
    lone_cols = [j for j in range(len(src)) if j not in cols]
    blocks = [
        rotate_right(min_angle(Morphism(p, indec(src[j]), indec(tgt[i]), ((e,),))))
        if src[j] != tgt[i]
        else rotate_left(trivial_angle(p, indec(src[j] - p.period), e))
        for i, j, e in cells
    ]
    blocks += [trivial_angle(p, indec(tgt[i] - p.period)) for i in lone_rows]
    blocks += [
        rotate_left(rotate_left(trivial_angle(p, indec(src[j] - p.period))))
        for j in lone_cols
    ]
    if not blocks:
        return trivial_angle(p, ZERO_OBJ)
    maps = [direct_sum_mor(*mors) for mors in zip(*(b.maps for b in blocks))]
    # slot k of object 0 holds delta's row row_at[k], of object d+1 its
    # column col_at[k]: the block order, sorted stably by position
    row_at = sorted(rows + lone_rows, key=tgt.__getitem__)
    col_at = sorted(cols + lone_cols, key=src.__getitem__)
    row_slot = {i: k for k, i in enumerate(row_at)}
    col_slot = {j: k for k, j in enumerate(col_at)}
    m0, md, conn = maps[0], maps[p.d], maps[-1]
    maps[0] = Morphism(p, m0.source, m0.target, tuple(
        tuple(row[row_slot[i]] for i in range(len(tgt))) for row in m0.entries
    ))
    maps[p.d] = Morphism(p, md.source, md.target, tuple(
        md.entries[col_slot[j]] for j in range(len(src))
    ))
    maps[-1] = Morphism(p, conn.source, conn.target, tuple(
        tuple(conn.entries[row_slot[i]][col_slot[j]] for j in range(len(src)))
        for i in range(len(tgt))
    ))
    return Angle(p, tuple(m.source for m in maps), tuple(maps))


def with_map_zeroed(a, k):
    """The angle `a` with map k replaced by zero.

    Every composite through a zero map vanishes, so this is still an angle,
    and for most k it is no longer exact.
    """
    maps = list(a.maps)
    maps[k] = zero_mor(a.params, maps[k].source, maps[k].target)
    return Angle(a.params, a.objects, tuple(maps))


def angle_composite_failure(objects, maps):
    """The message `Angle` raises for a chain whose shapes fit, or None.

    Every consecutive composite is built, then the wrap-around composite
    through the connector shifted back by one period; the first nonzero one
    names the failure.
    """
    for k in range(len(objects) - 1):
        if not compose(maps[k + 1], maps[k]).is_zero:
            return f"consecutive maps {k}, {k + 1} do not compose to zero"
    if not compose(maps[0], shift_mor(maps[-1], -1)).is_zero:
        return "wrap-around composite is nonzero"
    return None


def angle_objects(params, a):
    """Positions of the angle objects, None marking zero slots."""
    out = []
    for o in a.objects:
        if o.is_zero:
            out.append(None)
        elif o.is_indec:
            out.append(o.summands[0])
        else:
            out.append(tuple(o.summands))
    return out


def _inexact(dims, mats, slots):
    """Slots of the complex mats[k]: space k -> space k+1 that are not exact.

    Exactness at slot s is rank(in) + rank(out) = dim together with
    out o in = 0, every matrix ranked as it stands and multiplied here, row
    by column, with no mask.
    """
    bad = []
    for s in slots:
        in_rank = linalg.rank(mats[s - 1]) if s >= 1 else 0
        out_rank = linalg.rank(mats[s]) if s < len(mats) else 0
        ok = in_rank + out_rank == dims[s]
        if ok and 0 < s < len(mats) and dims[s]:
            ok = all(sum(a * b for a, b in zip(row, col)) == 0
                     for row in mats[s] for col in zip(*mats[s - 1]))
        if not ok:
            bad.append(s)
    return bad


def hom_from_inexact_slots(params, objects, maps, t, slots):
    """Slots where Hom(t, -) leaves the chain inexact, as a plain complex."""
    keep = [[k for k, q in enumerate(o.summands) if path_hom_dim(params, t, q)]
            for o in objects]
    mats = [[[m.entries[i][j] for j in keep[k]] for i in keep[k + 1]]
            for k, m in enumerate(maps)]
    return _inexact([len(ks) for ks in keep], mats, slots)


def hom_into_inexact_slots(params, objects, maps, t, slots):
    """Slots where Hom(-, t) leaves the chain inexact.

    Hom(-, t) reverses the chain: the reversed complex has the transposed
    matrices in reverse order, and original slot s is its slot n-1-s.
    """
    n = len(objects)
    keep = [[k for k, q in enumerate(o.summands) if path_hom_dim(params, q, t)]
            for o in objects]
    mats = [[[m.entries[i][j] for i in keep[k + 1]] for j in keep[k]]
            for k, m in enumerate(maps)]
    bad = _inexact(
        [len(ks) for ks in reversed(keep)], mats[::-1], [n - 1 - s for s in slots]
    )
    return sorted(n - 1 - s for s in bad)


def d_kernel_reference(chain, mu):
    """0 -> chain -> target(mu) exact under every Hom(f_t, -)."""
    objects = chain.objects + (mu.target,)
    maps = chain.maps + (mu,)
    return not any(
        hom_from_inexact_slots(chain.params, objects, maps, t, range(len(chain.objects)))
        for t in range(1, chain.params.period + 1)
    )


def d_cokernel_reference(chain, mu):
    """source(mu) -> chain -> 0 exact under every Hom(-, f_t)."""
    objects = (mu.source,) + chain.objects
    maps = (mu,) + chain.maps
    return not any(
        hom_into_inexact_slots(chain.params, objects, maps, t, range(1, len(objects)))
        for t in range(1, chain.params.period + 1)
    )


def d_exact_reference(chain):
    """The full chain exact under every Hom(f_t, -) and every Hom(-, f_t)."""
    p, objects, maps = chain.params, chain.objects, chain.maps
    n = len(objects)
    return not any(
        hom_from_inexact_slots(p, objects, maps, t, range(n - 1))
        or hom_into_inexact_slots(p, objects, maps, t, range(1, n))
        for t in range(1, p.period + 1)
    )


def extended_chain(a):
    """Objects and maps of the angle extended by one period on each side
    with `shift_mor`, as the infinite sequence reads."""
    maps = [shift_mor(m, r) for r in (-1, 0, 1) for m in a.maps][:-1]
    return [m.source for m in maps] + [maps[-1].target], maps


def hom_exactness_reference(a):
    """The (vertex, slot) failures of every Hom(t, -) across the angle.

    Each test vertex t in [min position - period - l + 1, max position +
    period] walks the quiver for its Hom spaces over `extended_chain(a)`;
    the failures come in the order of t, then of the slot.
    """
    p = a.params
    positions = [q for o in a.objects for q in o.summands]
    if not positions:
        return ()
    objects, maps = extended_chain(a)
    slots = range(1, len(objects) - 1)
    return tuple(
        (t, s)
        for t in range(min(positions) - p.period - p.l + 1, max(positions) + p.period + 1)
        for s in hom_from_inexact_slots(p, objects, maps, t, slots)
    )
