"""Combinatorial model of the periodic linear quiver category.

The family is parametrised by an even d >= 2 together with l >= 2 and
m >= 3 satisfying m - 1 = d*l/2.  Its indecomposable objects live on the
doubly infinite linear quiver

    ... -> s-1:f1 -> ... -> s-1:f_{m+l-1} -> f1 -> ... -> f_{m+l-1} -> s1:f1 -> ...

with one vertex per global integer position; the degree-d suspension acts
by translating positions by one period m + l - 1.  The Hom space between
two vertices is one dimensional when the target sits between 0 and l - 1
steps to the right of the source and zero otherwise, which encodes the
vanishing of every composite of l consecutive arrows.  Fixing the basis
morphism u(x -> y) of each nonzero Hom space with all structure constants
equal to one, general objects are finite multisets of vertices and general
morphisms are rational matrices supported on the allowed distance band.

Everything downstream (angles, covers, AR theory) reduces to this distance
rule plus exact linear algebra over the rationals.  Every value is a
`Record`: immutable, equal only to a record of its class with equal fields,
hashable, copyable and picklable; a plain class, so `dataclasses.fields`,
`replace` and `asdict` do not apply to it.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Rational
from operator import attrgetter

from . import linalg

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DomainError(ValueError):
    """Base class for mathematically invalid requests."""


class InternalError(RuntimeError):
    """A construction broke an invariant it guarantees: a bug, not bad input."""


class ConstraintViolation(DomainError):
    """Family parameters violate the defining arithmetic constraints."""


class ZeroHom(DomainError):
    """Asked for the canonical basis morphism of a vanishing Hom space."""


class ShapeMismatch(DomainError):
    """Sources, targets or matrix shapes do not line up."""


class BadDistance(DomainError):
    """Position distance outside the range the construction supports."""


class NotWide(DomainError):
    """Subcategory spec fails the wideness requirement."""


class NotMember(DomainError):
    """Object lies outside the subcategory it must belong to."""


class Record:
    """Base of the value classes: `_fields` names, in order, the fields that
    its one `__init__` writes, each once, after checking its arguments."""

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # reads fields without building a __dict__

    def __eq__(self, other):
        return (self._key(self) == self._key(other)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: records are immutable")

    __delattr__ = __setattr__


class FamilyParams(Record):
    """Admissible triple (d, l, m) plus the derived period m + l - 1.

    Requires d even and >= 2, l >= 2, m >= 3 and m - 1 = d*l/2; raises
    ConstraintViolation naming the first failed condition.  The period is
    derived, never passed.
    """

    _fields = ("d", "l", "m", "period")

    def __init__(self, d: int, l: int, m: int):
        for name, value in (("d", d), ("l", l), ("m", m)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConstraintViolation(f"{name} must be an integer, got {value!r}")
        if d < 2 or d % 2 != 0:
            raise ConstraintViolation(f"d must be an even integer >= 2, got {d}")
        if l < 2:
            raise ConstraintViolation(f"l must be an integer >= 2, got {l}")
        if m < 3:
            raise ConstraintViolation(f"m must be an integer >= 3, got {m}")
        if 2 * (m - 1) != d * l:
            raise ConstraintViolation(
                f"need m - 1 = d*l/2, got m - 1 = {m - 1} and d*l/2 = {d * l // 2}"
            )
        period = m + l - 1
        # consequence of the constraint, kept as a hard check
        if 2 * period != l * (d + 2):
            raise InternalError(f"period {period} breaks 2*period = l*(d+2)")
        for name, value in zip(self._fields, (d, l, m, period)):
            object.__setattr__(self, name, value)


def validate_params(d: int, l: int, m: int) -> FamilyParams:
    """The checked parameter record of (d, l, m); see `FamilyParams`."""
    return FamilyParams(d, l, m)


def split_pos(params: FamilyParams, pos: int) -> tuple[int, int]:
    """Unique (shift, index) view of a global position, index in [1, period]."""
    s, i = divmod(pos - 1, params.period)
    return s, i + 1


def join_pos(params: FamilyParams, shift: int, index: int) -> int:
    if not 1 <= index <= params.period:
        raise BadDistance(f"index {index} outside [1, {params.period}]")
    return shift * params.period + index


def index_of(params: FamilyParams, pos: int) -> int:
    return (pos - 1) % params.period + 1


def residue_class(params: FamilyParams, q: int) -> range:
    """Window indices congruent to q mod l, in increasing order."""
    return range((q - 1) % params.l + 1, params.period + 1, params.l)


def pos_label(params: FamilyParams, pos: int) -> str:
    """Human-readable name of the vertex at `pos`, e.g. "f4" or "s-1:f8"."""
    s, i = split_pos(params, pos)
    return f"f{i}" if s == 0 else f"s{s}:f{i}"


class SumObject(Record):
    """Finite multiset of vertex positions; the empty multiset is zero."""

    _fields = ("summands",)

    def __init__(self, summands: tuple[int, ...] = ()):
        object.__setattr__(self, "summands", tuple(sorted(summands)))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    @property
    def is_indec(self) -> bool:
        return len(self.summands) == 1

    def __len__(self) -> int:
        return len(self.summands)


ZERO_OBJ = SumObject()


def indec(pos: int) -> SumObject:
    return SumObject((pos,))


def hom_dim(params: FamilyParams, x: int, y: int) -> int:
    """Dimension (0 or 1) of the Hom space from vertex x to vertex y."""
    return 1 if 0 <= y - x <= params.l - 1 else 0


def _exact(e, where: str) -> Fraction:
    """`e` as a Fraction; anything but an exact rational raises TypeError."""
    if not isinstance(e, Rational):
        raise TypeError(f"{where} must be an int or a Fraction, got {e!r}")
    return Fraction(e)


def _check_cells(params, src, tgt, ents) -> bool:
    """Check the matrix shape and the support rule on the nonzero cells.

    Raises ShapeMismatch at a row count or row length other than the
    objects', and at the first nonzero cell, in row-major order, whose Hom
    space vanishes.  Returns False, with the scan unfinished, at the first
    row that is not a tuple or cell that is not a Fraction: such a matrix
    is converted and scanned again.
    """
    ncols, lmax = len(src), params.l - 1
    if len(ents) != len(tgt):
        raise ShapeMismatch(f"entry matrix must be {len(tgt)} x {ncols}")
    if type(ents) is not tuple:
        return False
    for i, (y, row) in enumerate(zip(tgt, ents)):
        if type(row) is not tuple:
            return False
        if len(row) != ncols:
            raise ShapeMismatch(f"entry matrix must be {len(tgt)} x {ncols}")
        for x, e in zip(src, row):
            if type(e) is not Fraction:
                return False
            if not 0 <= y - x <= lmax and e:
                j = next(j for j, (q, c) in enumerate(zip(src, row))
                         if c and not 0 <= y - q <= lmax)
                raise ShapeMismatch(f"entry ({i}, {j}) nonzero but Hom({x} -> {y}) = 0")
    return True


class Morphism(Record):
    """Rational matrix between two sum objects, rows indexed by the target.

    Entry (i, j) is the coefficient of the basis morphism from source
    summand j to target summand i; it must vanish whenever that Hom space
    does (support rule).  Entries must be exact rationals: `int` or
    `Fraction` (any `numbers.Rational`), in any sequence of sequences.
    They are stored as a tuple of tuples of `Fraction`; a matrix already
    in that form is kept as it is, anything else is converted, and a
    float, `Decimal` or string entry raises TypeError naming its cell.
    """

    _fields = ("params", "source", "target", "entries")
    __hash__ = Record.__hash__  # the own `__eq__` below would otherwise unset it

    def __init__(self, params: FamilyParams, source: SumObject, target: SumObject, entries):
        src, tgt = source.summands, target.summands
        if not _check_cells(params, src, tgt, entries):
            entries = tuple(
                tuple(_exact(e, f"entry ({i}, {j})") for j, e in enumerate(row))
                for i, row in enumerate(entries)
            )
            _check_cells(params, src, tgt, entries)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):  # spelled out, ends compared as positions: a hot path
        return ((self.params, self.source.summands, self.target.summands, self.entries)
                == (other.params, other.source.summands, other.target.summands, other.entries)
                if other.__class__ is self.__class__ else NotImplemented)

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.entries))


def zero_mor(params: FamilyParams, source: SumObject, target: SumObject) -> Morphism:
    ents = ((_ZERO,) * len(source),) * len(target)
    return Morphism(params, source, target, ents)


def _eye(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple((_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - 1 - i) for i in range(n))


def identity_mor(params: FamilyParams, obj: SumObject) -> Morphism:
    return Morphism(params, obj, obj, _eye(len(obj)))


def basis_mor(params: FamilyParams, x: int, y: int) -> Morphism:
    """Canonical basis morphism u(x -> y) with coefficient one."""
    if not hom_dim(params, x, y):
        raise ZeroHom(
            f"Hom({pos_label(params, x)} -> {pos_label(params, y)}) = 0 "
            f"(distance {y - x} outside [0, {params.l - 1}])"
        )
    return Morphism(params, indec(x), indec(y), ((_ONE,),))


def scale(mor: Morphism, c) -> Morphism:
    """c * mor for an exact rational c (int or Fraction); TypeError otherwise."""
    c = _exact(c, "scalar")
    ents = tuple(tuple(c * e for e in row) for row in mor.entries)
    return Morphism(mor.params, mor.source, mor.target, ents)


def _cells(tgt, grows, src, fents, lmax: int):
    """Nonzero cells (i, j, value) of grows * fents, rows at positions tgt
    and columns at src, masked by the support rule of the composite: row z
    keeps the columns in [z - lmax, z], lmax = l - 1.  A cell sums its
    nonzero products in integers, over the product of their denominators.
    `compose` and the Hom-exactness test share it."""
    for i, (z, grow) in enumerate(zip(tgt, grows)):
        for j in range(bisect_left(src, z - lmax), bisect_right(src, z)):
            num, den = 0, 1
            for a, frow in zip(grow, fents):
                (an, ad), (bn, bd) = a.as_integer_ratio(), frow[j].as_integer_ratio()
                if an and bn:
                    num, den = num * ad * bd + an * bn * den, den * ad * bd
            if num:
                yield i, j, Fraction(num, den)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Composite g after f under the structure rule u(y->z)u(x->y) = u(x->z):
    the cells of `_cells` written over the shared zero."""
    p = f.params
    if g.params is not p and g.params != p:
        raise ShapeMismatch("morphisms live over different parameters")
    if f.target.summands != g.source.summands:
        raise ShapeMismatch("compose needs target(f) = source(g)")
    src, tgt = f.source.summands, g.target.summands
    ents = [[_ZERO] * len(src) for _ in tgt]
    for i, j, v in _cells(tgt, g.entries, src, f.entries, p.l - 1):
        ents[i][j] = v
    return Morphism(p, f.source, g.target, tuple(map(tuple, ents)))


def shift_obj(params: FamilyParams, obj: SumObject, r: int) -> SumObject:
    return SumObject(tuple(pos + r * params.period for pos in obj.summands))


def shift_mor(mor: Morphism, r: int) -> Morphism:
    p = mor.params
    return Morphism(
        p, shift_obj(p, mor.source, r), shift_obj(p, mor.target, r), mor.entries
    )


def direct_sum_obj(first: SumObject, *rest: SumObject) -> SumObject:
    return SumObject(first.summands + tuple(q for o in rest for q in o.summands))


def direct_sum_mor(first: Morphism, *rest: Morphism) -> Morphism:
    """Block diagonal sum, re-indexed along the canonical summand order.

    Each summand slot is tagged (position, block, index) and the tags are
    sorted, so equal positions keep block order; an entry is copied exactly
    when its row and column come from the same block.
    """
    mors = (first, *rest)
    p = first.params
    if any(m.params is not p and m.params != p for m in rest):
        raise ShapeMismatch("morphisms live over different parameters")
    src_tags = sorted(
        (pos, b, j) for b, m in enumerate(mors) for j, pos in enumerate(m.source.summands)
    )
    tgt_tags = sorted(
        (pos, b, i) for b, m in enumerate(mors) for i, pos in enumerate(m.target.summands)
    )
    ents = tuple(
        tuple(mors[tb].entries[i][j] if tb == sb else _ZERO for _, sb, j in src_tags)
        for _, tb, i in tgt_tags
    )
    return Morphism(
        p,
        direct_sum_obj(*(m.source for m in mors)),
        direct_sum_obj(*(m.target for m in mors)),
        ents,
    )


def is_radical(f: Morphism) -> bool:
    """No invertible component between isomorphic summands.

    Endomorphism rings of vertices are one dimensional, so this reduces to
    the vanishing of every entry between equal positions.
    """
    return all(
        f.entries[i][j] == 0
        for i, y in enumerate(f.target.summands)
        for j, x in enumerate(f.source.summands)
        if x == y
    )


def _right_column(f: Morphism, q: int):
    """One column, at position q, of the system g -> f o g.

    The unknowns are the cells k of that column of g that the distance rule
    keeps (0 <= src_k - q <= l - 1) and the equations the cells i of that
    column of f o g it keeps (0 <= tgt_i - q <= l - 1); both are windows of
    the sorted summands, found by bisection.  Returns the unknowns, the
    equations and the coefficient rows.
    """
    top = q + f.params.l - 1
    src, tgt = f.source.summands, f.target.summands
    ks = range(bisect_left(src, q), bisect_right(src, top))
    eqs = range(bisect_left(tgt, q), bisect_right(tgt, top))
    return ks, eqs, [f.entries[i][ks.start:ks.stop] for i in eqs]


def _right_solve(f: Morphism, a: tuple[int, ...], rhs):
    """Entries of one g: a -> source(f) with f o g = rhs, or None; `a` holds
    the positions of g's source, so a test object is never built.

    Column j of f o g reads only column j of g, so the system is one small
    system per column, solved with its free cells at zero: the factor the
    whole system would give, whose pivots are the union of the columns'.
    """
    ents = [[_ZERO] * len(a) for _ in range(len(f.source))]
    for j, q in enumerate(a):
        ks, eqs, rows = _right_column(f, q)
        sol = linalg.solve(rows, [rhs[i][j] for i in eqs], len(ks))
        if sol is None:
            return None
        for k, v in zip(ks, sol):
            ents[k][j] = v
    return ents


def _left_solve(f: Morphism, c: tuple[int, ...], rhs):
    """Entries of one g: target(f) -> c with g o f = rhs, or None; `c` holds
    the positions of g's target.

    The mirror of `_right_solve`: row i of g o f reads only row i of g, so
    the system is one small system per row, at position q = c_i, over the
    cells k with 0 <= q - tgt_k <= l - 1 and the equations j with
    0 <= q - src_j <= l - 1, both windows of the sorted summands found by
    bisection.
    """
    lmax = f.params.l - 1
    src, tgt = f.source.summands, f.target.summands
    ents = []
    for i, q in enumerate(c):
        ks = range(bisect_left(tgt, q - lmax), bisect_right(tgt, q))
        eqs = range(bisect_left(src, q - lmax), bisect_right(src, q))
        rows = [[f.entries[k][j] for k in ks] for j in eqs]
        sol = linalg.solve(rows, [rhs[i][j] for j in eqs], len(ks))
        if sol is None:
            return None
        row = [_ZERO] * len(f.target)
        for k, v in zip(ks, sol):
            row[k] = v
        ents.append(row)
    return ents


def right_factor(f: Morphism, t: Morphism) -> Morphism | None:
    """A morphism g with f o g = t, or None when t does not factor through f."""
    if f.params is not t.params and f.params != t.params or f.target.summands != t.target.summands:
        raise ShapeMismatch("right_factor needs target(f) = target(t)")
    ents = _right_solve(f, t.source.summands, t.entries)
    if ents is None:
        return None
    return Morphism(f.params, t.source, f.source, tuple(map(tuple, ents)))


def left_factor(f: Morphism, t: Morphism) -> Morphism | None:
    """A morphism g with g o f = t, or None when t does not extend along f."""
    if f.params is not t.params and f.params != t.params or f.source.summands != t.source.summands:
        raise ShapeMismatch("left_factor needs source(f) = source(t)")
    ents = _left_solve(f, t.target.summands, t.entries)
    if ents is None:
        return None
    return Morphism(f.params, f.target, t.target, tuple(map(tuple, ents)))


def is_split_epi(f: Morphism) -> bool:
    return _right_solve(f, f.target.summands, _eye(len(f.target))) is not None


def is_split_mono(f: Morphism) -> bool:
    return _left_solve(f, f.source.summands, _eye(len(f.source))) is not None


def is_iso(f: Morphism) -> bool:
    return is_split_epi(f) and is_split_mono(f)
