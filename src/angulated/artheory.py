"""Auslander-Reiten angles, covers, and their raw-definition checkers.

Constructions (ar_angle, cover, ar_angle_in) are closed-form position
arithmetic; the checkers (almost split, minimal, precover, cover) go back
to the definitions and quantify over indecomposable test objects inside
the Hom support window.  Each factorisation is exact rational linear
algebra, one small system per column of the factor (per row for a factor
on the left): column j of f o g reads only column j of g.  Quantifying
over sums reduces to indecomposables by additivity, and over general
morphisms to basis morphisms because every Hom space is at most one
dimensional.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .angles import Angle, _degenerate_angle, min_angle
from .core import (
    FamilyParams,
    InternalError,
    Morphism,
    NotMember,
    NotWide,
    SumObject,
    ZERO_OBJ,
    _left_solve,
    _right_column,
    _right_solve,
    basis_mor,
    hom_dim,
    indec,
    is_radical,
    is_split_epi,
    is_split_mono,
    zero_mor,
)
from .wide import SubcatSpec, is_wide

_BASIS = ((Fraction(1),),)  # entries of the basis morphism u(x -> y)


@dataclass(frozen=True)
class CoverResult:
    """Best approximation from a subcategory: zero or a single vertex."""

    source: SumObject
    mor: Morphism


def ar_angle(params: FamilyParams, pos: int) -> Angle:
    """The AR angle of the ambient category ending at the vertex `pos`.

    This is the minimal angle on the irreducible arrow into `pos`; its
    last-but-one map is right almost split and its first map is left
    almost split.
    """
    return min_angle(basis_mor(params, pos - 1, pos))


def cover(spec: SubcatSpec, pos: int) -> CoverResult:
    """Rightmost member within Hom range of `pos`, mapped by its basis morphism.

    Scans positions pos, pos-1, ..., pos-l+1 (the only sources of nonzero
    maps into `pos`) and returns the first member found; when the window
    contains no member the zero object with the zero morphism is the cover.
    """
    p = spec.params
    for w in range(pos, pos - p.l, -1):
        if spec.contains_pos(w):
            return CoverResult(indec(w), basis_mor(p, w, pos))
    return CoverResult(ZERO_OBJ, zero_mor(p, ZERO_OBJ, indec(pos)))


def ar_angle_in(spec: SubcatSpec, pos: int) -> Angle:
    """The AR angle of the subcategory ending at the member vertex `pos`.

    Let fbar be the initial vertex (position pos - m) of the ambient AR
    angle and w the cover of fbar from the subcategory; w always exists
    because pos - period sits in the scan window and is a member.  When w
    falls in the same residue class as pos mod l the two progressions
    collapse and the angle degenerates to
    shift(x,-1) -> 0 -> ... -> 0 -> x with identity connector; otherwise
    the angle runs over the merged progressions w + r*l and pos - r*l,
    which is the minimal angle on the basis morphism w + m - 1 -> pos.
    """
    p = spec.params
    if not is_wide(spec):
        raise NotWide(f"spec {list(spec.indices)} is not wide")
    if not spec.contains_pos(pos):
        raise NotMember(f"vertex at position {pos} is not a member")
    fbar = pos - p.m
    w = cover(spec, fbar).source
    if w.is_zero:  # pos - period is a member inside the scan window
        raise InternalError(f"no cover of {fbar} in spec {list(spec.indices)}")
    wpos = w.summands[0]
    if (wpos - pos) % p.l == 0:
        return _degenerate_angle(p, pos)
    return min_angle(basis_mor(p, wpos + p.m - 1, pos))


def _member_sources(spec: SubcatSpec, pos: int) -> list[int]:
    """Member vertices with a nonzero map into `pos`, excluding `pos` itself."""
    p = spec.params
    return [w for w in range(pos - p.l + 1, pos) if spec.contains_pos(w)]


def _member_targets(spec: SubcatSpec, pos: int) -> list[int]:
    p = spec.params
    return [w for w in range(pos + 1, pos + p.l) if spec.contains_pos(w)]


def is_right_almost_split(spec: SubcatSpec, xi: Morphism) -> bool:
    """xi is not split epi and every non-retraction into its target factors.

    The target must be a member vertex.  Test morphisms are the basis
    morphisms from the member vertices w != pos in the Hom window; scalar
    multiples and sums factor iff these do, and endomorphisms of the target
    are either isomorphisms (excluded) or zero (factor trivially).  No test
    morphism is a retraction: Hom(pos, w) = 0 for w < pos.
    """
    tgt = xi.target
    if not tgt.is_indec:
        raise NotMember("right almost split test needs a single vertex target")
    pos = tgt.summands[0]
    if not spec.contains_pos(pos):
        raise NotMember(f"target at position {pos} is not a member")
    if is_split_epi(xi):
        return False
    for w in _member_sources(spec, pos):
        if _right_solve(xi, indec(w), _BASIS) is None:
            return False
    return True


def is_left_almost_split(spec: SubcatSpec, xi: Morphism) -> bool:
    """Dual test on the source: every non-section out of it extends along xi.

    The test morphisms go to the member vertices w != pos in the Hom
    window; none is a section, because Hom(w, pos) = 0 for w > pos.
    """
    src = xi.source
    if not src.is_indec:
        raise NotMember("left almost split test needs a single vertex source")
    pos = src.summands[0]
    if not spec.contains_pos(pos):
        raise NotMember(f"source at position {pos} is not a member")
    if is_split_mono(xi):
        return False
    for w in _member_targets(spec, pos):
        if _left_solve(xi, indec(w), _BASIS) is None:
            return False
    return True


def is_right_minimal(xi: Morphism) -> bool:
    """Every endomorphism phi of the source with xi o phi = xi is invertible.

    The solution set is id + K with K the kernel of phi -> xi o phi, a
    right ideal of the endomorphism ring; all of id + K is invertible
    exactly when K sits inside the radical, which is a linear condition
    checked on a nullspace basis.  Column j of xi o phi reads only column
    j of phi, so K is the sum of one nullspace per summand of the source,
    and a vector of the column at position q escapes the radical exactly
    when it is nonzero at a summand at position q.
    """
    src = xi.source.summands
    for q in src:
        ks, _, rows = _right_column(xi, q)
        for vec in linalg.nullspace(rows, len(ks)):
            if any(v and src[k] == q for k, v in zip(ks, vec)):
                return False  # psi with xi o psi = 0 escaping the radical
    return True


def is_precover(spec: SubcatSpec, xi: Morphism) -> bool:
    """Every morphism from a member object into target(xi) factors through xi.

    Reduced to elementary morphisms: one member source vertex, one basis
    component into a single summand of the target.
    """
    p = spec.params
    tgt = xi.target
    ok_sources = set()
    for q in tgt.summands:
        for w in range(q - p.l + 1, q + 1):
            if spec.contains_pos(w):
                ok_sources.add(w)
    for w in sorted(ok_sources):
        for i, q in enumerate(tgt.summands):
            if not hom_dim(p, w, q):
                continue
            elem = tuple((Fraction(1 if r == i else 0),) for r in range(len(tgt)))
            if _right_solve(xi, indec(w), elem) is None:
                return False
    return True


def is_cover(spec: SubcatSpec, xi: Morphism) -> bool:
    return is_precover(spec, xi) and is_right_minimal(xi)


def is_ar_angle(spec: SubcatSpec, a: Angle) -> bool:
    """Definition-level AR test inside the subcategory presented by `spec`.

    Requires every object of the angle to be a member (NotMember
    otherwise); then checks: first map left almost split, last-but-one map
    right almost split, all strictly middle maps radical.
    """
    p = a.params
    for o in a.objects:
        if not spec.contains_obj(o):
            raise NotMember("angle has objects outside the subcategory")
    first, last = a.objects[0], a.objects[-1]
    if not (first.is_indec and last.is_indec):
        return False
    if not is_left_almost_split(spec, a.maps[0]):
        return False
    if not is_right_almost_split(spec, a.maps[p.d]):
        return False
    return all(is_radical(a.maps[k]) for k in range(1, p.d))


@dataclass(frozen=True)
class TheoremBReport:
    """Machine-checked equivalence between covers and subcategory AR angles."""

    ambient: Angle
    cover_result: CoverResult
    sub_angle: Angle
    cover_is_cover: bool
    sub_is_ar: bool
    head_matches_cover: bool

    @property
    def ok(self) -> bool:
        # both sides of the biconditional must hold together, and the
        # subcategory angle must start at the cover source
        return self.cover_is_cover and self.sub_is_ar and self.head_matches_cover


def theorem_b_check(spec: SubcatSpec, pos: int) -> TheoremBReport:
    """Cross-check the cover <-> AR-angle correspondence at one member vertex.

    Computes the ambient AR angle ending at `pos`, the subcategory cover of
    its initial object, and the subcategory AR angle ending at `pos`; then
    verifies with the raw-definition checkers that the cover really is a
    cover, the constructed angle really is an AR angle in the subcategory,
    and that its initial object equals the cover source.  The gates live
    here and the cross-check in `_theorem_b`, which `verify_ar` calls with
    the ambient angle it has already built and checked.
    """
    if not is_wide(spec):
        raise NotWide(f"spec {list(spec.indices)} is not wide")
    if not spec.contains_pos(pos):
        raise NotMember(f"vertex at position {pos} is not a member")
    return _theorem_b(spec, pos, ar_angle(spec.params, pos))


def _theorem_b(spec: SubcatSpec, pos: int, ambient: Angle) -> TheoremBReport:
    """The cross-check of `theorem_b_check`, given `ar_angle(params, pos)`."""
    head = ambient.objects[0].summands[0]
    cov = cover(spec, head)
    sub = ar_angle_in(spec, pos)
    return TheoremBReport(
        ambient=ambient,
        cover_result=cov,
        sub_angle=sub,
        cover_is_cover=is_cover(spec, cov.mor),
        sub_is_ar=is_ar_angle(spec, sub),
        head_matches_cover=sub.objects[0] == cov.source,
    )
