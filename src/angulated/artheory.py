"""Auslander-Reiten angles, covers, and their raw-definition checkers.

Constructions (ar_angle, cover, ar_angle_in) are closed-form position
arithmetic; the checkers (almost split, minimal, precover, cover) go back
to the definitions and quantify over indecomposable test objects inside
the Hom support window.  Quantifying over sums reduces to indecomposables
by additivity, and over general morphisms to basis morphisms because
every Hom space is at most one dimensional.  A checker's test maps are
the columns (rows, on the left) of one test morphism, and one exact
factorisation asks for all of them: one small system per column of the
factor (per row on the left), as column j of f o g reads only column j of g.
Every checker first asks that the map or angle live over the spec's
parameters (ShapeMismatch otherwise), and a map whose source (target, on
the left) lies outside the subcategory approximates nothing in it: False.
"""

from . import linalg
from .angles import Angle, _degenerate_angle, _min_positions, min_angle
from .core import (
    FamilyParams,
    InternalError,
    Morphism,
    NotMember,
    NotWide,
    Record,
    ShapeMismatch,
    SumObject,
    ZERO_OBJ,
    _ONE,
    _ZERO,
    _left_solve,
    _right_column,
    _right_solve,
    basis_mor,
    indec,
    is_radical,
    is_split_epi,
    is_split_mono,
    zero_mor,
)
from .wide import SubcatSpec, is_wide


class CoverResult(Record):
    """Best approximation from a subcategory: zero or a single vertex."""

    _fields = ("source", "mor")

    def __init__(self, source: SumObject, mor: Morphism):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "mor", mor)


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


def _same_params(spec: SubcatSpec, params: FamilyParams) -> None:
    """The gate of every checker: a map or an angle over other parameters than
    the spec's has no verdict, so ShapeMismatch.  The record is compared by
    identity first, by equality only when it is another object."""
    if spec.params is not params and spec.params != params:
        raise ShapeMismatch("spec and checked map or angle live over different parameters")


def is_right_almost_split(spec: SubcatSpec, xi: Morphism) -> bool:
    """xi is not split epi and every non-retraction into its target factors.

    The target must be a member vertex; a source outside the subcategory
    gives False.  The test maps are the basis morphisms from the member
    vertices w != pos in the Hom window, the columns of one test morphism
    from their sum; scalar multiples and sums factor iff these do, and
    endomorphisms of the target are either isomorphisms (excluded) or zero
    (factor trivially).  No test map is a retraction: Hom(pos, w) = 0 for
    w < pos.
    """
    _same_params(spec, xi.params)
    tgt = xi.target
    if not tgt.is_indec:
        raise NotMember("right almost split test needs a single vertex target")
    pos = tgt.summands[0]
    if not spec.contains_pos(pos):
        raise NotMember(f"target at position {pos} is not a member")
    if not spec.contains_obj(xi.source) or is_split_epi(xi):
        return False
    ws = SumObject(tuple(filter(spec.contains_pos, range(pos - spec.params.l + 1, pos))))
    return _right_solve(xi, ws, ((_ONE,) * len(ws),)) is not None


def is_left_almost_split(spec: SubcatSpec, xi: Morphism) -> bool:
    """Dual test on the source: every non-section out of it extends along xi.

    A target outside the subcategory gives False.  The test maps go to the
    member vertices w != pos in the Hom window, the rows of one test
    morphism into their sum; none is a section, because Hom(w, pos) = 0
    for w > pos.
    """
    _same_params(spec, xi.params)
    src = xi.source
    if not src.is_indec:
        raise NotMember("left almost split test needs a single vertex source")
    pos = src.summands[0]
    if not spec.contains_pos(pos):
        raise NotMember(f"source at position {pos} is not a member")
    if not spec.contains_obj(xi.target) or is_split_mono(xi):
        return False
    ws = SumObject(tuple(filter(spec.contains_pos, range(pos + 1, pos + spec.params.l))))
    return _left_solve(xi, ws, ((_ONE,),) * len(ws)) is not None


def is_right_minimal(xi: Morphism) -> bool:
    """Every endomorphism phi of the source with xi o phi = xi is invertible.

    The solution set is id + K with K the kernel of phi -> xi o phi, a
    right ideal of the endomorphism ring; all of id + K is invertible
    exactly when K sits inside the radical, which is a linear condition
    checked on a nullspace basis.  Column j of xi o phi reads only column
    j of phi, so K is the sum of one nullspace per summand of the source,
    and a vector of the column at position q escapes the radical exactly
    when it is nonzero at a summand at position q.  It takes no spec:
    minimality reads only endomorphisms of the source, so inside any full
    subcategory that holds the source it is the same test.
    """
    src = xi.source.summands
    for q in src:
        ks, _, rows = _right_column(xi, q)
        for vec in linalg.nullspace(rows, len(ks)):
            if any(v and src[k] == q for k, v in zip(ks, vec)):
                return False  # psi with xi o psi = 0 escaping the radical
    return True


def is_precover(spec: SubcatSpec, xi: Morphism) -> bool:
    """xi has a member source (zero is one), and every morphism from a member
    object into target(xi) factors through xi.

    The test maps are the elementary morphisms, from a member vertex w in
    the Hom window of target summand i, basis component into i: the
    columns e_i of one test morphism, in the order of (w, i).
    """
    _same_params(spec, xi.params)
    if not spec.contains_obj(xi.source):
        return False
    l, tgt = spec.params.l, xi.target.summands
    cols = sorted((w, i) for i, q in enumerate(tgt) for w in range(q - l + 1, q + 1)
                  if spec.contains_pos(w))
    rhs = tuple(tuple(_ONE if i == r else _ZERO for _, i in cols) for r in range(len(tgt)))
    return _right_solve(xi, SumObject(tuple(w for w, _ in cols)), rhs) is not None


def is_cover(spec: SubcatSpec, xi: Morphism) -> bool:
    return is_precover(spec, xi) and is_right_minimal(xi)


def is_ar_angle(spec: SubcatSpec, a: Angle) -> bool:
    """Definition-level AR test inside the subcategory presented by `spec`.

    Requires every object of the angle to be a member (NotMember
    otherwise); then checks: first map left almost split, last-but-one map
    right almost split, all strictly middle maps radical.
    """
    p = a.params
    _same_params(spec, p)
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


class TheoremBReport(Record):
    """Machine-checked equivalence between covers and subcategory AR angles."""

    _fields = ("cover_result", "sub_angle", "cover_is_cover", "sub_is_ar", "head_matches_cover")

    def __init__(self, cover_result, sub_angle, cover_is_cover, sub_is_ar, head_matches_cover):
        object.__setattr__(self, "cover_result", cover_result)
        object.__setattr__(self, "sub_angle", sub_angle)
        object.__setattr__(self, "cover_is_cover", cover_is_cover)
        object.__setattr__(self, "sub_is_ar", sub_is_ar)
        object.__setattr__(self, "head_matches_cover", head_matches_cover)

    @property
    def ok(self) -> bool:
        # both sides of the biconditional must hold together, and the
        # subcategory angle must start at the cover source
        return self.cover_is_cover and self.sub_is_ar and self.head_matches_cover


def theorem_b_check(spec: SubcatSpec, pos: int) -> TheoremBReport:
    """Cross-check the cover <-> AR-angle correspondence at one member vertex.

    Takes the subcategory cover of the initial object of the ambient AR
    angle ending at `pos`, and the subcategory AR angle ending at `pos`
    (`ar_angle_in` raises NotWide and NotMember); then verifies with the
    raw-definition checkers that the cover is a cover, the angle is an AR
    angle in the subcategory, and that it starts at the cover source.  The
    ambient angle, `min_angle(u(pos-1 -> pos))`, is not built: its initial
    object is read from `_min_positions`, which checks the gap law, so the
    closed form `pos - m` of `ar_angle_in` is not trusted.
    """
    head = _min_positions(spec.params, pos - 1, pos)[0]
    cov = cover(spec, head)
    sub = ar_angle_in(spec, pos)
    return TheoremBReport(
        cover_result=cov,
        sub_angle=sub,
        cover_is_cover=is_cover(spec, cov.mor),
        sub_is_ar=is_ar_angle(spec, sub),
        head_matches_cover=sub.objects[0].summands == cov.source.summands,
    )
