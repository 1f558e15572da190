"""Wide subcategories: classification, enumeration and cross-validation.

A subcategory spec is a set S of indices in the fundamental window; it
presents the additive closure of the vertices whose index lies in S,
automatically closed under both period shifts.  Wideness has a closed-form
classification (pairwise distances in [l, m-1], or closure of S under
adding l) and an independent first-principles oracle that checks closure
under d-extensions on minimal angles.
"""

from dataclasses import dataclass
from itertools import combinations

from .core import BadDistance, FamilyParams, SumObject, index_of, residue_class


@dataclass(frozen=True)
class SubcatSpec:
    """Sorted index set inside [1, period], shift-closure built in."""

    params: FamilyParams
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(self.indices)))
        for i in idx:
            if not 1 <= i <= self.params.period:
                raise BadDistance(f"index {i} outside [1, {self.params.period}]")
        object.__setattr__(self, "indices", idx)

    def contains_pos(self, pos: int) -> bool:
        return index_of(self.params, pos) in self.indices

    def contains_obj(self, obj: SumObject) -> bool:
        return all(index_of(self.params, q) in self.indices for q in obj.summands)


def full_spec(params: FamilyParams) -> SubcatSpec:
    return SubcatSpec(params, tuple(range(1, params.period + 1)))


def empty_spec(params: FamilyParams) -> SubcatSpec:
    return SubcatSpec(params, ())


def is_semisimple_wide(spec: SubcatSpec) -> bool:
    """All pairwise index distances lie in [l, m-1]."""
    p = spec.params
    return all(
        p.l <= abs(a - b) <= p.m - 1 for a, b in combinations(spec.indices, 2)
    )


def is_l_periodic(spec: SubcatSpec) -> bool:
    """S is a union of residue classes mod l inside the window."""
    members = set(spec.indices)
    return all(members.issuperset(residue_class(spec.params, q)) for q in spec.indices)


def is_wide(spec: SubcatSpec) -> bool:
    return is_semisimple_wide(spec) or is_l_periodic(spec)


def wide_oracle_witness(spec: SubcatSpec):
    """First-principles closure check; None on pass, else a witness.

    Shift closure is structural, so the only condition is closure under
    d-extensions.  Every connecting morphism between members is a scalar
    multiple of a basis morphism of some distance in [0, l-1]; distance 0
    connectors are isomorphisms and bound a contractible angle with zero
    middles, and a zero connector bounds a split angle, so both pass.  For
    distance 1..l-1 the unique angle with radical middle maps has middle
    vertices at source - r*l and target - r*l for r = 1..d/2; closure holds
    exactly when all of those are members.  A failure is reported as
    (source position, connector target position, offending middle position).
    """
    p = spec.params
    members = set(spec.indices)
    for src in spec.indices:
        for tgt in range(src + 1, src + p.l):
            if index_of(p, tgt) not in members:
                continue
            for r in range(1, p.d // 2 + 1):
                for middle in (src - r * p.l, tgt - r * p.l):
                    if index_of(p, middle) not in members:
                        return (src, tgt, middle)
    return None


def is_wide_oracle(spec: SubcatSpec) -> bool:
    return wide_oracle_witness(spec) is None


def enumerate_wide(params: FamilyParams) -> list[SubcatSpec]:
    """All wide specs in lexicographic order, built without a power-set scan.

    Semisimple sets are grown by backtracking (consecutive gaps >= l and
    total spread <= m-1 force all pairwise constraints); the others are
    unions of residue classes mod l.
    """
    found = {(): None}
    # semisimple branch
    stack = [(first,) for first in range(1, params.period + 1)]
    while stack:
        s = stack.pop()
        found[s] = None
        last, first = s[-1], s[0]
        nxt = last + params.l
        while nxt <= params.period and nxt - first <= params.m - 1:
            stack.append(s + (nxt,))
            nxt += 1
    # l-periodic branch: unions of the l residue classes
    classes = [residue_class(params, q) for q in range(1, params.l + 1)]
    for n in range(1, params.l + 1):
        for chosen in combinations(classes, n):
            found[tuple(sorted(q for cls in chosen for q in cls))] = None
    return [SubcatSpec(params, s) for s in sorted(found)]


def bar(spec: SubcatSpec):
    """Membership predicate on vertex positions induced by the spec."""
    return spec.contains_pos


def unbar(params: FamilyParams, pred) -> SubcatSpec:
    """Spec carved out of a shift-equivariant membership predicate.

    Intersecting with the fundamental window recovers the index set; the
    predicate is assumed invariant under period translation (structural
    for predicates produced by `bar`).
    """
    return SubcatSpec(params, tuple(i for i in range(1, params.period + 1) if pred(i)))
