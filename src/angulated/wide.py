"""Wide subcategories: classification, enumeration and cross-validation.

A subcategory spec is a set S of indices in the fundamental window; it
presents the additive closure of the vertices whose index lies in S,
automatically closed under both period shifts.  Wideness has a closed-form
classification (pairwise distances in [l, m-1], or closure of S under
adding l) and an independent first-principles oracle that checks closure
under d-extensions on minimal angles.

Each test is written once, as a generator of implication rules on vertex
positions (`semisimple_rules`, `periodic_rules`, `closure_rules`).  A spec
passes a test when it breaks no rule generated from its members, and
`models` lists the index sets that break no rule by an exact search that
never visits the power set.
"""

from itertools import combinations

from .core import BadDistance, FamilyParams, Record, SumObject, index_of, residue_class


class SubcatSpec(Record):
    """Sorted index set inside [1, period], shift-closure built in."""

    _fields = ("params", "indices")

    def __init__(self, params: FamilyParams, indices: tuple[int, ...]):
        for i in indices:
            if not isinstance(i, int) or isinstance(i, bool):
                raise TypeError(f"index must be an integer, got {i!r}")
        idx = tuple(sorted(set(indices)))
        for i in idx:
            if not 1 <= i <= params.period:
                raise BadDistance(f"index {i} outside [1, {params.period}]")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "indices", idx)

    def contains_pos(self, pos: int) -> bool:
        return index_of(self.params, pos) in self.indices

    def contains_obj(self, obj: SumObject) -> bool:
        return all(index_of(self.params, q) in self.indices for q in obj.summands)


def full_spec(params: FamilyParams) -> SubcatSpec:
    return SubcatSpec(params, tuple(range(1, params.period + 1)))


def empty_spec(params: FamilyParams) -> SubcatSpec:
    return SubcatSpec(params, ())


# A rule is a pair (given, then) of tuples of vertex positions, read through
# their window index: if every position in `given` is a member, so must every
# position in `then` be, in order; then=None forbids `given` from being all
# members.  A rule generator takes (params, members), members a sorted
# iterable of window indices, and yields in a fixed order every rule of its
# test whose `given` positions all have their index among the members.


def semisimple_rules(params: FamilyParams, members):
    """A member pair at an index distance outside [l, m-1] is forbidden."""
    for a, b in combinations(members, 2):
        if not params.l <= b - a <= params.m - 1:
            yield (a, b), None


def periodic_rules(params: FamilyParams, members):
    """A member brings its whole residue class mod l inside the window."""
    for q in members:
        yield (q,), tuple(residue_class(params, q))


def closure_rules(params: FamilyParams, members):
    """A member pair at distance 1..l-1 brings the middles of its angle.

    Shift closure is structural, so the only condition is closure under
    d-extensions.  Every connecting morphism between members is a scalar
    multiple of a basis morphism of some distance in [0, l-1]; distance 0
    connectors are isomorphisms and bound a contractible angle with zero
    middles, and a zero connector bounds a split angle, so both pass.  For
    distance 1..l-1 the unique angle with radical middle maps has middle
    vertices at source - r*l and target - r*l for r = 1..d/2, listed in that
    order.
    """
    inside = set(members)
    shifts = [r * params.l for r in range(1, params.d // 2 + 1)]
    for src in members:
        for tgt in range(src + 1, src + params.l):
            if index_of(params, tgt) in inside:
                yield (src, tgt), tuple(x - s for s in shifts for x in (src, tgt))


def _first_broken(spec: SubcatSpec, rules):
    """(given, first position of `then` outside the spec, or None for a
    forbidden set) of the first rule generated from the spec's members that
    it breaks; None if it breaks none."""
    p = spec.params
    inside = set(spec.indices)
    for given, then in rules(p, spec.indices):
        if then is None:
            return given, None
        if inside.issuperset(then):  # window positions are their own index
            continue
        for x in then:
            if index_of(p, x) not in inside:
                return given, x
    return None


def is_semisimple_wide(spec: SubcatSpec) -> bool:
    """All pairwise index distances lie in [l, m-1]."""
    return _first_broken(spec, semisimple_rules) is None


def is_l_periodic(spec: SubcatSpec) -> bool:
    """S is a union of residue classes mod l inside the window."""
    return _first_broken(spec, periodic_rules) is None


def is_wide(spec: SubcatSpec) -> bool:
    return is_semisimple_wide(spec) or is_l_periodic(spec)


def wide_oracle_witness(spec: SubcatSpec):
    """First-principles closure check (`closure_rules`); None on pass.

    A failure is reported as (source position, connector target position,
    offending middle position).
    """
    broken = _first_broken(spec, closure_rules)
    return None if broken is None else (*broken[0], broken[1])


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


def models(params: FamilyParams, rules) -> list[tuple[int, ...]]:
    """Every index set of the window that breaks no rule, in lexicographic order.

    Each rule over the whole window is split into one part per position of
    `then` (the rule breaks exactly when a part does), written as bit masks
    and filed under the largest index i it mentions.  The search extends
    every surviving set over 1..i-1 by joining or skipping i and tests the
    parts filed under i, whose indices are then all decided: a part whose
    `given` holds i can only break if i joins, one that brings i only if i
    is skipped.  A set that breaks a part has no extension that mends it,
    and no other set is dropped, so the result is the power-set filter.

    The filter is rule-major: the sets that join i pass through one list
    comprehension per part whose `given` holds i, the sets that skip i
    through one per part that brings i, and only the survivors take bit i.
    """
    per = params.period
    bit = lambda x: 1 << (index_of(params, x) - 1)
    # joins[i]: (rest of given, needed bit); needed bit 0 for a forbidden set
    # skips[i]: given of a part that brings i
    joins = [[] for _ in range(per + 1)]
    skips = [[] for _ in range(per + 1)]
    for given, then in rules(params, range(1, per + 1)):
        given = sum({bit(x) for x in given})  # distinct bits: the sum is the union
        for need in [0] if then is None else {bit(x) for x in then}:
            if need & given:
                continue
            top = (given | need).bit_length()
            if need.bit_length() == top:
                skips[top].append(given)
            else:
                joins[top].append((given ^ 1 << (top - 1), need))
    # a part filed under 0, a forbidden empty `given`, is broken by every set
    masks = [] if skips[0] else [0]
    for i in range(1, per + 1):
        joined = skipped = masks
        for rest, need in joins[i]:
            joined = [m for m in joined if m & rest != rest or m & need]
        for given in skips[i]:
            skipped = [m for m in skipped if m & given != given]
        i_bit = 1 << (i - 1)
        masks = [m | i_bit for m in joined] + skipped
    return sorted(tuple(q for q in range(1, per + 1) if m >> (q - 1) & 1) for m in masks)


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
