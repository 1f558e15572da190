"""Oracle suites: replay the defining properties at a given parameter triple.

Each suite returns a list of named checks so both the CLI `verify`
subcommand and the test harness can reuse them.  One runner, `_run`, makes
every check: a suite lists each family of cases once and judges a case
with one verdict per check, and a case whose construction or oracle raises
fails every check of its family, with the case and the exception class in
`detail`.  The suites deliberately recompute everything from raw
definitions (path concatenation, functor exactness, brute-force
factorisation, power-set filters) rather than trusting the closed-form
constructions they validate.  A power-set filter is listed by
`wide.models`, an exact search over the rules of a wideness test, so
`verify wide` never walks the 2^period subsets.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from . import artheory, linalg, wide
from .angles import (
    Angle,
    check_d_exact,
    check_d_cokernel,
    check_d_kernel,
    check_hom_exactness,
    d_cokernel,
    d_exact_seq,
    d_kernel,
    min_angle,
    rotate_left,
    rotate_right,
)
from .core import (
    FamilyParams,
    Morphism,
    Record,
    SumObject,
    basis_mor,
    compose,
    hom_dim,
    indec,
    is_iso,
    is_radical,
    is_split_epi,
    is_split_mono,
    pos_label,
    shift_mor,
)


class Check(Record):
    """A suite's named verdict; `detail` names the case and exception that failed it, or is ""."""

    _fields = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def block_iso_oracle(f: Morphism) -> bool:
    """Independent isomorphism test: equal position multisets and every
    equal-position block invertible (the strictly increasing part of the
    endomorphism algebra is nilpotent, so the diagonal blocks decide)."""
    if f.source.summands != f.target.summands:
        return False
    for pos in set(f.source.summands):
        rows = [i for i, q in enumerate(f.target.summands) if q == pos]
        cols = [j for j, q in enumerate(f.source.summands) if q == pos]
        block = [[f.entries[i][j] for j in cols] for i in rows]
        if linalg.rank(block) != len(rows):
            return False
    return True


def _is_shift(b: Angle, a: Angle, r: int) -> bool:
    """b == shift_angle(a, r) with no angle built: validated maps' ends follow
    the objects, and a shift moves positions by r periods, keeping entries."""
    off = r * a.params.period
    return (
        (b.params is a.params or b.params == a.params)
        and all(y.summands == tuple(q + off for q in x.summands)
                for x, y in zip(a.objects, b.objects))
        and all(g.entries == f.entries for f, g in zip(a.maps, b.maps))
    )


def _run(cases, judge, label, *names) -> list[Check]:
    """One `Check` per name: `cases()` lists a family, `judge(case)` returns
    one bool per name in name order, and a name passes when every case does.
    A raise while listing or judging fails every name and ends the run, with
    `label(case)` (vertex labels) and the exception class in `detail`;
    otherwise `detail` is ""."""
    ok, case, detail = [True] * len(names), None, ""
    try:
        for case in list(cases()):
            if not all(verdicts := judge(case)):
                ok = [a and b for a, b in zip(ok, verdicts)]
    except Exception as exc:  # the package's one broad catch: a defect fails a check
        ok = [False] * len(names)
        detail = f"{'case list' if case is None else label(case)}: {type(exc).__name__}"
    return [Check(name, passed, detail) for name, passed in zip(names, ok)]


def verify_core(params: FamilyParams) -> list[Check]:
    per, l = params.period, params.l
    checks = _run(
        lambda: range(1, per + 1),
        lambda x: (all(
            hom_dim(params, x, y) == hom_dim(params, x + r * per, y + r * per)
            for y in range(x - l, x + l + 1) for r in (-2, -1, 1, 3)
        ),),
        lambda x: pos_label(params, x), "hom shift equivariance",
    )

    def window(case):  # g = u(b -> c) against every u(a -> b) and u(c -> e)
        b, c = case
        g = basis_mor(params, b, c)
        hs = [(h, compose(h, g)) for h in (basis_mor(params, c, e) for e in range(c, c + l))]
        fs = [(f, compose(g, f))
              for f in (basis_mor(params, a, b) for a in range(b - l + 1, b + 1))]
        return (
            all(compose(h, gf) == compose(hg, f) for f, gf in fs for h, hg in hs),
            all(is_radical(gf) or not (is_radical(f) or is_radical(g)) for f, gf in fs),
        )

    checks += _run(
        lambda: ((b, c) for b in range(1, per + 1) for c in range(b, b + l)),
        window, lambda case: " -> ".join(pos_label(params, q) for q in case),
        "composition associativity over a window", "radical is an ideal on basis pairs",
    )

    # sums of at most 2 vertices in [1, l], every {0, +-1} matrix on their
    # at most 4 cells, each order type at its lowest and highest placement:
    # these limits are the whole coverage.  Two positions in [1, l] lie
    # less than l apart, so Hom between them, the composites and the split
    # tests read only their order, and a pair's verdicts depend only on its
    # order type, its positions replaced by their ranks in the union.  The
    # lowest placement puts the union at 1..k and the highest at l-k+1..l,
    # so a defect that reads either end of the window still shows.
    def pairs():  # the union of a pair's positions is 1..k or l-k+1..l
        objs = [SumObject(qs) for k in (1, 2)
                for qs in combinations_with_replacement(range(1, l + 1), k)]
        return [(s, t) for s, t in product(objs, repeat=2)
                if len(u := set(s.summands + t.summands)) in (max(u), l + 1 - min(u))]

    def split(case):
        zero = (Fraction(0),)
        rows = (  # each row's {0, +-1} choices, 0 alone where Hom vanishes
            product(*(zero + (Fraction(1), Fraction(-1)) if hom_dim(params, x, y) else zero
                      for x in case[0].summands))
            for y in case[1].summands
        )
        return (all(
            (is_split_epi(f) and is_split_mono(f)) == block_iso_oracle(f)
            for f in (Morphism(params, *case, entries) for entries in product(*rows))
        ),)

    checks += _run(
        pairs, split,
        lambda case: " -> ".join("+".join(pos_label(params, q) for q in o.summands) for o in case),
        "split epi + split mono iff iso (brute force)",
    )
    return checks + _run(
        lambda: range(1, per + 1),
        lambda q: (all(
            (c != 0) == is_iso(Morphism(params, indec(q), indec(q), ((c,),)))
            for c in (Fraction(0), Fraction(2), Fraction(-3))
        ),),
        lambda q: pos_label(params, q), "local endomorphism rings on vertices",
    )


def verify_angles(params: FamilyParams) -> list[Check]:
    per, l, d = params.period, params.l, params.d

    def judge(case):
        i, j = case
        mu = basis_mor(params, i, j)
        a = min_angle(mu)
        b = left = rotate_left(a)  # also the rotation that rotate_right must undo
        for _ in range(d + 1):
            b = rotate_left(b)
        nonzero = [o for o in a.objects if not o.is_zero]
        return (
            len(nonzero) == d + 2 and all(o.is_indec for o in nonzero)
            and all(is_radical(a.maps[k]) for k in range(1, d))
            and not a.connecting.is_zero and _is_shift(min_angle(shift_mor(mu, 1)), a, 1),
            check_hom_exactness(a).ok,
            rotate_left(rotate_right(a)) == a == rotate_right(left)
            and _is_shift(b, a, 1),
            j > per or (
                check_d_exact(seq := d_exact_seq(params, i, j))
                and check_d_kernel(d_kernel(params, i, j), mu)
                and check_d_cokernel(d_cokernel(params, i, j), mu)
                and sum(1 for o in seq.objects if not o.is_zero) == d + 2
            ),
        )

    return _run(
        lambda: ((i, i + delta) for i in range(1, per + 1) for delta in range(1, l)),
        judge, lambda case: " -> ".join(pos_label(params, q) for q in case),
        "minimal angles: shape, radical middles, equivariance",
        "minimal angles pass the Hom exactness oracle",
        "rotations invert and iterate to the shift",
        "window chains pass both functor exactness tests",
    )


def verify_ar(params: FamilyParams) -> list[Check]:
    per, d = params.period, params.d
    full = wide.full_spec(params)

    def pair(case):
        spec, pos = case
        report = artheory.theorem_b_check(spec, pos)
        sub = report.sub_angle
        # connecting map spans the one-dimensional Hom into the shifted head
        head, tail = sub.objects[0].summands[0], sub.objects[-1].summands[0]
        return (
            report.sub_is_ar and not sub.connecting.is_zero
            and _is_shift(artheory.ar_angle_in(spec, pos + per), sub, 1),
            len(report.cover_result.source) <= 1 and report.cover_is_cover
            and artheory.cover(spec, pos).source.summands == (pos,),  # a member covers itself
            report.ok,
            hom_dim(params, tail, head + per) == 1,
        )

    return _run(
        lambda: ((pos, artheory.ar_angle(params, pos)) for pos in range(1, per + 1)),
        lambda case: (
            check_hom_exactness(a := case[1]).ok
            and artheory.is_right_almost_split(full, a.maps[d])
            and artheory.is_left_almost_split(full, a.maps[0])
            and all(is_radical(a.maps[k]) for k in range(d + 1))
            and _is_shift(artheory.ar_angle(params, case[0] + per), a, 1),
        ),
        lambda case: pos_label(params, case[0]),
        "ambient AR angles pass all oracle tests",
    ) + _run(
        lambda: ((spec, pos) for spec in wide.enumerate_wide(params) for pos in spec.indices),
        pair, lambda case: f"spec {list(case[0].indices)} at {pos_label(params, case[1])}",
        "subcategory AR angles pass the definition oracle",
        "covers verified by the raw cover test",
        "cover <-> AR angle equivalence holds throughout",
        "connecting maps span the Hom into the shifted head",
    )


def verify_wide(params: FamilyParams) -> list[Check]:
    def judge(enumerated):
        classified = sorted(set(wide.models(params, wide.semisimple_rules))
                            | set(wide.models(params, wide.periodic_rules)))
        return (
            classified == [s.indices for s in enumerated],
            wide.models(params, wide.closure_rules) == classified,
            all(wide.unbar(params, wide.bar(s)).indices == s.indices for s in enumerated),
            wide.empty_spec(params) in enumerated and wide.full_spec(params) in enumerated,
        )

    return _run(
        lambda: (wide.enumerate_wide(params),), judge, lambda specs: f"{len(specs)} wide specs",
        "enumeration equals the power-set filter",
        "classification agrees with the closure oracle",
        "unbar after bar is the identity on wide specs",
        "empty and full specs are wide",
    )


def verify_all(params: FamilyParams) -> list[Check]:
    return [c for suite in (verify_core, verify_angles, verify_ar, verify_wide)
            for c in suite(params)]


SUITES = {
    "core": verify_core,
    "angles": verify_angles,
    "ar": verify_ar,
    "wide": verify_wide,
    "all": verify_all,
}
