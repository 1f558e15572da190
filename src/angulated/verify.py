"""Oracle suites: replay the defining properties at a given parameter triple.

Each suite returns a list of named checks so both the CLI `verify`
subcommand and the test harness can reuse them.  The suites deliberately
recompute everything from raw definitions (path concatenation, functor
exactness, brute-force factorisation, power-set filters) rather than
trusting the closed-form constructions they validate.  A power-set filter
is listed by `wide.models`, an exact search over the rules of a wideness
test, so `verify wide` never walks the 2^period subsets.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

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
    SumObject,
    basis_mor,
    compose,
    hom_dim,
    indec,
    is_iso,
    is_radical,
    is_split_epi,
    is_split_mono,
    shift_mor,
)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


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
        b.params == a.params
        and all(y.summands == tuple(q + off for q in x.summands)
                for x, y in zip(a.objects, b.objects))
        and all(g.entries == f.entries for f, g in zip(a.maps, b.maps))
    )


def verify_core(params: FamilyParams) -> list[Check]:
    checks = []
    per, l = params.period, params.l

    ok = all(
        hom_dim(params, x, y) == hom_dim(params, x + r * per, y + r * per)
        for x in range(1, per + 1)
        for y in range(x - l, x + l + 1)
        for r in (-2, -1, 1, 3)
    )
    checks.append(Check("hom shift equivariance", ok))

    assoc_ok = rad_ok = True
    for a in range(1, per + 1):
        for b in range(a, a + l):
            f = basis_mor(params, a, b)
            for c in range(b, b + l):
                g = basis_mor(params, b, c)
                gf = compose(g, f)
                if (is_radical(f) or is_radical(g)) and not is_radical(gf):
                    rad_ok = False
                for e in range(c, c + l):
                    h = basis_mor(params, c, e)
                    if compose(h, gf) != compose(compose(h, g), f):
                        assoc_ok = False
    checks.append(Check("composition associativity over a window", assoc_ok))
    checks.append(Check("radical is an ideal on basis pairs", rad_ok))

    # sums of at most 2 vertices in [1, l], every {0, +-1} matrix on their
    # at most 4 cells, each order type at its lowest and highest placement:
    # these limits are the whole coverage.  Two positions in [1, l] lie
    # less than l apart, so Hom between them, the composites and the split
    # tests read only their order, and a pair's verdicts depend only on its
    # order type, its positions replaced by their ranks in the union.  The
    # lowest placement puts the union at 1..k and the highest at l-k+1..l,
    # so a defect that reads either end of the window still shows.
    objs = [indec(q) for q in range(1, l + 1)]
    objs += [
        SumObject((a, b)) for a, b in combinations(range(1, l + 1), 2)
    ] + [SumObject((q, q)) for q in range(1, l + 1)]
    ok = True
    values = (Fraction(0), Fraction(1), Fraction(-1))
    for src in objs:
        for tgt in objs:
            used = set(src.summands + tgt.summands)
            k = len(used)
            if used != set(range(1, k + 1)) and used != set(range(l - k + 1, l + 1)):
                continue
            cells = [
                (i, j)
                for i, y in enumerate(tgt.summands)
                for j, x in enumerate(src.summands)
                if hom_dim(params, x, y)
            ]
            for combo in product(values, repeat=len(cells)):
                ents = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
                for (i, j), v in zip(cells, combo):
                    ents[i][j] = v
                f = Morphism(params, src, tgt, tuple(tuple(r) for r in ents))
                if (is_split_epi(f) and is_split_mono(f)) != block_iso_oracle(f):
                    ok = False
    checks.append(Check("split epi + split mono iff iso (brute force)", ok))

    ok = True
    for q in range(1, per + 1):
        x = indec(q)
        for c in (Fraction(0), Fraction(2), Fraction(-3)):
            f = Morphism(params, x, x, ((c,),))
            if (c != 0) != is_iso(f):
                ok = False
    checks.append(Check("local endomorphism rings on vertices", ok))
    return checks


def verify_angles(params: FamilyParams) -> list[Check]:
    checks = []
    per, l, d = params.period, params.l, params.d

    min_ok = rot_ok = exact_ok = chain_ok = True
    for i in range(1, per + 1):
        for delta in range(1, l):
            mu = basis_mor(params, i, i + delta)
            a = min_angle(mu)
            nonzero = [o for o in a.objects if not o.is_zero]
            if len(nonzero) != d + 2 or not all(o.is_indec for o in nonzero):
                min_ok = False
            if not all(is_radical(a.maps[k]) for k in range(1, d)):
                min_ok = False
            if a.connecting.is_zero:
                min_ok = False
            if not check_hom_exactness(a).ok:
                exact_ok = False
            if rotate_left(rotate_right(a)) != a or rotate_right(rotate_left(a)) != a:
                rot_ok = False
            b = a
            for _ in range(d + 2):
                b = rotate_left(b)
            if not _is_shift(b, a, 1):
                rot_ok = False
            if not _is_shift(min_angle(shift_mor(mu, 1)), a, 1):
                min_ok = False
            j = i + delta
            if j <= per:
                seq = d_exact_seq(params, i, j)
                if not check_d_exact(seq):
                    chain_ok = False
                if not check_d_kernel(d_kernel(params, i, j), mu):
                    chain_ok = False
                if not check_d_cokernel(d_cokernel(params, i, j), mu):
                    chain_ok = False
                if sum(1 for o in seq.objects if not o.is_zero) != d + 2:
                    chain_ok = False
    checks.append(Check("minimal angles: shape, radical middles, equivariance", min_ok))
    checks.append(Check("minimal angles pass the Hom exactness oracle", exact_ok))
    checks.append(Check("rotations invert and iterate to the shift", rot_ok))
    checks.append(Check("window chains pass both functor exactness tests", chain_ok))
    return checks


def verify_ar(params: FamilyParams) -> list[Check]:
    checks = []
    per = params.period
    full = wide.full_spec(params)

    amb_ok = True
    ambient = {}  # this call's AR angles, reused by its Theorem-B checks
    for pos in range(1, per + 1):
        a = ambient[pos] = artheory.ar_angle(params, pos)
        if not check_hom_exactness(a).ok:
            amb_ok = False
        if not artheory.is_right_almost_split(full, a.maps[params.d]):
            amb_ok = False
        if not artheory.is_left_almost_split(full, a.maps[0]):
            amb_ok = False
        if not all(is_radical(a.maps[k]) for k in range(params.d + 1)):
            amb_ok = False
        if not _is_shift(artheory.ar_angle(params, pos + per), a, 1):
            amb_ok = False
    checks.append(Check("ambient AR angles pass all oracle tests", amb_ok))

    sub_ok = cov_ok = thb_ok = socle_ok = True
    for spec in wide.enumerate_wide(params):
        for pos in spec.indices:
            report = artheory._theorem_b(spec, pos, ambient[pos])
            sub, cov = report.sub_angle, report.cover_result
            if not report.sub_is_ar or sub.connecting.is_zero:
                sub_ok = False
            if not _is_shift(artheory.ar_angle_in(spec, pos + per), sub, 1):
                sub_ok = False
            if not report.ok:
                thb_ok = False
            if len(cov.source) > 1 or not report.cover_is_cover:
                cov_ok = False
            # connecting map spans the one-dimensional Hom into the shifted head
            head = sub.objects[0].summands[0]
            tail = sub.objects[-1].summands[0]
            if hom_dim(params, tail, head + per) != 1:
                socle_ok = False
            if artheory.cover(spec, pos).source != indec(pos):
                cov_ok = False  # cover of a member must be the identity
    checks.append(Check("subcategory AR angles pass the definition oracle", sub_ok))
    checks.append(Check("covers verified by the raw cover test", cov_ok))
    checks.append(Check("cover <-> AR angle equivalence holds throughout", thb_ok))
    checks.append(Check("connecting maps span the Hom into the shifted head", socle_ok))
    return checks


def verify_wide(params: FamilyParams) -> list[Check]:
    checks = []
    enumerated = wide.enumerate_wide(params)

    classified = sorted(
        set(wide.models(params, wide.semisimple_rules))
        | set(wide.models(params, wide.periodic_rules))
    )
    agree = classified == [s.indices for s in enumerated]
    oracle_agree = wide.models(params, wide.closure_rules) == classified
    checks.append(Check("enumeration equals the power-set filter", agree))
    checks.append(Check("classification agrees with the closure oracle", oracle_agree))

    round_trip = all(
        wide.unbar(params, wide.bar(spec)).indices == spec.indices
        for spec in enumerated
    )
    checks.append(Check("unbar after bar is the identity on wide specs", round_trip))

    edges = (
        wide.empty_spec(params) in enumerated and wide.full_spec(params) in enumerated
    )
    checks.append(Check("empty and full specs are wide", edges))
    return checks


def verify_all(params: FamilyParams) -> list[Check]:
    out = []
    for suite in (verify_core, verify_angles, verify_ar, verify_wide):
        out.extend(suite(params))
    return out


SUITES = {
    "core": verify_core,
    "angles": verify_angles,
    "ar": verify_ar,
    "wide": verify_wide,
    "all": verify_all,
}
