"""The query-session workload: a seeded request stream, its execution and checks.

`requests(seed)` yields an endless stream of plain-data requests (tuples
of ints, strings and Fractions); the same seed always yields the same
stream.  Each block of len(SCHEDULE) requests holds every kind in the same
proportion, shuffled, so every seed sends the same mix.  Positions spread
over +-3 periods and entries are random small rationals, so inputs rarely
repeat.  The generator knows only the public conventions (the distance
rule, vertex labels and CLI syntax), never the package itself.

`execute(request)` turns one request into calls on the public API and
returns its raw result; `outcome(request, result)` checks the result
without trusting the construction and reduces it to a canonical string
for the digest of the fixed gate set.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import angulated as A
from angulated import cli, core

TRIPLES = ((4, 4, 9), (2, 3, 4), (6, 3, 10), (10, 2, 11), (2, 6, 7))

# One block of the closed loop; every seed sends this mix.  The rule: one
# request of each kind, so every kind has the same count and none is
# weighted by guess.  The kinds' latencies lie in separate bands (cover
# ~40 us, min_angle and ar_angle_in ~0.2 ms, factorisations ~0.5 ms, cli
# ~2.5 ms, exactness ~9 ms), so the median falls on the factorisations
# (core and linalg) and the 99th percentile on exactness (angles).
SCHEDULE = (
    "min_angle", "ar_angle_in", "cover", "exactness",
    "right_factor", "left_factor", "cli",
)

SCALARS = tuple(
    sorted({Fraction(n, q) for n in range(-4, 5) if n for q in (1, 2, 3)})
)

GATE_SEED = 1803_07002
GATE_REQUESTS = 100 * len(SCHEDULE)


def label(period: int, pos: int) -> str:
    s, i = divmod(pos - 1, period)
    return f"f{i + 1}" if s == 0 else f"s{s}:f{i + 1}"


def _hom(l: int, x: int, y: int) -> bool:
    return 0 <= y - x <= l - 1


class _Gen:
    def __init__(self, rng: random.Random, triple):
        self.rng = rng
        self.d, self.l, self.m = triple
        self.per = self.m + self.l - 1

    def pos(self) -> int:
        return self.rng.randint(-3 * self.per, 3 * self.per)

    def scalar(self) -> Fraction:
        return self.rng.choice(SCALARS)

    def wide_spec(self) -> tuple:
        """A random nonempty wide spec: semisimple, or a union of classes mod l."""
        rng, per, l = self.rng, self.per, self.l
        if rng.random() < 0.5:
            first = rng.randint(1, per)
            out = [first]
            while rng.random() < 0.7:
                lo, hi = out[-1] + l, min(per, first + self.m - 1)
                if lo > hi:
                    break
                out.append(rng.randint(lo, hi))
            return tuple(out)
        classes = rng.sample(range(l), rng.randint(1, l))
        return tuple(q for q in range(1, per + 1) if q % l in classes)

    def member(self, spec) -> int:
        return self.rng.choice(spec) + self.per * self.rng.randint(-3, 3)

    def matrix(self, src, tgt) -> tuple:
        """Random entries on a quarter-sparse subset of the allowed cells."""
        return tuple(
            tuple(
                self.scalar() if _hom(self.l, x, y) and self.rng.random() < 0.75
                else Fraction(0)
                for x in src
            )
            for y in tgt
        )

    def summands(self, base: int) -> tuple:
        n = self.rng.randint(2, 6)
        return tuple(sorted(base + self.rng.randint(0, 2 * (self.l - 1)) for _ in range(n)))

    def compose(self, g, f, a, c) -> tuple:
        """g o f on plain matrices, masked by the distance rule."""
        return tuple(
            tuple(
                sum((g[i][k] * f[k][j] for k in range(len(f))), Fraction(0))
                if _hom(self.l, x, z) else Fraction(0)
                for j, x in enumerate(a)
            )
            for i, z in enumerate(c)
        )


def _connector(g: _Gen):
    """Source, target and entries of a partial-matching connector."""
    rng = g.rng
    pairs = {}
    for _ in range(rng.randint(1, 3)):
        s = g.pos()
        t = s + rng.randint(0, g.l - 1)
        if s not in pairs and t not in pairs.values():
            pairs[s] = t
    src, tgt = sorted(pairs), sorted(pairs.values())
    if rng.random() < 0.3:
        extra = g.pos()
        if extra not in src:
            src = sorted(src + [extra])
    if rng.random() < 0.3:
        extra = g.pos()
        if extra not in tgt:
            tgt = sorted(tgt + [extra])
    ents = [[Fraction(0)] * len(src) for _ in tgt]
    for s, t in pairs.items():
        ents[tgt.index(t)][src.index(s)] = g.scalar()
    return tuple(src), tuple(tgt), tuple(tuple(r) for r in ents)


def _factor(g: _Gen, kind: str):
    """(A, B, C, f, t): right factor f: B -> C, t: A -> C; left f: A -> B, t: A -> C.

    Half the targets are built as composites, so a factorisation exists.
    """
    base = g.pos()
    a, b, c = g.summands(base), g.summands(base), g.summands(base)
    composite = g.rng.random() < 0.5
    if kind == "right_factor":
        f = g.matrix(b, c)
        t = g.compose(f, g.matrix(a, b), a, c) if composite else g.matrix(a, c)
    else:
        f = g.matrix(a, b)
        t = g.compose(g.matrix(b, c), f, a, c) if composite else g.matrix(a, c)
    return a, b, c, f, t, composite


def _cli(g: _Gen):
    """(argv, expected exit code); a few requests are expected domain errors."""
    rng, l, per = g.rng, g.l, g.per
    lab = lambda pos: label(per, pos) if rng.random() < 0.8 else f"p{pos}"
    argv = ["--d", str(g.d), "--l", str(l), "--m", str(g.m)]
    cmd = rng.choice(("hom", "compose", "angle", "ar", "cover", "wide", "dexact"))
    code = 0
    if cmd == "hom":
        x = g.pos()
        argv += ["hom", lab(x), lab(x + rng.randint(-2, l + 1))]
    elif cmd == "compose":
        x = g.pos()
        y = x + rng.randint(0, l - 1)
        z = y + rng.randint(0, l)  # distance l: vanishing Hom, exit 1
        code = 0 if z - y <= l - 1 else 1
        argv += ["compose", lab(x), lab(y), lab(z)]
    elif cmd == "angle":
        x = g.pos()
        dist = rng.randint(0, l) if rng.random() < 0.3 else rng.randint(0, l - 1)
        code = 0 if dist <= l - 1 else 1
        argv += ["angle", lab(x), lab(x + dist)]
    elif cmd == "ar":
        if rng.random() < 0.5:
            argv += ["ar", lab(g.pos())]
        else:
            spec = g.wide_spec()
            x = g.member(spec) if rng.random() < 0.9 else g.pos()
            code = 0 if (x - 1) % per + 1 in spec else 1
            argv += ["ar", lab(x), "--sub", ",".join(map(str, spec))]
    elif cmd == "cover":
        argv += ["cover", lab(g.pos()), "--sub", ",".join(map(str, g.wide_spec()))]
    elif cmd == "wide":
        spec = sorted(rng.sample(range(1, per + 1), rng.randint(1, per)))
        argv += ["wide", "check", ",".join(map(str, spec))]
    else:
        i = rng.randint(1, per)
        j = i + rng.randint(1, l - 1)
        code = 0 if j <= per else 1
        argv += ["dexact", str(i), str(j)]
    return tuple(argv), code


def requests(seed: int):
    """Endless deterministic request stream for `seed`."""
    rng = random.Random(seed)
    while True:
        block = list(SCHEDULE)
        rng.shuffle(block)
        for kind in block:
            triple = rng.choice(TRIPLES)
            g = _Gen(rng, triple)
            if kind == "min_angle":
                x = g.pos()
                payload = (x, x + rng.randint(0, g.l - 1), g.scalar())
            elif kind == "ar_angle_in":
                spec = g.wide_spec()
                payload = (spec, g.member(spec))
            elif kind == "cover":
                payload = (g.wide_spec(), g.pos())
            elif kind == "exactness":
                payload = _connector(g)
            elif kind in ("right_factor", "left_factor"):
                payload = _factor(g, kind)
            else:
                payload = _cli(g)
            yield kind, triple, payload


def take(seed: int, n: int) -> list:
    stream = requests(seed)
    return [next(stream) for _ in range(n)]


# ---------------------------------------------------------------------------
# execution: everything here runs inside the timed request
# ---------------------------------------------------------------------------

def _mor(p, src, tgt, ents):
    return A.Morphism(p, A.SumObject(src), A.SumObject(tgt), ents)


def execute(request):
    kind, triple, payload = request
    p = A.validate_params(*triple)
    if kind == "min_angle":
        x, y, c = payload
        return A.min_angle(_mor(p, (x,), (y,), ((c,),)))
    if kind == "ar_angle_in":
        spec, pos = payload
        return A.ar_angle_in(A.SubcatSpec(p, spec), pos)
    if kind == "cover":
        spec, pos = payload
        return A.cover(A.SubcatSpec(p, spec), pos)
    if kind == "exactness":
        src, tgt, ents = payload
        return A.check_hom_exactness(A.extend(_mor(p, src, tgt, ents)))
    if kind == "right_factor":
        a, b, c, f, t, _ = payload
        return core.right_factor(_mor(p, b, c, f), _mor(p, a, c, t))
    if kind == "left_factor":
        a, b, c, f, t, _ = payload
        return core.left_factor(_mor(p, a, b, f), _mor(p, a, c, t))
    argv, _ = payload
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# checks: run after the request's timer stopped
# ---------------------------------------------------------------------------

def _ents(rows) -> str:
    return ";".join(",".join(str(e) for e in row) for row in rows)


def _angle_str(a) -> str:
    objs = "|".join(",".join(map(str, o.summands)) for o in a.objects)
    return objs + "#" + "/".join(_ents(m.entries) for m in a.maps)


def outcome(request, result) -> tuple[bool, str]:
    """(passed, canonical string) for one executed request.

    Factorisations are checked by recomposition; a target built as a
    composite must factor.  Any valid factor is accepted, so only the
    verdict enters the canonical string.
    """
    kind, triple, payload = request
    p = A.validate_params(*triple)
    if kind == "min_angle":
        x, y, c = payload
        slot = 0 if x == y else p.d
        ok = result.maps[slot].entries == ((c,),) and len(result.objects) == p.d + 2
        return ok, _angle_str(result)
    if kind == "ar_angle_in":
        spec, pos = payload
        last = result.objects[-1].summands
        return last == (pos,) and not result.connecting.is_zero, _angle_str(result)
    if kind == "cover":
        spec, pos = payload
        src = result.source.summands
        ok = result.mor.target.summands == (pos,) and (
            not src or (0 <= pos - src[0] < p.l and (src[0] - 1) % p.period + 1 in spec)
        )
        return ok, ",".join(map(str, src)) + "#" + _ents(result.mor.entries)
    if kind == "exactness":
        return result.ok, f"{result.ok}:{result.failures}"
    if kind in ("right_factor", "left_factor"):
        a, b, c, f, t, composite = payload
        if result is None:
            return not composite, "none"
        if kind == "right_factor":
            back = A.compose(_mor(p, b, c, f), result)
        else:
            back = A.compose(result, _mor(p, a, b, f))
        return back == _mor(p, a, c, t), "found"
    _, code = payload
    return result[0] == code, f"{result[0]}\n{result[1]}\n{result[2]}"


def gate_digests(outcomes) -> dict:
    """sha256 of the canonical strings of each kind, in request order."""
    hashes = {}
    for (kind, _, _), text in outcomes:
        hashes.setdefault(kind, hashlib.sha256()).update(text.encode() + b"\0")
    return {kind: h.hexdigest() for kind, h in sorted(hashes.items())}
