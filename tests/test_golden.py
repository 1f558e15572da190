"""Golden guard: canonical JSON output of fixed CLI commands, pinned by hash.

The first eight digests were taken from the package before the integer
kernel replaced Fraction elimination, the rest (one or more per
subcommand and output format) before the CLI dispatch became a table of
handlers; any change to a verdict, a detail string, a returned factor or
the entry formatting changes a digest.  A deliberate
change of output must update the digest in the same commit and say why.
The `verify all` digests at the four benchmark ladder triples, (4,4,9),
(2,6,7), (6,3,10) and (10,2,11), were taken before the suites' per-check
flags gave way to one check runner.

`test_extend_digest` pins the objects and entry matrices `extend` returns
on 200 seeded partial-matching connectors.  It was taken after `extend`
learnt to end in the connector it is given on a distance-0 cell and on
equal positions whose order the block sum changes; the 101 connectors
without a distance-0 cell gave the same angles before.

`test_factor_digest` pins the entries `right_factor` and `left_factor`
return (or None) on 200 seeded pairs each.  It was taken while each
factorisation was still one system over every cell of the factor, before
it became one small system per column (per row on the left).

`test_models_digest` pins the index sets `wide.models` lists for each
wideness family at (2,9,10) and (2,12,13), where its frontier is largest.
It was taken while the search still tested every rule part on each set in
turn, before it filtered the frontier once per part.

`test_perfbench_reference_data_is_current` holds the benchmark's own
reference data, `perfbench/golden.json`, byte-equal to what
`perfbench/worker.py golden` prints for the package as it is.
"""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from angulated import (
    Morphism,
    SumObject,
    closure_rules,
    compose,
    extend,
    models,
    periodic_rules,
    semisimple_rules,
    validate_params,
)
from angulated.core import left_factor, right_factor
from angulated.cli import main

from oracles import matching_connector

GOLDEN = [
    ((2, 2, 3), ("verify", "all"),
     "b5b832e3904674d967ad98ec6f02b4d250b1da32d05a49f3387a415c5007e647"),
    ((2, 3, 4), ("verify", "all"),
     "8fc4a5e0df05726c7c494bc3c636cb2d4ca15061ee5c435d3e6baa2436189dcb"),
    ((4, 4, 9), ("verify", "all"),
     "d1fe2d56073a2f7214c5e4b8c74862dc006ee9bdb27640014a5755185b01d1dc"),
    ((2, 6, 7), ("verify", "all"),
     "92f8eeca95b9926b87c053d3651c00d3dcb9486caefe296840dcb795464a773e"),
    ((6, 3, 10), ("verify", "all"),
     "5e43df42bd3831d831960fb7b94440216dd3365cbc12d053436f3f2826a950a0"),
    ((10, 2, 11), ("verify", "all"),
     "ce3dd583132a1444c6a5a10f9476128071acb2f90e361027c8257a7bdaaef827"),
    ((4, 4, 9), ("angle", "f1", "f3"),
     "e33f1b6d59e80b417f768d0cc962a0cf88168db8123d8d9189d171fa61b84532"),
    ((4, 4, 9), ("ar", "f5"),
     "9530c26ed07dd7068600e0f3cee384b9aec8330358032a02ace6e7e216d6d558"),
    ((4, 4, 9), ("ar", "f9", "--sub", "1,5,9"),
     "ae55f6a213b180dc0f15d1e1ab2cf01ff9d23ca44be8621f55b884cc89fd7274"),
    ((4, 4, 9), ("cover", "f7", "--sub", "1,5,9"),
     "b92acc0cad5b164c3e5508ed25fe3ec5eba63c66fcfc7e28478b2773ce1f102c"),
    ((4, 4, 9), ("dexact", "2", "4"),
     "a168dfca7c56a366e4acbb7e1e4ffa0da891fbf3730285ca80fd71f1b04773e6"),
    ((4, 4, 9), ("compose", "f1", "f2", "f3"),
     "0a7aec1c107a9e8f86f6d28b25c2834c622a5d6c0c0e17dc058a64a47297181b"),
    ((4, 4, 9), ("params",),
     "ab1b29e5a281ff712f14da1f42fdb851249bc29d9209318d7b1f36d6d881b6bd"),
    ((4, 4, 9), ("hom", "f1", "f4"),
     "7a34f3ad73d85fd608a1d6d3ada8f8ce6814ee03ccdc3210c94771b26c599ccf"),
    ((4, 4, 9), ("dkernel", "3", "6"),
     "370a9b288d16be19f53f73acc8a93a33ee66eafc2651d03f23d6de74d7b96170"),
    ((4, 4, 9), ("dcokernel", "3", "6"),
     "0bdf9d296d41abb807644902500f62efdc2b34a3a64c3ada58752a01d4b1e7c3"),
    ((4, 4, 9), ("wide", "check", "1,2,5,6,9,10"),
     "8761613b525034289888e133d2f0a609d701df161f30557786548059a1631c49"),
    ((4, 4, 9), ("quiver", "--from", "f1", "--to", "f6", "--sub", "1,5,9"),
     "dab5853cb1175d91dd00a8396eacf5327300159f8bd148bdea442d5483638696"),
    ((4, 4, 9), ("--format", "dot", "quiver", "--from", "f1", "--to", "f6", "--sub", "1,5,9"),
     "745bc500e173997a02df1942994890840f0d2e19b92d95c1625a1931fcb53a5c"),
    ((4, 4, 9), ("--format", "text", "ar", "f9", "--sub", "1,5,9"),
     "4fa58b0a5562fc3c90a8ca1ea21a4ea678b62e44885ecab89450eea71235b6c0"),
    ((2, 2, 3), ("wide", "list"),
     "1dcb495e3605c299f998bbcd015d841fe27063148130d4d913663a7625cff175"),
    ((2, 2, 3), ("--format", "text", "verify", "wide"),
     "a8dd3600e0f567cb9e3c411a9319348fcc6a96f22de1c1c8bfcf3cb6f5fcbca6"),
]


@pytest.mark.parametrize(
    "triple, argv, digest",
    GOLDEN,
    ids=[f"{d},{l},{m} {' '.join(a)}" for (d, l, m), a, _ in GOLDEN],
)
def test_stdout_digest(triple, argv, digest):
    d, l, m = triple
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--d", str(d), "--l", str(l), "--m", str(m), *argv])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


EXTEND_TRIPLES = ((4, 4, 9), (2, 3, 4), (6, 3, 10), (10, 2, 11), (2, 6, 7))
EXTEND_SCALARS = tuple(
    sorted({Fraction(n, q) for n in range(-4, 5) if n for q in (1, 2, 3)})
)
EXTEND_DIGEST = "2c328382281a5b52e4f01627a85396e6cacd4e0c9f1bbc452e2956986d05c53b"


def partial_matching(rng, p):
    """1-3 matched pairs s -> s + D (0 <= D <= l - 1) and 0-2 unmatched
    summands on each side, over +-2 periods; positions may repeat."""
    span = 2 * p.period
    pairs = []
    for _ in range(rng.randint(1, 3)):
        s = rng.randint(-span, span)
        pairs.append((s, s + rng.randint(0, p.l - 1), rng.choice(EXTEND_SCALARS)))
    lone_sources = [rng.randint(-span, span) for _ in range(rng.randint(0, 2))]
    lone_targets = [rng.randint(-span, span) for _ in range(rng.randint(0, 2))]
    return matching_connector(p, pairs, lone_sources, lone_targets)


def extend_transcript() -> str:
    """Objects and entry matrices of `extend` on 200 seeded connectors."""
    rng = random.Random(1803_07002)
    lines = []
    for n in range(200):
        p = validate_params(*EXTEND_TRIPLES[n % len(EXTEND_TRIPLES)])
        a = extend(partial_matching(rng, p))
        lines.append(repr([o.summands for o in a.objects]))
        lines.extend(
            repr([[str(e) for e in row] for row in m.entries]) for m in a.maps
        )
    return "\n".join(lines)


def test_extend_digest():
    got = hashlib.sha256(extend_transcript().encode()).hexdigest()
    assert got == EXTEND_DIGEST


FACTOR_DIGEST = "d7fbd443550f66599a4068a01cb488052a911db22942e45c768fe8a75c6462bf"


def _factor_sum(rng, p, base):
    n = rng.randint(1, 6)
    return SumObject(tuple(base + rng.randint(0, 2 * (p.l - 1)) for _ in range(n)))


def _factor_mor(rng, p, src, tgt):
    """Random scalars on about three quarters of the cells the distance rule keeps."""
    ents = tuple(
        tuple(
            rng.choice(EXTEND_SCALARS) if 0 <= y - x < p.l and rng.random() < 0.75 else 0
            for x in src.summands
        )
        for y in tgt.summands
    )
    return Morphism(p, src, tgt, ents)


def factor_transcript() -> str:
    """Entries of `right_factor` and `left_factor` on 200 seeded pairs each.

    Sums of 1-6 summands within 2(l - 1) of a base position, so positions
    repeat; half of the targets are composites, so a factor exists.
    """
    rng = random.Random(1803_07002)
    lines = []
    for n in range(200):
        p = validate_params(*EXTEND_TRIPLES[n % len(EXTEND_TRIPLES)])
        base = rng.randint(-3 * p.period, 3 * p.period)
        a, b, c = (_factor_sum(rng, p, base) for _ in range(3))
        composite = rng.random() < 0.5
        f = _factor_mor(rng, p, b, c)
        t = compose(f, _factor_mor(rng, p, a, b)) if composite else _factor_mor(rng, p, a, c)
        right = right_factor(f, t)
        f = _factor_mor(rng, p, a, b)
        t = compose(_factor_mor(rng, p, b, c), f) if composite else _factor_mor(rng, p, a, c)
        left = left_factor(f, t)
        lines.extend(
            repr(None if g is None else [[str(e) for e in row] for row in g.entries])
            for g in (right, left)
        )
    return "\n".join(lines)


def test_factor_digest():
    got = hashlib.sha256(factor_transcript().encode()).hexdigest()
    assert got == FACTOR_DIGEST


MODELS_DIGESTS = [
    ((2, 9, 10), semisimple_rules,
     "16bcbcaaf70a7d9c496225242e3db6dc567574e771afff5a3c60959fe0039942"),
    ((2, 9, 10), periodic_rules,
     "c8277181ed5dc7db2fb2af983210ea36e7f36ce42c3c72e8ff6d23594cf6e8cc"),
    ((2, 9, 10), closure_rules,
     "3fc9e5601e3f1486c53e938334b3021336442e27d8e811db7ea787919b6c818b"),
    ((2, 12, 13), semisimple_rules,
     "a9179d94d033c7a714816ec5a06ca0a73e89a0b5c8306cf416ef82cea7c1e01b"),
    ((2, 12, 13), periodic_rules,
     "c3833bd613e38f4b277e2b0b99107ce9c5bb0289d0c474c3d9cba0a587e37595"),
    ((2, 12, 13), closure_rules,
     "b8db0bbb8b852681b01ee10fab02c8880a74365c6698a6d4be6a3fc028556b49"),
]


@pytest.mark.parametrize(
    "triple, rules, digest",
    MODELS_DIGESTS,
    ids=[f"{d},{l},{m} {r.__name__}" for (d, l, m), r, _ in MODELS_DIGESTS],
)
def test_models_digest(triple, rules, digest):
    got = repr(models(validate_params(*triple), rules))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def test_perfbench_reference_data_is_current():
    # `perfbench/worker.py golden` prints the reference data the benchmark
    # checks its outputs against (verify check names and the session's
    # outcome digests); drift there would be refused by the benchmark as
    # incorrect outputs, so it fails here first
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    done = subprocess.run(
        [sys.executable, str(bench / "worker.py"), "golden"],
        capture_output=True, check=True, cwd=bench.parent,
    )
    want = (bench / "golden.json").read_bytes()
    assert json.loads(done.stdout) == json.loads(want)
    assert done.stdout == want
