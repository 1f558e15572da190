"""Benchmark of the angulated package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json):

  verify-ladder    `angulated ... verify all`, one fresh process per triple,
                   over a ladder of triples in an order drawn from the seed
  verify-wide-p18  `angulated --d 2 --l 9 --m 10 verify wide`, one fresh
                   process per pass: the 2^18 power-set scan
  query-session    a closed loop with one client sending a seeded mix of
                   library calls and in-process CLI queries

With --trace 0 every end-to-end metric is measured, untraced, and every
time is reported at the reference speed of speed.py; the table printed
before the JSON line gives each time unscaled too.  With
--trace 1 the same inputs run once untraced and once traced, each in fresh
processes, and the per-layer metrics are reported.  Every output is checked
after its timer stopped; failures count in `failed` and make `correct`
false, and the exit code 1.  The last line on standard output is the
result as JSON.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402
from worker import quantile  # noqa: E402

LADDER = ((4, 4, 9), (2, 6, 7), (6, 3, 10), (10, 2, 11))
WIDE_TRIPLE = (2, 9, 10)  # period 18
SETUP_PROBES = 16
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "verify_s": "s",
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}


class Tally:
    """Requests attempted and failed, over timed requests and gates alike."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def _worker(args: list) -> tuple[int, list, float]:
    """Run one worker process; (exit code, stdout lines, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines(), wall


def _last_json(lines: list):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


class SetupProbes:
    """Import-and-validate time in fresh processes; the median is setup_s.

    Half the probes run before the timed region and half after it, so the
    figure does not hang on the machine's state at one moment.
    """

    def __init__(self):
        _worker(["setup"])  # leaves compiled bytecode behind, as an install would
        self.times = []
        self.raw_times = []

    def run(self, n: int) -> None:
        bracket = speed.Bracket()
        for _ in range(n):
            code, lines, _ = _worker(["setup"])
            result = _last_json(lines)
            if code != 0 or result is None:
                raise RuntimeError("setup probe failed")
            self.times.append(result["setup_s"] * bracket.scale())
            self.raw_times.append(result["setup_s"])

    def median(self) -> float:
        return statistics.median(self.times)

    def raw_median(self) -> float:
        return statistics.median(self.raw_times)


def _golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify workloads: each request is one cold `verify` process
# ---------------------------------------------------------------------------

def _verify_argv(triple, target: str) -> list:
    d, l, m = triple
    return ["--d", str(d), "--l", str(l), "--m", str(m), "verify", target]


def _check_verify(lines: list, code: int, target: str, names: list) -> bool:
    """The CLI document says every check passed, under the recorded names."""
    result = _last_json(lines)
    if code != 0 or result is None or result["code"] != 0:
        return False
    docs = [line for line in lines[:-1] if line.strip()]
    try:
        doc = json.loads(docs[-1])
    except (IndexError, ValueError):
        return False
    return (
        doc.get("ok") is True
        and all(c["ok"] for c in doc["checks"])
        and [c["name"] for c in doc["checks"]] == names
    )


def _verify_passes(seed: int, triples):
    """Endless passes over the triples, each in an order drawn from the seed."""
    rng = random.Random(seed)
    while True:
        order = list(triples)
        rng.shuffle(order)
        yield order


def _verify_figures(lat: dict) -> dict:
    per_request = [statistics.median(v) for v in lat.values() if v]
    return {
        "verify_s": sum(per_request),
        "queries_per_s": len(per_request) / sum(per_request),
        "query_p50_us": quantile(per_request, 50) * 1e6,
        "query_p99_us": quantile(per_request, 99) * 1e6,
    }


def measure_verify(seed, seconds, triples, target, tally) -> tuple[dict, dict]:
    """Passes over the triples for about `seconds`; a request's latency is
    the median of its passes, and verify_s sums them over the triples.
    Returns the figures at the reference speed and unscaled."""
    names = _golden()["verify"][target]
    probes = SetupProbes()
    probes.run(SETUP_PROBES // 2)
    lat = {triple: [] for triple in triples}
    raw_lat = {triple: [] for triple in triples}
    passes = _verify_passes(seed, triples)
    start = time.perf_counter()
    pass_s = 0.0
    while pass_s == 0.0 or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        for triple in next(passes):
            code, lines, wall = _worker(["cli", "--"] + _verify_argv(triple, target))
            result = _last_json(lines)
            if result is not None:  # the command ran to the end, passing or not
                lat[triple].append(wall * speed.NOMINAL_ITER_S / result["ref_iter_s"])
                raw_lat[triple].append(wall)
            ok = _check_verify(lines, code, target, names)
            tally.add(1, not ok, f"verify {target} failed at {triple}")
        pass_s = time.perf_counter() - t0
    probes.run(SETUP_PROBES - SETUP_PROBES // 2)
    if not any(lat.values()):
        raise RuntimeError(f"no `verify {target}` process ran to the end")
    values = dict(_verify_figures(lat), setup_s=probes.median())
    raw = dict(_verify_figures(raw_lat), setup_s=probes.raw_median())
    return values, raw


def trace_verify(seed, workload, triples, target, tally) -> dict:
    names = _golden()["verify"][target]
    os.makedirs(OUT, exist_ok=True)
    raws, untraced_ns = [], 0
    for k, triple in enumerate(next(_verify_passes(seed, triples))):
        argv = _verify_argv(triple, target)
        code, lines, _ = _worker(["cli", "--"] + argv)
        ok = _check_verify(lines, code, target, names)
        tally.add(1, not ok, f"verify {target} failed at {triple}")
        untraced_ns += _last_json(lines)["wall_ns"] if ok else 0
        spans = os.path.join(OUT, f"spans-{workload}-{k}.bin")
        code, lines, _ = _worker(["cli", "--trace", spans, "--"] + argv)
        ok = _check_verify(lines, code, target, names)
        tally.add(1, not ok, f"traced verify {target} failed at {triple}")
        if ok:
            raws.append(_last_json(lines)["layers"])
    total = layers.merge(raws)
    total["untraced_ns"] = untraced_ns
    total["traced_ns"] = total.get("wall_ns", 0)
    return layers.metrics(total)


# ---------------------------------------------------------------------------
# query session: one closed-loop client in one fresh process
# ---------------------------------------------------------------------------

def _session(tally, args: list) -> dict:
    code, lines, _ = _worker(["session"] + args)
    result = _last_json(lines)
    if code != 0 or result is None:
        raise RuntimeError("session worker failed")
    tally.add(result["requests"], result["failed"], "session requests failed")
    gate = result.get("gate")
    if gate:
        tally.add(gate["requests"], gate["failed"],
                  f"gate digests differ: {gate['mismatched']}")
    return result


def measure_session(seed, seconds, tally) -> tuple[dict, dict]:
    probes = SetupProbes()
    probes.run(SETUP_PROBES // 2)
    r = _session(tally, ["--seed", str(seed), "--seconds", str(seconds), "--gate"])
    probes.run(SETUP_PROBES - SETUP_PROBES // 2)
    figures = lambda r, gate_ns, setup: {
        "verify_s": gate_ns / 1e9,
        "setup_s": setup,
        "queries_per_s": r["rate"],
        "query_p50_us": r["p50_ns"] / 1e3,
        "query_p99_us": r["p99_ns"] / 1e3,
    }
    return (
        figures(r, r["gate"]["busy_ns"], probes.median()),
        figures(r["raw"], r["gate"]["raw_busy_ns"], probes.raw_median()),
    )


def trace_session(seed, seconds, tally) -> dict:
    os.makedirs(OUT, exist_ok=True)
    plain = _session(tally, ["--seed", str(seed), "--seconds", str(seconds / 3), "--gate"])
    spans = os.path.join(OUT, "spans-query-session.bin")
    traced = _session(tally, [
        "--seed", str(seed), "--count", str(plain["requests"]), "--trace", spans,
    ])
    total = dict(traced["layers"])
    total["untraced_ns"] = plain["raw_busy_ns"]
    total["traced_ns"] = traced["raw_busy_ns"]
    return layers.metrics(total)


VERIFY = {  # workload: (triples, verify target)
    "verify-ladder": (LADDER, "all"),
    "verify-wide-p18": ((WIDE_TRIPLE,), "wide"),
}
WORKLOADS = sorted(VERIFY) + ["query-session"]


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    if workload in VERIFY:
        return measure_verify(seed, seconds, *VERIFY[workload], tally)
    return measure_session(seed, seconds, tally)


def trace(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    if workload in VERIFY:
        return trace_verify(seed, workload, *VERIFY[workload], tally)
    return trace_session(seed, seconds, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "angulated", "__init__.py")):
        print(f"run.py: no package source under {ROOT}/src", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        values = trace(args.workload, args.seed, args.seconds, tally)
        raw = values
        units = dict(layers.catalogue())
    else:
        values, raw = measure(args.workload, args.seed, args.seconds, tally)
        values["peak_rss_mb"] = raw["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        units = END_TO_END
        print(f"{'metric':32} {'value':>16} {'unscaled':>16} unit")
    for note in dict.fromkeys(tally.notes):
        print(f"FAILED: {note}")
    for name in sorted(units):
        unscaled = "" if args.trace else f"{raw[name]:>16.6g} "
        print(f"{name:32} {values[name]:>16.6g} {unscaled}{units[name]}")
    correct = tally.failed == 0 and tally.attempted > 0
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'fail_ratio':32} {fail_ratio:>16.6g} ratio"
          f"  ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in sorted(units)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
