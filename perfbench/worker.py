"""One fresh, single-threaded process of the benchmark.

    worker.py setup
        import the package and validate a triple; print the seconds taken
    worker.py cli [--trace SPANS] -- ARGV...
        run the command line once, as `angulated ARGV...` would
    worker.py session --seed N (--seconds S | --count N) [--trace SPANS] [--gate]
        run the query session as a closed loop with one client
    worker.py golden
        print the reference data of golden.json for the current package

The last line on standard output is the worker's result as JSON.  With
--trace the package is traced while it works, the spans are written to
SPANS and the result carries the per-layer raw numbers.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "angulated", "__init__.py")):
        sys.exit(f"worker: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import angulated
    import angulated.cli

    if not os.path.abspath(angulated.__file__).startswith(SRC + os.sep):
        sys.exit(f"worker: imported angulated from {angulated.__file__}, not {SRC}")
    return angulated


def setup() -> None:
    t0 = time.perf_counter()
    angulated = _import_package()
    angulated.validate_params(4, 4, 9)
    elapsed = time.perf_counter() - t0
    print('{"setup_s": %r}' % elapsed)


def _tracer():
    import layers
    from tracing import Tracer

    counters = layers.Counters()
    return Tracer(counters.probes()), counters


def cli(argv: list, spans: str | None) -> None:
    """Run the command line once; untraced, sample the machine speed meanwhile."""
    _import_package()
    import contextlib
    import json

    import speed
    from angulated import cli as angulated_cli

    tracer = counters = None
    if spans:
        tracer, counters = _tracer()
        tracer.install()
    sampler = speed.Sampler()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.nullcontext() if tracer else sampler:
            code = angulated_cli.main(argv)
    finally:
        wall = time.perf_counter_ns() - t0
        if tracer:
            tracer.uninstall()
    sys.stdout.flush()
    result = {"code": code, "wall_ns": wall}
    if tracer:
        import layers

        tracer.write(spans)
        result["layers"] = layers.raw(tracer.summary(), counters, wall)
    else:
        result["ref_iter_s"] = sampler.iter_s()
    print("\n" + json.dumps(result))


def quantile(values: list, q: int) -> float:
    """q-th percentile, as statistics.quantiles(values, n=100, method="inclusive")
    gives it; a single value is its own percentile."""
    import statistics

    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_CRASHED = object()


def _execute(S, req):
    """The request's result, or _CRASHED: a request that raises counts as
    failed and the session goes on."""
    try:
        return S.execute(req)
    except Exception:
        import traceback

        traceback.print_exc()
        return _CRASHED


def _check(S, req, res) -> tuple[bool, str]:
    if res is _CRASHED:
        return False, "raised"
    try:
        return S.outcome(req, res)
    except Exception:
        import traceback

        traceback.print_exc()
        return False, "check raised"


class _Gate:
    """The fixed gate requests, replayed a cycle at a time and checked.

    Their summed latency is the session's verify time: fixed work whose
    cycles are spread over the whole timed window.
    """

    def __init__(self, S):
        import json

        with open(os.path.join(HERE, "golden.json")) as fh:
            self.golden = json.load(fh)["session"]
        reqs = S.take(self.golden["seed"], self.golden["requests"])
        n = len(S.SCHEDULE)
        self.cycles = [reqs[k:k + n] for k in range(0, len(reqs), n)]
        self.S = S
        self.done = 0
        self.failed = 0
        self.outcomes = []

    def run_cycle(self) -> int:
        """Run the next cycle; its summed request time in nanoseconds."""
        busy = 0
        for req in self.cycles[self.done]:
            t0 = time.perf_counter_ns()
            res = _execute(self.S, req)
            busy += time.perf_counter_ns() - t0
            ok, text = _check(self.S, req, res)
            self.failed += not ok
            self.outcomes.append((req, text))
        self.done += 1
        return busy

    def result(self) -> dict:
        digests = self.S.gate_digests(self.outcomes)
        want = self.golden["digests"]
        mismatched = [k for k in want if digests.get(k) != want[k]]
        failed = self.failed + sum(1 for req, _ in self.outcomes if req[0] in mismatched)
        return {"requests": len(self.outcomes), "failed": failed, "mismatched": mismatched}


def session(seed: int, seconds: float | None, count: int | None,
            spans: str | None, gate: bool) -> None:
    """Closed loop for `seconds` (or `count` requests), in blocks of requests.

    Each block holds the same mix and is bracketed by reference slices
    (speed.py); latencies and rates are reported at the reference speed,
    and unscaled under "raw".  Gate cycles run between blocks, one every
    len(cycles)+1-th of the window, and the rest after it.  A traced run
    generates its requests before the tracer is on, so that the harness
    time left outside the spans is the loop's own.
    """
    _import_package()
    import json

    import session as S
    import speed

    tracer = counters = None
    if spans:
        tracer, counters = _tracer()
    checker = _Gate(S) if gate else None
    if tracer and count is not None:
        stream = iter(S.take(seed, count))
    else:
        stream = S.requests(seed)
    block = 10 * len(S.SCHEDULE)  # the same mix in every block
    latencies, block_rates, pending = [], [], []
    raw_latencies, raw_rates = [], []
    raw_busy = gate_busy = raw_gate_busy = 0.0
    failed = 0
    kept = []  # traced runs check after the tracer is off
    bracket = speed.Bracket()
    if tracer:
        tracer.install()
    t_start = time.perf_counter_ns()
    window = int((seconds or 0) * 1e9)
    gate_every = window // (len(checker.cycles) + 1) if checker else 0
    next_gate = t_start + gate_every

    def close_block():
        nonlocal raw_busy
        factor = bracket.scale()
        scaled = [x * factor for x in pending]
        latencies.extend(scaled)
        block_rates.append(len(scaled) / (sum(scaled) / 1e9))
        raw_latencies.extend(pending)
        raw_rates.append(len(pending) / (sum(pending) / 1e9))
        raw_busy += sum(pending)
        pending.clear()

    while True:
        done = len(latencies) + len(pending)
        now = time.perf_counter_ns()
        if (done >= count) if count is not None else (now - t_start >= window):
            break
        if not pending and checker and checker.done < len(checker.cycles) \
                and now >= next_gate:
            busy = checker.run_cycle()
            gate_busy += busy * bracket.scale()
            raw_gate_busy += busy
            next_gate += gate_every
            continue
        req = next(stream)
        t0 = time.perf_counter_ns()
        res = _execute(S, req)
        pending.append(time.perf_counter_ns() - t0)
        if tracer:
            kept.append((req, res))
        else:
            failed += not _check(S, req, res)[0]
        if len(pending) == block:
            close_block()
    if pending:
        close_block()
    wall = time.perf_counter_ns() - t_start
    if tracer:
        tracer.uninstall()
        failed += sum(not _check(S, req, res)[0] for req, res in kept)
        kept.clear()
    while checker and checker.done < len(checker.cycles):
        busy = checker.run_cycle()
        gate_busy += busy * bracket.scale()
        raw_gate_busy += busy
    result = {
        "requests": len(latencies),
        "failed": failed,
        "raw_busy_ns": raw_busy,
        "wall_ns": wall,
        "rate": quantile(block_rates, 50),
        "p50_ns": quantile(latencies, 50),
        "p99_ns": quantile(latencies, 99),
        "raw": {
            "rate": quantile(raw_rates, 50),
            "p50_ns": quantile(raw_latencies, 50),
            "p99_ns": quantile(raw_latencies, 99),
        },
    }
    if tracer:
        import layers

        tracer.write(spans)
        result["layers"] = layers.raw(tracer.summary(), counters, wall)
    if checker:
        result["gate"] = dict(checker.result(), busy_ns=gate_busy, raw_busy_ns=raw_gate_busy)
    print(json.dumps(result))


def golden() -> None:
    angulated = _import_package()
    import json

    import session as S
    from angulated import verify

    p = angulated.validate_params(2, 2, 3)
    names = {
        target: [c.name for c in verify.SUITES[target](p)] for target in ("all", "wide")
    }
    outcomes = [(req, S.outcome(req, S.execute(req))[1])
                for req in S.take(S.GATE_SEED, S.GATE_REQUESTS)]
    doc = {
        "verify": names,
        "session": {
            "seed": S.GATE_SEED,
            "requests": S.GATE_REQUESTS,
            "digests": S.gate_digests(outcomes),
        },
    }
    print(json.dumps(doc, indent=2))


def main(argv: list) -> None:
    if argv[:1] == ["setup"]:
        setup()  # before argparse is imported: the package imports it itself
        return
    import argparse

    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=["cli", "session", "golden"])
    parser.add_argument("--trace", default=None, metavar="SPANS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--gate", action="store_true")
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    cli_argv = argv[cut + 1:]
    if args.mode == "cli":
        cli(cli_argv, args.trace)
    elif args.mode == "session":
        session(args.seed, args.seconds, args.count, args.trace, args.gate)
    else:
        golden()


if __name__ == "__main__":
    main(sys.argv[1:])
