"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import angulated  # noqa: E402
from angulated import cli, core, verify  # noqa: E402

import layers  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# request generation
# ---------------------------------------------------------------------------

def test_same_seed_same_requests():
    assert session.take(5, 300) == session.take(5, 300)
    assert session.take(5, 300) != session.take(6, 300)


def test_every_block_sends_the_fixed_mix():
    n = len(session.SCHEDULE)
    reqs = session.take(9, 3 * n)
    for k in range(3):
        kinds = Counter(r[0] for r in reqs[k * n:(k + 1) * n])
        assert kinds == Counter(session.SCHEDULE)


def test_generated_requests_pass_their_checks():
    for req in session.take(21, 2 * len(session.SCHEDULE)):
        ok, _ = session.outcome(req, session.execute(req))
        assert ok, req


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _bindings() -> dict:
    """Identity of every function-valued binding the tracer may touch."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "angulated" or name.startswith("angulated."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if callable(v):
                            out[(name, key, k)] = v
    for module, cls in tracing.CONSTRUCTORS:
        klass = vars(sys.modules[f"angulated.{module}"])[cls]
        out[(cls, "__init__")] = vars(klass)["__init__"]
    return out


def test_tracer_patches_every_binding_and_restores_it():
    before = _bindings()
    original_compose = core.compose
    tracer = tracing.Tracer()
    with tracer:
        # the re-exported and imported bindings are wrapped, not only core's
        for mod in (core, angulated.angles, angulated.verify, cli, angulated):
            assert mod.compose is not original_compose
            assert mod.compose.__wrapped__ is original_compose
        assert verify.SUITES["core"].__wrapped__ is verify.verify_core.__wrapped__
        assert core.hom_dim is before[("angulated.core", "hom_dim")]  # untraced
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_calls_record_spans_and_probes():
    p = angulated.validate_params(4, 4, 9)
    mu = angulated.basis_mor(p, 1, 3)
    counters = layers.Counters()
    with tracing.Tracer(counters.probes()) as tracer:
        angulated.min_angle(mu)
        angulated.min_angle(angulated.shift(mu, 2))  # same up to a shift
    summary = tracer.summary()
    assert summary["calls"]["angles.min_angle"] == 2
    assert summary["calls"]["angles.Angle"] == 2
    assert summary["calls"]["core.compose"] > 0
    assert counters.n["min_angle_repeats"] == 1
    # every span lies inside its parent
    for sid, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[sid]
            assert tracer.span_end[sid] <= tracer.span_end[parent]


def test_no_package_code_runs_outside_a_span():
    """Every call into package code, generated dataclass methods included,
    starts inside some span: the tracer leaves no package work to the
    harness time."""
    tracer = tracing.Tracer()
    outside = Counter()

    def profile(frame, event, arg):
        if (
            event == "call"
            and tracer._current[0] == -1
            and frame.f_globals.get("__name__", "").startswith("angulated")
        ):
            outside[(frame.f_globals["__name__"], frame.f_code.co_name)] += 1

    reqs = session.take(4, 10 * len(session.SCHEDULE))
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for req in reqs:
                session.execute(req)
            cli.main(["--d", "2", "--l", "2", "--m", "3", "verify", "all"])
        finally:
            sys.setprofile(None)
    assert tracer.summary()["spans"] > 0
    assert outside == Counter()


def test_self_time_on_a_synthetic_tree():
    #  0 root [0, 100]
    #  1   a  [10, 40]
    #  2     a1 [15, 25]
    #  3   b  [35, 60]   overlaps a: the union [10, 60] is covered once
    #  4   c  [90, 120]  clipped to the parent's end
    parents = [-1, 0, 1, 0, 0]
    starts = [0, 10, 15, 35, 90]
    ends = [100, 40, 25, 60, 120]
    assert list(tracing.self_times(parents, starts, ends)) == [
        100 - 50 - 10, 30 - 10, 10, 25, 30,
    ]
    summary = tracing.summarize(["root", "a", "a1", "b", "c"], [0, 1, 2, 3, 4],
                                parents, starts, ends)
    assert summary["root_ns"] == 100
    assert summary["self_ns"]["root"] == 40


def test_layer_metrics_from_raw_totals():
    total = {
        "calls:linalg.solve": 4, "count:solve_none": 1, "self:linalg.solve": 2e9,
        "self:core.compose": 1e9, "calls:core.right_factor": 2,
        "calls:core.left_factor": 2, "count:factor_found": 3,
        "wall_ns": 4e9, "root_ns": 3e9, "traced_ns": 4e9, "untraced_ns": 2e9,
    }
    m = layers.metrics(total)
    assert m["linalg.solve_none_ratio"] == 0.25
    assert m["core.factor_found_ratio"] == 0.75
    assert m["linalg.self_s"] == 2.0 and m["core.self_s"] == 1.0
    assert m["trace.harness_s"] == 1.0
    assert m["trace.overhead_ratio"] == 2.0
    assert m["angles.min_angle_repeat_ratio"] == 0.0  # no calls: no ratio


def test_catalogue_matches_benchmark_json():
    bench = _bench_json()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.catalogue()


# ---------------------------------------------------------------------------
# smoke runs of the real command
# ---------------------------------------------------------------------------

def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify-ladder", "verify-wide-p18", "query-session"])
def test_smoke_run(workload):
    bench = _bench_json()
    assert workload in [w["name"] for w in bench["workloads"]]
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_session_reports_every_layer_metric():
    result = _run("query-session", 1)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {name for name, _ in layers.catalogue()}
    assert m["cli.requests"] > 0 and m["trace.overhead_ratio"] > 1


# Share of a traced session's wall time that no span covers.  It holds the
# loop, the timer reads and the StringIO capture of CLI output; package
# work that the tracer misses (an untraced constructor, a public function
# bound under a name it does not patch) lands here and pushes it up.
HARNESS_SHARE_MAX = 0.08


def test_harness_time_is_a_small_share_of_a_traced_session(tmp_path):
    spans = str(tmp_path / "spans.bin")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "session", "--seed", "3",
         "--count", str(40 * len(session.SCHEDULE)), "--trace", spans],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    m = layers.metrics(result["layers"])
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self + m["trace.harness_s"] == pytest.approx(m["trace.wall_s"], rel=1e-6)
    assert m["trace.harness_s"] < HARNESS_SHARE_MAX * m["trace.wall_s"]
