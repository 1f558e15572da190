"""Per-layer metrics: input-property probes and the metric catalogue.

A traced process returns `raw(...)`, a flat dict of additive numbers
(counts and nanoseconds); the parent sums the dicts of all its traced
processes and `metrics(...)` turns the total into the per-layer metrics
named in BENCHMARK.json.  Ratios are formed only after summing, so every
ratio keeps its base.  The caller adds `traced_ns` and `untraced_ns`, the
time of the same work with and without tracing, for the overhead ratio.
"""

from fractions import Fraction

from tracing import LAYERS

_UNITS = (0, 1, -1)

# metric -> the traced names whose calls, self time or inclusive time it sums
CALLS = {
    "linalg.solve_calls": ("linalg.solve",),
    "linalg.rank_calls": ("linalg.rank",),
    "linalg.nullspace_calls": ("linalg.nullspace",),
    "core.morphisms_built": ("core.Morphism",),
    "core.compose_calls": ("core.compose",),
    "core.factor_calls": ("core.right_factor", "core.left_factor"),
    "core.split_test_calls": ("core.is_split_epi", "core.is_split_mono", "core.is_iso"),
    "angles.angles_built": ("angles.Angle",),
    "angles.min_angle_calls": ("angles.min_angle",),
    "angles.exactness_calls": ("angles.check_hom_exactness",),
    "artheory.almost_split_calls": (
        "artheory.is_right_almost_split", "artheory.is_left_almost_split",
    ),
    "artheory.cover_check_calls": ("artheory.is_cover",),
    "artheory.theorem_b_calls": ("artheory.theorem_b_check",),
    "wide.specs_built": ("wide.SubcatSpec",),
    "wide.is_wide_calls": ("wide.is_wide",),
    "wide.oracle_calls": ("wide.wide_oracle_witness",),
    "cli.requests": ("cli.main",),
}
SELF = {
    "core.morphism_self_s": ("core.Morphism",),
    "core.compose_self_s": ("core.compose",),
    "core.factor_self_s": ("core.right_factor", "core.left_factor"),
    "angles.angle_validate_s": ("angles.Angle",),
    "angles.exactness_self_s": ("angles.check_hom_exactness",),
}
SUITE = {
    f"verify.suite_s.{suite}": f"verify.verify_{suite}"
    for suite in ("core", "angles", "ar", "wide")
}
RATIOS = {
    # metric: (counter, denominator: a metric above or a "count:" key)
    "linalg.solve_none_ratio": ("solve_none", "linalg.solve_calls"),
    "linalg.nonunit_ratio": ("nonunit_systems", "count:systems"),
    "linalg.unknowns_mean": ("unknowns", "count:unknown_systems"),
    "core.factor_found_ratio": ("factor_found", "core.factor_calls"),
    "angles.min_angle_repeat_ratio": ("min_angle_repeats", "angles.min_angle_calls"),
    "wide.wide_ratio": ("wide_true", "wide.is_wide_calls"),
}


def catalogue() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in CALLS:
        out.append((name, "count"))
    for name in SELF:
        out.append((name, "s"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s"))
    for name in SUITE:
        out.append((name, "s"))
    for name in RATIOS:
        out.append((name, "count" if name.endswith("_mean") else "ratio"))
    out += [
        ("trace.overhead_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.harness_s", "s"),
        ("trace.spans", "count"),
    ]
    return sorted(out)


def _nonunit(rows, rhs=()) -> bool:
    return any(e not in _UNITS for row in rows for e in row) or any(
        e not in _UNITS for e in rhs
    )


class Counters:
    """Input-property counts gathered by probes on traced calls."""

    def __init__(self):
        self.n = {
            "solve_none": 0, "nonunit_systems": 0, "systems": 0,
            "unknowns": 0, "unknown_systems": 0, "factor_found": 0,
            "min_angle_repeats": 0, "wide_true": 0,
        }
        self._angle_keys = set()

    def probes(self) -> dict:
        n = self.n

        def solve(args, result):
            rows, rhs, unknowns = args
            n["systems"] += 1
            n["nonunit_systems"] += _nonunit(rows, rhs)
            n["unknowns"] += unknowns
            n["unknown_systems"] += 1
            n["solve_none"] += result is None

        def rank(args, result):
            n["systems"] += 1
            n["nonunit_systems"] += _nonunit(args[0])

        def nullspace(args, result):
            rows, unknowns = args
            n["systems"] += 1
            n["nonunit_systems"] += _nonunit(rows)
            n["unknowns"] += unknowns
            n["unknown_systems"] += 1

        def factor(args, result):
            n["factor_found"] += result is not None

        def min_angle(args, result):
            mu = args[0]
            p = mu.params
            x, y = mu.source.summands[0], mu.target.summands[0]
            # equal up to a period shift: same index, distance and scalar
            key = (p.d, p.l, p.m, (x - 1) % p.period, y - x, Fraction(mu.entries[0][0]))
            n["min_angle_repeats"] += key in self._angle_keys
            self._angle_keys.add(key)

        def is_wide(args, result):
            n["wide_true"] += bool(result)

        return {
            "linalg.solve": solve,
            "linalg.rank": rank,
            "linalg.nullspace": nullspace,
            "core.right_factor": factor,
            "core.left_factor": factor,
            "angles.min_angle": min_angle,
            "wide.is_wide": is_wide,
        }


def raw(summary: dict, counters: Counters, wall_ns: int) -> dict:
    """Additive numbers of one traced process."""
    out = {f"calls:{k}": v for k, v in summary["calls"].items()}
    out.update({f"self:{k}": v for k, v in summary["self_ns"].items()})
    out.update({f"incl:{k}": v for k, v in summary["incl_ns"].items()})
    out.update({f"count:{k}": v for k, v in counters.n.items()})
    out["root_ns"] = summary["root_ns"]
    out["spans"] = summary["spans"]
    out["wall_ns"] = wall_ns
    return out


def merge(raws) -> dict:
    total = {}
    for r in raws:
        for k, v in r.items():
            total[k] = total.get(k, 0) + v
    return total


def metrics(total: dict) -> dict:
    """Per-layer metric values from summed raw numbers."""
    calls = lambda qual: total.get(f"calls:{qual}", 0)
    secs = lambda key: total.get(key, 0) / 1e9
    out = {}
    for name, quals in CALLS.items():
        out[name] = sum(calls(q) for q in quals)
    for name, quals in SELF.items():
        out[name] = sum(secs(f"self:{q}") for q in quals)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in total.items() if k.startswith(f"self:{layer}.")
        ) / 1e9
    for name, qual in SUITE.items():
        out[name] = secs(f"incl:{qual}")
    for name, (num, den) in RATIOS.items():
        numer = total.get(f"count:{num}", 0)
        denom = out[den] if den in out else total.get(den, 0)
        out[name] = numer / denom if denom else 0.0
    wall = total.get("wall_ns", 0)
    untraced = total.get("untraced_ns", 0)
    out["trace.overhead_ratio"] = total.get("traced_ns", 0) / untraced if untraced else 0.0
    out["trace.wall_s"] = wall / 1e9
    out["trace.harness_s"] = (wall - total.get("root_ns", 0)) / 1e9
    out["trace.spans"] = total.get("spans", 0)
    return out
