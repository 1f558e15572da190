"""Command line surface.

Objects are written as `f<i>` with an optional shift prefix `s<k>:`
(`s-1:f4` is the vertex one period to the left of f4); the raw position
form `p<int>` is also accepted.  Output is canonical one-line JSON by
default, `--format text` for a human rendering, and `--format dot` on the
`quiver` subcommand.  Domain errors exit 1 with an error document on
stderr; usage and configuration errors exit 2.  A token that does not
parse (an object, a subcategory index, a config value) is a usage error;
a parsed value outside its range (`f13` or `--sub 13` at period 12) is the
domain error `BadDistance`.  `verify` exits 1 when a check fails; a check
whose case raises fails with the case and exception class as its detail.
A closed stdout (`| head`) exits 1 quietly, with nothing on stderr.

Each subcommand is one handler that returns its JSON document and its
text rendering; the parser attaches it to the subcommand's subparser, and
`_run` prints the one the format asks for.  The parser is built once per
process, on the first `main` call: parsing leaves it unchanged, and every
setting a call reads from flags or a config file lives in that call's own
namespace, so no call sees another's.
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import artheory, verify, wide
from .angles import (
    Angle,
    FLevelChain,
    d_cokernel,
    d_exact_seq,
    d_kernel,
    min_angle,
)
from .core import (
    DomainError,
    FamilyParams,
    Morphism,
    SumObject,
    basis_mor,
    compose,
    hom_dim,
    indec,
    join_pos,
    pos_label,
    shift_obj,
    split_pos,
    validate_params,
)

_OBJ_RE = re.compile(r"^(?:s(-?\d+):)?f(\d+)$")
_POS_RE = re.compile(r"^p(-?\d+)$")


def parse_object(params: FamilyParams, text: str) -> int:
    """Position of a vertex written as f<i>, s<k>:f<i> or p<pos>."""
    m = _OBJ_RE.match(text)
    if m:
        shift = int(m.group(1)) if m.group(1) else 0
        return join_pos(params, shift, int(m.group(2)))
    m = _POS_RE.match(text)
    if m:
        return int(m.group(1))
    raise UsageError(f"cannot parse object {text!r} (want f4, s-1:f4 or p-8)")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# document builders (canonical field order keeps JSON round-trips byte equal)
# ---------------------------------------------------------------------------

def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _entries_doc(mor: Morphism) -> list:
    return [[frac_str(e) for e in row] for row in mor.entries]


def params_doc(params: FamilyParams) -> dict:
    return {"d": params.d, "l": params.l, "m": params.m, "period": params.period}


def obj_doc(params: FamilyParams, obj: SumObject) -> list:
    out = []
    for pos in obj.summands:
        s, i = split_pos(params, pos)
        out.append({"shift": s, "index": i})
    return out


def mor_doc(params: FamilyParams, mor: Morphism) -> dict:
    return {
        "source": obj_doc(params, mor.source),
        "target": obj_doc(params, mor.target),
        "entries": _entries_doc(mor),
    }


def angle_doc(a: Angle) -> dict:
    return {
        "params": params_doc(a.params),
        "objects": [obj_doc(a.params, o) for o in a.objects],
        "maps": [{"entries": _entries_doc(m)} for m in a.maps],
    }


def chain_doc(chain: FLevelChain) -> dict:
    return {
        "params": params_doc(chain.params),
        "kind": chain.kind,
        "objects": [obj_doc(chain.params, o) for o in chain.objects],
        "maps": [{"entries": _entries_doc(m)} for m in chain.maps],
    }


# ---------------------------------------------------------------------------
# text renderings
# ---------------------------------------------------------------------------

def obj_text(params: FamilyParams, obj: SumObject) -> str:
    if obj.is_zero:
        return "0"
    return "+".join(pos_label(params, pos) for pos in obj.summands)


def angle_text(a: Angle) -> str:
    names = [obj_text(a.params, o) for o in a.objects]
    names.append(obj_text(a.params, shift_obj(a.params, a.objects[0], 1)))
    return " -> ".join(names)


def chain_text(chain: FLevelChain) -> str:
    return " -> ".join(obj_text(chain.params, o) for o in chain.objects)


def quiver_dot(params: FamilyParams, lo: int, hi: int, spec=None) -> str:
    lines = ["digraph quiver {", "  rankdir=LR;"]
    for pos in range(lo, hi + 1):
        s, i = split_pos(params, pos)
        name = f"s{s}_f{i}"
        attrs = f' [label="{pos_label(params, pos)}"'
        if spec is not None and spec.contains_pos(pos):
            attrs += ", style=filled"
        attrs += "];"
        lines.append(f"  {name}{attrs}")
    for pos in range(lo, hi):
        s, i = split_pos(params, pos)
        s2, i2 = split_pos(params, pos + 1)
        lines.append(f"  s{s}_f{i} -> s{s2}_f{i2};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {line!r} (want key=value)")
                key, value = (part.strip() for part in line.split("=", 1))
                out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for key in out:
        if key not in {"d", "l", "m", "format"}:
            raise UsageError(f"unknown config key {key!r}")
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angulated",
        description="Calculator for the higher-angulated categories of "
        "truncated linear Nakayama algebras.",
    )
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--l", type=int, default=None)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--config", default=None, help="key=value file with the same keys as the flags")
    parser.add_argument("--format", choices=["text", "json", "dot"], default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("params").set_defaults(run=_params)
    p = sub.add_parser("hom")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(run=_hom)
    p = sub.add_parser("compose")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.set_defaults(run=_compose)
    p = sub.add_parser("angle")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(run=_angle)
    for name in _CHAINS:
        p = sub.add_parser(name)
        p.add_argument("i", type=int)
        p.add_argument("j", type=int)
        p.set_defaults(run=_chain)
    p = sub.add_parser("ar")
    p.add_argument("x")
    p.add_argument("--sub", default=None)
    p.set_defaults(run=_ar)
    p = sub.add_parser("cover")
    p.add_argument("x")
    p.add_argument("--sub", required=True)
    p.set_defaults(run=_cover)
    p = sub.add_parser("wide")
    p.add_argument("action", choices=["list", "check"])
    p.add_argument("spec", nargs="?", default=None)
    p.set_defaults(run=_wide)
    p = sub.add_parser("verify")
    p.add_argument("target", choices=sorted(verify.SUITES))
    p.set_defaults(run=_verify)
    p = sub.add_parser("quiver")
    p.add_argument("--from", dest="lo", default=None)
    p.add_argument("--to", dest="hi", default=None)
    p.add_argument("--sub", default=None)
    p.set_defaults(run=_quiver)
    return parser


def _parse_sub(params: FamilyParams, text: str) -> wide.SubcatSpec:
    if text.strip() == "":
        return wide.empty_spec(params)
    try:
        indices = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse subcategory spec {text!r}")
    return wide.SubcatSpec(params, indices)


# ---------------------------------------------------------------------------
# subcommands: each returns (JSON document, text rendering)
# ---------------------------------------------------------------------------

def _params(params, args):
    return (
        params_doc(params),
        f"d={params.d} l={params.l} m={params.m} period={params.period}",
    )


def _hom(params, args):
    x = parse_object(params, args.x)
    y = parse_object(params, args.y)
    dim = hom_dim(params, x, y)
    doc = {
        "params": params_doc(params),
        "source": obj_doc(params, indec(x)),
        "target": obj_doc(params, indec(y)),
        "dim": dim,
    }
    return doc, f"dim Hom({args.x} -> {args.y}) = {dim}"


def _compose(params, args):
    x = parse_object(params, args.x)
    y = parse_object(params, args.y)
    z = parse_object(params, args.z)
    out = compose(basis_mor(params, y, z), basis_mor(params, x, y))
    entry = out.entries[0][0]
    text = f"u({args.y} -> {args.z}) o u({args.x} -> {args.y}) = " + (
        f"{frac_str(entry)} * u({args.x} -> {args.z})" if entry else "0"
    )
    return {"params": params_doc(params), **mor_doc(params, out)}, text


def _angle(params, args):
    x = parse_object(params, args.x)
    y = parse_object(params, args.y)
    a = min_angle(basis_mor(params, x, y))
    return angle_doc(a), angle_text(a)


_CHAINS = {"dkernel": d_kernel, "dcokernel": d_cokernel, "dexact": d_exact_seq}


def _chain(params, args):
    chain = _CHAINS[args.command](params, args.i, args.j)
    return chain_doc(chain), chain_text(chain)


def _ar(params, args):
    x = parse_object(params, args.x)
    if args.sub is None:
        a = artheory.ar_angle(params, x)
    else:
        a = artheory.ar_angle_in(_parse_sub(params, args.sub), x)
    return angle_doc(a), angle_text(a)


def _cover(params, args):
    x = parse_object(params, args.x)
    spec = _parse_sub(params, args.sub)
    result = artheory.cover(spec, x)
    doc = {
        "params": params_doc(params),
        "sub": list(spec.indices),
        "source": obj_doc(params, result.source),
        "morphism": mor_doc(params, result.mor),
    }
    return doc, (
        f"cover of {args.x}: {obj_text(params, result.source)} -> "
        f"{obj_text(params, result.mor.target)}"
    )


def _wide(params, args):
    if args.action == "list":
        if args.spec is not None:
            raise UsageError("wide list takes no spec argument")
        specs = wide.enumerate_wide(params)
        doc = {
            "params": params_doc(params),
            "count": len(specs),
            "specs": [list(s.indices) for s in specs],
        }
        return doc, "\n".join(str(list(s.indices)) for s in specs)
    if args.spec is None:
        raise UsageError("wide check needs a spec argument")
    spec = _parse_sub(params, args.spec)
    semis = wide.is_semisimple_wide(spec)
    periodic = wide.is_l_periodic(spec)
    classified = semis or periodic
    oracle = wide.is_wide_oracle(spec)
    doc = {
        "params": params_doc(params),
        "indices": list(spec.indices),
        "semisimple": semis,
        "periodic": periodic,
        "wide": classified,
        "oracle": oracle,
        "agree": classified == oracle,
    }
    return doc, (
        f"{list(spec.indices)}: wide={classified} "
        f"(semisimple={semis}, periodic={periodic}, oracle={oracle})"
    )


def _verify(params, args):
    checks = verify.SUITES[args.target](params)
    ok = all(c.ok for c in checks)
    doc = {
        "params": params_doc(params),
        "target": args.target,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "ok": ok,
    }
    text = "\n".join(
        f"[{'PASS' if c.ok else 'FAIL'}] {c.name}" + (f": {c.detail}" if c.detail else "")
        for c in checks
    ) + f"\noverall: {'PASS' if ok else 'FAIL'}"
    return doc, text


def _quiver(params, args):
    lo = parse_object(params, args.lo) if args.lo else 1
    hi = parse_object(params, args.hi) if args.hi else params.period
    if hi < lo:
        raise UsageError("--to must not precede --from")
    spec = _parse_sub(params, args.sub) if args.sub else None
    window = range(lo, hi + 1)
    doc = {
        "params": params_doc(params),
        "window": [lo, hi],
        "nodes": obj_doc(params, SumObject(tuple(window))),
        "members": [
            pos for pos in window if spec is not None and spec.contains_pos(pos)
        ],
    }
    if args.format == "dot":
        return doc, quiver_dot(params, lo, hi, spec)
    return doc, " -> ".join(pos_label(params, q) for q in window)


def _run(args) -> int:
    config = _read_config(args.config) if args.config else {}
    for name in ("d", "l", "m", "format"):
        if getattr(args, name) is None and name in config:
            value = config[name]
            if name != "format":
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"config key {name} must be an integer")
            setattr(args, name, value)
    args.format = args.format or "json"
    if args.format not in {"text", "json", "dot"}:
        raise UsageError(f"unknown format {args.format!r}")
    if args.format == "dot" and args.run is not _quiver:
        raise UsageError("dot output is only available for the quiver command")
    if args.d is None or args.l is None or args.m is None:
        raise UsageError("parameters --d, --l, --m are required (flags or config)")
    doc, text = args.run(validate_params(args.d, args.l, args.m), args)
    print(json.dumps(doc) if args.format == "json" else text)
    return 0 if doc.get("ok", True) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout; the last flush must not raise too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
