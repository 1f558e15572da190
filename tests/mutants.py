"""Seeded mutation sweep: how many one-operator changes to the package
tier-1 notices.

Usage: python tests/mutants.py --seed S --n N [FILES]

FILES are package modules, by path or by name in `src/angulated`, with
or without `.py` (default: every module but `__init__.py`).  A site is
one comparison operator (`<`, `<=`, `>`, `>=`, `==`, `!=`) or one binary
`+` or `-`, found with `ast`; its mutant swaps `<` and `<=`, `>` and
`>=`, `==` and `!=`, or `+` and `-`, at that operator only, so every
other byte and every line number of the file stays.  N sites are drawn
with `random.Random(S)`.  A drawn site listed in `EQUIVALENT`, whose
mutant changes no result, is reported with its reason and not run, and
the score counts the others; the list does not change the draw.

The tree that tier-1 reads (`src`, `tests`, `perfbench`, `README.md`,
`pyproject.toml`) is copied once into a temporary directory, because
conftest, the golden tests and the README test resolve paths from it.
Each mutant is written there in turn and tier-1 runs with
`-x -p no:cacheprovider` in that directory, without bytecode files, so no
stale `.pyc` can hide a mutant; the original file is then put back.  A
mutant is killed when tier-1 fails or runs five times as long as the
control, and survives when it passes.  The unmutated copy runs first, as the control
that must pass.  Nothing is written into the working tree.  Standard
library only; pytest does not collect this file.
"""

import argparse
import ast
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "angulated"
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
}
MEMORY_LIMIT = 2 << 30  # bytes of address space per tier-1 run: a runaway mutant dies

# Known-equivalent sites, each with the reason its mutant changes no result.
# A site is named by (file, enclosing function, the source text from its left
# operand to its right one, operator), so the name survives moved lines; it
# covers every site of that text and operator in the function.
EQUIVALENT = {
    ("angles.py", "_inexact_windows", "t < ts.stop", "<"):
        "a breakpoint at ts.stop opens a run of no t, which reports nothing",
    ("angles.py", "_inexact_windows", "ts.start < t", "<"):
        "the breakpoints already hold ts.start, so adding it again changes no run",
    ("angles.py", "_inexact_windows", "l - 1", "-"):
        "no two summands in one window of l positions lie more than l - 1 apart, "
        "so the wider mask of out o in keeps the same cells",
}


def sites(path: Path) -> list[tuple[int, int, int, str, str, tuple]]:
    """(line, column, byte offset, old, new, name) of each site in `path`, in
    source order; line and column count from 1, and `name` is the site's
    key in `EQUIVALENT`.

    The operator lies between the end of its left operand and the start of
    its right one; the bytes there hold only brackets, blanks, comments and
    the operator, so it is the first match once comments are blanked.
    """
    source = path.read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    defs = sorted((node.lineno, node.end_lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            pairs = zip([node.left, *node.comparators], node.comparators, node.ops)
        elif isinstance(node, ast.BinOp):
            pairs = [(node.left, node.right, node.op)]
        else:
            continue
        for left, right, op in pairs:
            if type(op) not in SWAPS:
                continue
            old, new = SWAPS[type(op)]
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), source[lo:hi])
            at = lo + gap.index(old.encode())
            line = source.count(b"\n", 0, at) + 1
            text = source[starts[left.lineno - 1] + left.col_offset:
                          starts[right.end_lineno - 1] + right.end_col_offset]
            where = [name for first, last, name in defs if first <= line <= last]
            name = (path.name, where[-1] if where else "", " ".join(text.decode().split()), old)
            found.append((line, at - starts[line - 1] + 1, at, old, new, name))
    return sorted(found, key=lambda site: site[2])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def tier1(tree: Path, timeout: float) -> int | None:
    """Exit code of tier-1 run in `tree`, or None when it ran out of time."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    run = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=_limit_memory,
    )
    try:
        return run.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        return None
    finally:
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no replay across mutants


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)
    files = [Path(f) if Path(f).is_file() else (PACKAGE / f).with_suffix(".py")
             for f in args.files]
    for f in files:
        if not f.is_file():
            parser.error(f"no module {f}")
    files = [f.resolve() for f in files] or sorted(
        f for f in PACKAGE.glob("*.py") if f.name != "__init__.py")
    every = [(f, *site) for f in files for site in sites(f)]
    chosen = sorted(random.Random(args.seed).sample(range(len(every)), min(args.n, len(every))))
    print(f"{len(every)} sites in {', '.join(f.name for f in files)}; "
          f"{len(chosen)} drawn with seed {args.seed}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, tree / name)
        start = time.monotonic()
        code = tier1(tree, 600)
        control = time.monotonic() - start
        print(f"control: exit {code} in {control:.1f} s", flush=True)
        if code != 0:
            print("the unmutated tree fails tier-1; no mutant can be judged")
            return 2
        timeout = 5 * control
        survivors, skipped = [], 0
        for k, index in enumerate(chosen, 1):
            path, line, column, at, old, new, name = every[index]
            where = f"{path.name}:{line}:{column}"
            if name in EQUIVALENT:
                skipped += 1
                print(f"[{k}/{len(chosen)}] {where} {old} -> {new}: skipped, equivalent: "
                      f"{EQUIVALENT[name]}", flush=True)
                continue
            target = tree / path.relative_to(ROOT)
            original = target.read_bytes()
            target.write_bytes(original[:at] + new.encode() + original[at + len(old):])
            start = time.monotonic()
            try:
                code = tier1(tree, timeout)
            finally:
                target.write_bytes(original)
            verdict = "survived" if code == 0 else "killed"
            how = "timeout" if code is None else f"exit {code}"
            print(f"[{k}/{len(chosen)}] {where} {old} -> {new}: {verdict} "
                  f"({how}, {time.monotonic() - start:.1f} s)", flush=True)
            if code == 0:
                survivors.append(f"{where} {old} -> {new}")
    run = len(chosen) - skipped
    print(f"score: {run - len(survivors)}/{run} killed ({skipped} equivalent skipped)")
    for survivor in survivors:
        print(f"survived: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
