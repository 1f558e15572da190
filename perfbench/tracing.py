"""Span tracing of the angulated layers, installed from outside the package.

`Tracer.install()` replaces every traced function with a wrapper that
records one span (name, parent span, start, end) per call.  A function is
replaced under every name that binds it inside the package: `from .core
import compose` gives `angles`, `artheory`, `verify`, `cli` and the package
root their own binding of `compose`, and a patch of `core.compose` alone
would miss all of them.  Dict values such as `verify.SUITES` are bindings
too.  `uninstall()` puts every original back.

Spans stay in memory in four flat arrays (24 bytes a span) until the run
ends; `write()` dumps them and `summary()` turns them into per-layer
numbers.  A span's layer is the module that defines its function.
"""

import json
import sys
import time
from array import array

LAYERS = ("linalg", "core", "angles", "artheory", "wide", "verify", "cli")

# O(1) position helpers called millions of times by every layer.  A span
# around each would cost more than the call itself and no metric needs
# them; their time counts as self time of the calling span.
UNTRACED = frozenset({
    "core.hom_dim", "core.index_of", "core.split_pos", "core.join_pos",
    "core.pos_label", "core.indec",
})

# constructors whose work (field setting and validation) is layer work:
# (module, class)
CONSTRUCTORS = (
    ("core", "SumObject"), ("core", "Morphism"), ("angles", "Angle"),
    ("wide", "SubcatSpec"),
)


def traced_functions(modules: dict) -> dict:
    """Qualified name -> function for everything the tracer wraps.

    `modules` maps each layer name to its imported module.  Public
    functions defined in a layer are traced unless listed in UNTRACED;
    each class in CONSTRUCTORS contributes its `__init__`, which runs the
    dataclass's field setting and its `__post_init__` validation.
    """
    out = {}
    for layer in LAYERS:
        mod = modules[layer]
        for name, value in vars(mod).items():
            qual = f"{layer}.{name}"
            if (
                not name.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == mod.__name__
                and not isinstance(value, type)
                and qual not in UNTRACED
            ):
                out[qual] = value
    for layer, cls in CONSTRUCTORS:
        out[f"{layer}.{cls}"] = vars(modules[layer])[cls].__init__
    return out


class Tracer:
    """Records spans for calls into the package; see the module docstring."""

    def __init__(self, probes=None):
        # probes: qualified name -> callable(args, result), run after a
        # successful call to count input properties
        self.probes = probes or {}
        self.names: list[str] = []
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._current = [-1]
        self._restore: list[tuple] = []

    def _wrapper(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_start = self.span_start.append
        starts, ends = self.span_start, self.span_end
        add_end = ends.append
        current = self._current
        probe = self.probes.get(qual)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(starts)
            prev = current[0]
            add_name(nid)
            add_parent(prev)
            add_end(0)
            current[0] = sid
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                current[0] = prev
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package_name: str = "angulated") -> None:
        """Wrap every traced function under every binding in the package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {
            layer: sys.modules[f"{package_name}.{layer}"] for layer in LAYERS
        }
        originals = traced_functions(modules)
        wrappers = {id(fn): self._wrapper(qual, fn) for qual, fn in originals.items()}
        for layer, cls_name in CONSTRUCTORS:
            cls = vars(modules[layer])[cls_name]
            orig = vars(cls)["__init__"]
            self._restore.append((cls, "__init__", orig, True))
            setattr(cls, "__init__", wrappers[id(orig)])
        package_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == package_name or name.startswith(package_name + "."))
        ]
        for mod in package_modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._restore.append((namespace, key, value, False))
                    namespace[key] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._restore.append((value, k, v, False))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        """Put back every original function the tracer replaced."""
        for container, key, orig, is_attr in reversed(self._restore):
            if is_attr:
                setattr(container, key, orig)
            else:
                container[key] = orig
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str) -> None:
        """Dump the spans: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": ["name:I", "parent:i", "start_ns:q", "end_ns:q"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self nanoseconds, root total."""
        return summarize(
            self.names, self.span_name, self.span_parent, self.span_start, self.span_end
        )


def self_times(parents, starts, ends) -> array:
    """Self time of each span: its duration less the part its children cover.

    Spans are in creation order, so the children of one parent arrive in
    order of start time; the union of their intervals, clipped to the
    parent, is accumulated in one pass.
    """
    n = len(starts)
    covered = array("q", bytes(8 * n))
    covered_to = array("q", starts)  # end of the union of children seen so far
    for sid in range(n):
        p = parents[sid]
        if p < 0:
            continue
        lo = max(starts[sid], covered_to[p])
        hi = min(ends[sid], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_to[p] = hi
    return array("q", (ends[s] - starts[s] - covered[s] for s in range(n)))


def summarize(names, span_name, span_parent, span_start, span_end) -> dict:
    selfs = self_times(span_parent, span_start, span_end)
    calls = [0] * len(names)
    incl = [0] * len(names)
    self_ns = [0] * len(names)
    root_ns = 0
    for sid, nid in enumerate(span_name):
        dur = span_end[sid] - span_start[sid]
        calls[nid] += 1
        incl[nid] += dur
        self_ns[nid] += selfs[sid]
        if span_parent[sid] < 0:
            root_ns += dur
    return {
        "calls": dict(zip(names, calls)),
        "incl_ns": dict(zip(names, incl)),
        "self_ns": dict(zip(names, self_ns)),
        "root_ns": root_ns,
        "spans": len(span_name),
    }
