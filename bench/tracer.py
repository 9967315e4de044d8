"""In-memory span tracer over griforge's layer modules.

The tracer replaces every public function of a layer module in every
griforge namespace that binds it (``find_root`` is bound in both
``ffield`` and ``gring``, ``run_attack`` in ``lattice``, ``cli`` and the
package), so a call is recorded whichever name the caller used. Each
wrapped call becomes a span ``[name, start_ns, end_ns, parent, op, attrs]``
kept in memory; nothing is written until the caller asks. ``zmod`` is
not wrapped: it is called once per coefficient and would swamp the
numbers, so its time shows as self time of its callers.

Times are integer nanoseconds, so the self times of the spans of one
op add up exactly to the op's own duration.
"""

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("poly", "ffield", "gring", "linalg", "gri", "lattice", "crt", "cli")

# Methods that get a span of their own, named "<module>.<method>".
METHOD_SPANS = (
    ("gring", "Isomorphism", "apply"),
    ("gring", "Isomorphism", "apply_inverse"),
    ("crt", "CompositeCtx", "from_components"),
)

# The hottest calls only count: a span per call would dominate their cost.
COUNTED = {
    ("gring", "RingElem", "__mul__"): "gring.mul",
    ("linalg", None, "vec_mat"): "linalg.vec_mat",
}

# Functions returning a distinguisher; the returned callable gets a span.
STRATEGY_FACTORIES = {"oracle_strategy", "random_guess_strategy"}


def _attack_attrs(report) -> dict:
    return {
        "candidates": len(report.candidates),
        "rows": len(report.basis),
        "rank": report.recovery_rank,
        "max_bits": max((abs(x).bit_length() for row in report.basis for x in row), default=0),
    }


# Span name -> summary of the call's result stored as the span's attrs.
RESULT_ATTRS = {"lattice.run_attack": _attack_attrs}


class Tracer:
    """Spans and counts for the calls into griforge made inside `op` blocks.

    The wrappers are installed on entry to each op and the originals put
    back on exit, so code outside an op (input generation, output
    checks) runs the unmodified library. When an op ends its spans are
    folded into per-name totals; they stay in `spans` only while `keep`
    is true, which bounds memory on long runs.
    """

    def __init__(self, package):
        self.spans: list[list] = []
        self.keep = True
        self.counts: Counter = Counter()  # count-only wrappers
        self.self_ns: Counter = Counter()  # span name -> summed self time
        self.calls: Counter = Counter()  # span name -> spans
        self.edges: Counter = Counter()  # (parent name, child name) -> spans
        self.results: defaultdict = defaultdict(list)  # span name -> attrs of each span
        self.unaccounted_ns = 0  # op time not covered by exactly one span's self time
        self._stack: list[int] = []
        self._op = None
        self._patches = self._plan(package)

    # -- planning -----------------------------------------------------------

    def _plan(self, package):
        """(owner, attribute, original, replacement) for every binding."""
        prefix = package.__name__
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        patches = []
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                key = (layer, None, name)
                if key in COUNTED:
                    wrapper = self._counter(COUNTED[key], fn)
                else:
                    wrapper = self._span(f"{layer}.{name}", fn, name in STRATEGY_FACTORIES)
                for ns in namespaces:
                    for attr, obj in vars(ns).items():
                        if obj is fn:
                            patches.append((ns, attr, fn, wrapper))
        for layer, cls_name, meth in METHOD_SPANS:
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._span(f"{layer}.{meth}", raw.__func__))
            else:
                wrapper = self._span(f"{layer}.{meth}", raw)
            patches.append((cls, meth, raw, wrapper))
        for (layer, cls_name, meth), name in COUNTED.items():
            if cls_name is not None:
                cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
                raw = cls.__dict__[meth]
                patches.append((cls, meth, raw, self._counter(name, raw)))
        return patches

    def _span(self, name, fn, wraps_result=False):
        spans, stack = self.spans, self._stack
        attrs_of = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self._op, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(result)
            if wraps_result:
                result = self._span("gri.strategy", result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def originals(self):
        """(owner, attribute, original object) for every patched binding."""
        return [(owner, attr, original) for owner, attr, original, _ in self._patches]

    @contextmanager
    def op(self, op_id: int, **attrs):
        """Trace one op: a root span named "op" with the op's attributes."""
        span = ["op", 0, 0, None, op_id, attrs]
        sid = len(self.spans)
        self.spans.append(span)
        self._stack.append(sid)
        self._op = op_id
        self.install()
        try:
            span[1] = perf_counter_ns()
            yield span
        finally:
            span[2] = perf_counter_ns()
            self.uninstall()
            self._stack.pop()
            self._op = None
            self._fold(sid)

    def _fold(self, first: int):
        """Add the spans of the op starting at index `first` to the totals.

        A span's self time is its duration minus that of its direct
        children. The self times of an op's spans must add up to the op's
        duration; any difference goes to `unaccounted_ns`.
        """
        spans = self.spans[first:]
        child = [0] * len(spans)
        for span in spans[1:]:
            child[span[3] - first] += span[2] - span[1]
        total = 0
        for span, child_ns in zip(spans, child):
            name = span[0]
            ns = span[2] - span[1] - child_ns
            total += ns
            self.self_ns[name] += ns
            self.calls[name] += 1
            if span[3] is not None:
                self.edges[self.spans[span[3]][0], name] += 1
            if span[5] is not None and name != "op":
                self.results[name].append(span[5])
        self.unaccounted_ns += abs(total - (spans[0][2] - spans[0][1]))
        if not self.keep:
            del self.spans[first:]

    def write(self, path):
        """One JSON array per line: name, start_ns, end_ns, parent, op, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
