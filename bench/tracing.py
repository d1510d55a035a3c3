"""Spans around the coarse public functions of each imsetkit module.

The tracer replaces each listed function in every imsetkit namespace that
bound it (modules import names with `from .linalg import lp_feasible`), and
wraps `GroundSet.__init__` and `Move.__post_init__` on their classes.
`restore` puts every original back.

A span is [name, start, end, parent index, op id].  Spans are recorded only
while an op is open, stay in memory, and are written out when the run ends.
Only coarse functions are wrapped: wrapping a leaf such as elementary_imset,
which runs tens of thousands of times per Markov op, would swamp the
overhead ratio.
"""

from __future__ import annotations

import functools
import json
import sys
from math import comb
from time import perf_counter

# (module, attribute) of every wrapped callable; "Class.method" wraps the
# method on the class and names the span after the class.
TRACED = (
    ("groundset", "GroundSet.__init__"),
    ("groundset", "enumerate_triplets"),
    ("imsets", "configuration"),
    ("linalg", "lp_feasible"),
    ("linalg", "rank"),
    ("supermodular", "skeletal_report"),
    ("supermodular", "first_supermodularity_violation"),
    ("ci", "ci_model_of_imset"),
    ("ci", "is_structural"),
    ("ci", "ci_model_of_P"),
    ("ci", "multiinformation"),
    ("ci", "semigraphoid_closure"),
    ("faces", "face_of_structural"),
    ("faces", "subconfiguration"),
    ("membership", "classify"),
    ("relations", "Move.__post_init__"),
    ("relations", "basic_moves"),
    ("relations", "reduce_to_basis"),
    ("relations", "classify_relation"),
    ("relations", "symmetry_reduce"),
    ("markov", "markov_basis"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[0]}"


def _lp_hook(counters, args, kwargs, result):
    key = "linalg.lp_feasible.feasible"
    counters[key] = counters.get(key, 0) + int(result.feasible)


def _markov_hook(counters, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    cap = args[1] if len(args) > 1 else kwargs["degree_cap"]
    n = sum(comb(cfg.num_cols + d - 1, d) for d in range(2, cap + 1))
    counters["markov.multisets"] = counters.get("markov.multisets", 0) + n


# Counters read off a call's arguments and result after it returns.
HOOKS = {"linalg.lp_feasible": _lp_hook, "markov.markov_basis": _markov_hook}


class Tracer:
    """Installs the wrappers and holds the spans and counters of one run.
    Set `op_id` while an op runs; spans are recorded only then."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.op_id = None
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, perf_counter(), None, tracer._stack[-1] if tracer._stack else -1, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED callable in every imsetkit namespace."""
        namespaces = [
            m for key, m in list(sys.modules.items()) if key == "imsetkit" or key.startswith("imsetkit.")
        ]
        for module, attr in TRACED:
            home = sys.modules[f"imsetkit.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover."""
    children: dict = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (s[2] - s[1]) - covered_length(children.get(i, ()), s[1], s[2]) for i, s in enumerate(spans)
    ]


def layer_metrics(spans, counters, ops: int) -> dict:
    """Per-layer metrics: calls and self seconds of every traced name, plus
    the derived ratios the benchmark reports."""
    names = [span_name(m, a) for m, a in TRACED]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for span, t in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += t
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    lp_calls = calls["linalg.lp_feasible"]
    feasible = counters.get("linalg.lp_feasible.feasible", 0)
    out["linalg.lp_feasible.feasible_ratio"] = feasible / lp_calls if lp_calls else 0.0
    out["imsets.configuration.calls_per_op"] = calls["imsets.configuration"] / ops if ops else 0.0
    multisets = counters.get("markov.multisets", 0)
    out["markov.multisets"] = multisets
    busy = self_s["markov.markov_basis"]
    out["markov.multisets_per_s"] = multisets / busy if busy else 0.0
    return out


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name == "markov.multisets":
        return "count"
    if name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith("calls_per_op"):
        return "count/op"
    return "ratio"
