"""In-memory span tracing of halfcomm's public functions, installed from outside.

``install`` replaces each target function by a wrapper in every loaded
``halfcomm`` module that holds a reference to it, so calls between modules
(``from .crossed import crossed_mul``) are traced too.  Each call records one
span: id, parent span id, name, the phase the benchmark was in, start, end,
and an optional count (terms produced, samples drawn, ...).  Nothing in the
package itself changes; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_ID, PARENT, NAME, PHASE, START, END, COUNT = range(7)


def _terms(x):
    return len(x.f0.terms) + len(x.f1.terms)


def _table_identity(tracer, args, kwargs, out):
    # a hit is a table object already returned once; the tracer keeps every
    # table alive so that ids are never reused
    return tracer.identify(out)


# (module, function, counter); a counter maps (tracer, args, kwargs, result)
# to the count stored on the span.
TARGETS = (
    ("expressions", "parse_expression", None),
    ("words", "hc_normal_form", None),
    ("words", "coproduct_element", lambda t, a, k, out: len(out)),
    ("crossed", "embed_pi", lambda t, a, k, out: _terms(out)),
    ("crossed", "crossed_mul", lambda t, a, k, out: _terms(out)),
    ("crossed", "crossed_coproduct", lambda t, a, k, out: len(out)),
    ("haar", "weingarten_table", _table_identity),
    ("haar", "haar_integral", lambda t, a, k, out: len(a[0].terms)),
    ("haar", "norm_squared", None),
    ("haar", "mc_integral", lambda t, a, k, out: out.samples),
    ("groups", "sample_batch", lambda t, a, k, out: len(out)),
    ("groups", "evaluate_fun_batch", None),
    ("groups", "predicate", None),
    ("fusion", "lr_tensor", None),
    ("fusion", "astar_tensor", None),
)


class Tracer:
    """Span recorder; ``phase`` tags every span started while it is set."""

    def __init__(self, phase="loop"):
        self.phase = phase
        self.spans = []
        self._stack = []
        self._objects = {}

    def identify(self, obj):
        self._objects.setdefault(id(obj), obj)
        return id(obj)

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, self.phase, perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(span[SPAN_ID])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            if counter is not None:
                span[COUNT] = counter(self, args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer):
    """Wrap every target and every verify suite; returns the undo list."""
    import halfcomm  # noqa: F401  (loads every submodule)
    from halfcomm import verify

    modules = [m for name, m in list(sys.modules.items()) if name == "halfcomm" or name.startswith("halfcomm.")]
    undo = []
    for module_name, func_name, counter in TARGETS:
        orig = getattr(sys.modules[f"halfcomm.{module_name}"], func_name)
        traced = tracer.wrap(f"{module_name}.{func_name}", orig, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, traced)
                    undo.append((vars(module), attr, orig))
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = tracer.wrap(f"verify.{suite}", fn)
        undo.append((verify.SUITES, suite, fn))
    return undo


def uninstall(undo):
    for namespace, key, orig in reversed(undo):
        namespace[key] = orig


def merge(spans, more):
    """Append spans recorded by another process, renumbering their ids so
    that a span's id stays its index in ``spans``."""
    offset = len(spans)
    for s in more:
        s = list(s)
        s[SPAN_ID] += offset
        if s[PARENT] >= 0:
            s[PARENT] += offset
        if s[NAME] == "haar.weingarten_table":
            s[COUNT] = f"{offset}:{s[COUNT]}"  # table identities are per process
        spans.append(s)


def calls_by_layer(spans, phase):
    """Number of spans per layer (module) prefix in one phase."""
    out = defaultdict(int)
    for s in spans:
        if s[PHASE] == phase:
            out[s[NAME].split(".")[0]] += 1
    return dict(out)


def summarize(spans, phases):
    """Per-name totals over the spans of the given phases.

    Self time is a span's duration minus the durations of its child spans;
    calls are strictly nested in one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
    for s in spans:
        if s[PHASE] not in phases:
            continue
        st = stats[s[NAME]]
        dur = s[END] - s[START]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_time[s[SPAN_ID]]
        if isinstance(s[COUNT], int) and s[NAME] != "haar.weingarten_table":
            st["count"] += s[COUNT]
    return stats


def layer_metrics(spans, phases=("setup", "loop")):
    """The span-derived per-layer metrics, keyed by their benchmark names."""
    st = summarize(spans, phases)
    out = {}
    for name in ("expressions.parse_expression", "words.hc_normal_form", "crossed.crossed_mul",
                 "haar.haar_integral", "fusion.lr_tensor"):
        out[f"{name}.calls"] = st[name]["calls"]
        out[f"{name}.self_s"] = st[name]["self_s"]
    out["fusion.astar_tensor.calls"] = st["fusion.astar_tensor"]["calls"]
    for name in ("words.coproduct_element", "crossed.embed_pi"):
        out[f"{name}.self_s"] = st[name]["self_s"]
        out[f"{name}.terms_out"] = st[name]["count"]
    for name in ("crossed.crossed_coproduct", "haar.mc_integral", "groups.sample_batch",
                 "groups.evaluate_fun_batch", "groups.predicate"):
        out[f"{name}.self_s"] = st[name]["self_s"]
    out["groups.sample_batch.matrices"] = st["groups.sample_batch"]["count"]
    out["haar.monomials_integrated"] = st["haar.haar_integral"]["count"]
    mc = st["haar.mc_integral"]
    out["haar.mc_samples_per_s"] = mc["count"] / mc["total_s"] if mc["total_s"] else 0.0
    out["crossed.norm_expansion_terms"] = sum(
        s[COUNT] for s in spans
        if s[PHASE] in phases and s[NAME] == "crossed.crossed_mul"
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "haar.norm_squared"
    )
    seen, hits, build_s = set(), 0, 0.0
    for s in spans:
        if s[PHASE] in phases and s[NAME] == "haar.weingarten_table" and s[COUNT] is not None:
            if s[COUNT] in seen:
                hits += 1
            else:
                seen.add(s[COUNT])
                build_s += s[END] - s[START]
    calls = st["haar.weingarten_table"]["calls"]
    out["haar.weingarten_table.calls"] = calls
    out["haar.weingarten_table.hit_ratio"] = hits / calls if calls else 0.0
    out["haar.weingarten_table.build_s"] = build_s
    for name, s in st.items():
        if name.startswith("verify."):
            out[f"{name}.wall_s"] = s["total_s"]
    return out
