"""Spans around calls into pstirling's layers, recorded from outside the package.

The tracer wraps each layer's public functions and rebinds every name in
every loaded ``pstirling`` module that refers to the original function
object (``stirling.egf_mul``, ``moments.psn_egf_cached``, ...), so calls
made inside the package are traced as well as calls made by the
benchmark.  Nothing in the package is edited.

A span is ``[name, start, end, parent, op]``; its self time is its
duration minus the durations of its direct children.  Functions in
``LEAVES`` call no other traced function and run far too often to keep
one span each: a call only adds to the leaf's totals and to its parent
span's child time.  The wrapper's bookkeeping falls inside the leaf's
timed interval, so tracing cost lands on the leaf, not on its parent.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Layer functions, by module, whose calls get spans.  A name missing from
# the module under test is reported as absent, not as an error.
LAYERS = {
    "powerseries": ("egf_mul", "egf_pow", "egf_log"),
    "randomvars": ("moments_of", "hat_transform", "sample_sum"),
    "stirling": (
        "psn_egf", "psn_egf_cached", "psn_direct", "psn_via_classical",
        "psn_gr_rep", "weighted_sum_moment",
    ),
    "moments": (
        "sum_moment", "sum_moment_egf", "sum_moment_recursion",
        "cumulants_from_stirling", "cumulants_from_sum_moments", "cumulants_oracle",
    ),
    "levy": ("cm_coefficients", "subordinator_moment_h"),
    "edgeworth": ("edgeworth_model", "edgeworth_cdf"),
    "oracle": ("uniform_fn_exact", "mc_sum_moment", "mc_empirical_cdf"),
}


def _coeff_products(args, kwargs):
    # an order-J binomial convolution multiplies (J+1)(J+2)/2 coefficient pairs
    a = args[0] if args else kwargs["a"]
    return (a.order + 1) * (a.order + 2) // 2


# Leaf functions, each with the unit of work one call performs (None: the
# work is counted by the workload, as sample_sum's draws are).
LEAVES = {
    "powerseries.egf_mul": _coeff_products,
    "randomvars.sample_sum": None,
}


class Stat:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` rebind the package."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op]
        self._child = []       # per span: summed duration of direct children
        self.stats = {}        # name -> Stat
        self.absent = []
        self.recording = False
        self._stack = []
        self._op = None
        self._undo = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        duration = end - span[1]
        stat = self.stats.get(span[0])
        if stat is None:
            stat = self.stats[span[0]] = Stat()
        stat.calls += 1
        stat.self_s += duration - self._child[idx]
        if span[3] is not None:
            self._child[span[3]] += duration

    def begin_op(self, op_id, kind):
        """Open the root span of one benchmark op and start recording."""
        self._op = op_id
        self.recording = True
        return self._open("op." + kind)

    def end_op(self, idx):
        self._close(idx)
        self.recording = False
        self._op = None

    def _wrap(self, name, fn):
        tracer = self
        if name in LEAVES:
            work = LEAVES[name]
            stat = self.stats.setdefault(name, Stat())

            def leaf(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat.calls += 1
                    if work is not None:
                        stat.work += work(args, kwargs)
                    dt = perf_counter() - start
                    stat.self_s += dt
                    tracer._child[tracer._stack[-1]] += dt
            return leaf

        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return span

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every layer function and rebind each pstirling name bound to it."""
        if self._undo:
            return
        wrappers = {}
        absent = []
        for mod_name, fnames in LAYERS.items():
            try:
                mod = importlib.import_module("pstirling." + mod_name)
            except ImportError:
                absent.extend(f"{mod_name}.{f}" for f in fnames)
                continue
            for fname in fnames:
                fn = getattr(mod, fname, None)
                if fn is None:
                    absent.append(f"{mod_name}.{fname}")
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn))
        self.absent = absent
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pstirling" or modname.startswith("pstirling.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._undo.append((namespace, attr, value))

    def uninstall(self):
        for namespace, attr, value in self._undo:
            namespace[attr] = value
        self._undo = []

    # -- results ----------------------------------------------------------

    def stat(self, name):
        return self.stats.get(name, Stat())

    def dump(self):
        """Every span with its self time, as JSON-ready lists."""
        return {
            "span_fields": ["name", "start", "end", "parent", "op", "self_s"],
            "spans": [span + [span[2] - span[1] - child]
                      for span, child in zip(self.spans, self._child)],
            "absent": self.absent,
        }
