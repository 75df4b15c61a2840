"""Outside-in tracing of the qesforge layers, from the benchmark process only.

The tracer replaces module attributes with thin wrappers: the public
functions of ``expr``, ``validator`` and ``local_series`` get spans, the
``jets.Jet`` arithmetic operators get a counter, ``susy.quad`` (scipy's
adaptive quadrature as bound inside ``susy``) gets a span plus a counter on
the integrand callable, and ``susy._cheb_fit`` gets a sample counter.  The
workloads open their own spans around each call into ``susy``.  Nothing
under ``src/`` is edited; ``uninstall`` restores every attribute.

A span is (id, name, start, end, parent id, operation id).  Self time is a
span's duration minus the durations of its direct children, accumulated
online, so the aggregate numbers do not depend on how many spans are kept.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

# Jet operators counted as jets.ops: + - * / in every reflected form, plus
# negation and integer powers, which the operators above are built from.
JET_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)

# Spans beyond this many are aggregated but not kept for the span file.
MAX_KEPT_SPANS = 50_000


class NullTracer:
    """Stand-in used for untraced runs: every hook is a no-op."""

    op_id = 0

    def span(self, name):
        return nullcontext()

    def note_build(self, system):
        pass

    def note_failed_build(self):
        pass

    def note_assembly(self, system):
        pass


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.jet_ops_in = Counter()  # jets.ops observed inside workload spans
        self.counts = Counter()
        self.spans = []
        self.n_spans = 0
        self.op_id = 0
        self.jet_ops = 0
        self._stack = []  # [span id, start, child time]
        self._restore = []
        self._candidates = []  # branch candidates returned during the current build

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        sid = self.n_spans
        self.n_spans += 1
        frame = [sid, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if frame[0] < MAX_KEPT_SPANS:
            self.spans.append(
                (frame[0], name, frame[1], end, parent[0] if parent else None, self.op_id)
            )

    @contextmanager
    def span(self, name):
        ops0 = self.jet_ops
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)
            self.jet_ops_in[name] += self.jet_ops - ops0

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _spanned(self, name, fn, post=None):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(name, frame)
            if post is not None:
                post(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.jet_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from qesforge import expr, jets, local_series, susy, validator

        posts = {
            "taylor_branches": self._record_candidates,
            "pole_branches": self._record_candidates,
        }
        for mod in (expr, validator, local_series):
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._patch(mod, attr, self._spanned(f"{short}.{attr}", fn, posts.get(attr)))
        for op in JET_OPERATORS:
            if op in vars(jets.Jet):
                self._patch(jets.Jet, op, self._counted(vars(jets.Jet)[op]))
        if "quad" in vars(susy):
            self._patch(susy, "quad", self._quad_wrapper(susy.quad))
        if "_cheb_fit" in vars(susy):
            self._patch(susy, "_cheb_fit", self._cheb_wrapper(susy._cheb_fit))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- layer hooks -------------------------------------------------------------

    def _quad_wrapper(self, quad):
        tracer = self
        spanned = self._spanned("susy.quad", quad)

        def wrapper(func, *args, **kwargs):
            def counted(x, *a):
                tracer.counts["susy.quad.integrand_evals"] += 1
                return func(x, *a)

            return spanned(counted, *args, **kwargs)

        return wrapper

    def _record_candidates(self, args, out):
        out = list(out)
        self.counts["local_series.candidates"] += len(out)
        self._candidates.extend(out)

    def _cheb_wrapper(self, cheb_fit):
        """Counts samples and capped fits; no span, so the sampling work
        stays in the assembly's self time."""

        def wrapper(f, n, *args):
            cheb = cheb_fit(f, n, *args)
            self._record_cheb(int(n), cheb)
            return cheb

        return wrapper

    def _record_cheb(self, n, cheb):
        from qesforge import susy

        self.counts["susy.cheb.samples"] += n
        coef = [abs(float(c)) for c in cheb.coef]
        tail = max(coef[-max(8, n // 8):])
        scale = max(coef)
        cap = getattr(susy, "CHEB_DEGREE_MAX", None)
        rel = getattr(susy, "CHEB_TAIL_REL", 0.0)
        if cap is not None and n >= cap and tail > rel * max(scale, 1e-300):
            self.counts["susy.cheb.capped"] += 1

    def note_build(self, system):
        """After a successful construct: candidate use, patch and breakpoint counts."""
        patches = getattr(system, "patches", ())
        chosen = {
            id(local.wp)
            for patch in patches
            for local in getattr(patch, "branches", {}).values()
            if hasattr(local, "wp")
        }
        self.counts["local_series.candidates_used"] += sum(
            1 for cand in self._candidates if id(cand) in chosen
        )
        self._candidates.clear()
        self.counts["susy.builds"] += 1
        self.counts["susy.patches"] += len(patches)
        branch_map = getattr(system, "branch_map", None)
        self.counts["susy.breakpoints"] += len(getattr(branch_map, "breakpoints", ()))

    def note_failed_build(self):
        self._candidates.clear()

    def note_assembly(self, system):
        """After the first state call: Chebyshev degrees read from the built tables."""
        tables = getattr(getattr(system, "_assembly", None), "seg_tables", ())
        self.counts["susy.assemblies"] += 1
        self.counts["susy.cheb.degree_sum"] += sum(
            len(t.coef) - 1 for per_chain in tables for t in per_chain
        )

    # -- output ----------------------------------------------------------------

    def kept_spans(self):
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
            for s in self.spans
        ]
