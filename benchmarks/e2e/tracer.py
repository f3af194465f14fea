"""In-memory span tracer for the end-to-end benchmark's traced rep.

The tracer wraps public entry points of the ``repro`` layers from the
outside -- nothing under ``src/`` changes.  Each wrapper is bound at
the module that calls the function (``repro.eval.runner.compile_source``,
``repro.uarch.system.fused_blocks``, ...), so only calls on the
simulation path are seen.  Every call records one span: name, start,
end, parent span, and the sweep point's label as request id.  A span's
self time is its duration minus the time its child spans cover.

Spans stay in memory and are written to JSON when the rep ends.  The
tracer keeps one span stack, so the traced rep runs its points
serially in one process.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: span name of the traced rep itself; its self time is the work no
#: layer span covers
ROOT = "rep"


class Tracer:
    """Span recorder with per-name self-time, call and count totals."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent, request]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        #: kind -> {id: object} of engine objects the rep dispatched to
        self.objects = defaultdict(dict)
        self._stack = []        # indices of open spans
        self._covered = []      # child time inside each open span
        self._request = None

    def _enter(self, name):
        self._stack.append(len(self.spans))
        self._covered.append(0.0)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-2] if len(self._stack) > 1
                           else None, self._request])

    def _exit(self):
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span[2] = end
        took = end - span[1]
        self.self_s[span[0]] += took - self._covered.pop()
        self.calls[span[0]] += 1
        if self._covered:
            self._covered[-1] += took

    @contextmanager
    def root(self):
        """The rep's own span; everything traced nests inside it."""
        self._enter(ROOT)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, owner, attr, name, request=None, after=None):
        """Replace ``owner.attr`` with a spanning wrapper.

        *name* is a span name or a callable of the call's positional
        arguments returning one; *request(args, kwargs)* labels the
        span and its descendants; *after(tracer, args, result)* runs
        once the call returns, to update :attr:`counts` or
        :attr:`objects`."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._request
            if request is not None:
                tracer._request = request(args, kwargs)
            tracer._enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
                tracer._request = outer
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)

    def unattributed_frac(self):
        """The share of the (closed) root span no layer span covers."""
        for name, start, end, _parent, _request in self.spans:
            if name == ROOT:
                return self.self_s[ROOT] / (end - start)
        raise ValueError("no closed %r span" % ROOT)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request"],
                       "spans": self.spans}, fh)


def _point_label(args, kwargs):
    kernel, config = args[0], args[1]
    return "%s/%s/%s/%s/%s" % (kernel, config,
                               kwargs.get("mode", "traditional"),
                               kwargs.get("binary", "xloops"),
                               kwargs.get("scale", "small"))


def _gpp_name(args):
    return "uarch.gpp_ooo" if args[0].config.gpp.is_ooo \
        else "uarch.gpp_io"


def _count_gpp(tracer, args, result):
    kind = "ooo" if args[0].config.gpp.is_ooo else "io"
    tracer.counts["uarch.gpp_instrs_" + kind] += result.gpp_instrs


def _count_lpsu(tracer, _args, result):
    tracer.counts["uarch.lpsu_instrs"] += result.stats.instrs


def _keep(kind):
    def after(tracer, _args, result):
        if result is not None:
            tracer.objects[kind][id(result)] = result
    return after


def install(tracer):
    """Wrap the entry points of every ``repro`` layer the workloads
    reach; call it before the rep starts."""
    import repro.eval.hardening as hardening
    import repro.eval.runner as runner
    import repro.kernels.base as kernels
    import repro.lang as lang
    import repro.sim.turbo as turbo
    import repro.sim.vector as vector
    import repro.uarch.lpsu as lpsu
    import repro.uarch.system as system
    from repro.eval import diskcache

    # lang: the runner's compile cache, and build_row's own compile
    tracer.wrap(runner, "compile_source", "lang.compile")
    tracer.wrap(lang, "compile_source", "lang.compile")
    # eval: the executor and the per-point runner (request id = point)
    tracer.wrap(hardening, "execute_points", "eval.runner")
    tracer.wrap(runner, "run", "eval.runner", request=_point_label)
    # eval.diskcache
    tracer.wrap(diskcache, "load", "cache.load")
    tracer.wrap(diskcache, "store", "cache.store")
    # kernels: dataset generation + memory image, result check
    tracer.wrap(kernels.KernelSpec, "workload", "kernels.workload")
    tracer.wrap(kernels.Workload, "apply", "kernels.workload")
    tracer.wrap(kernels.Workload, "check", "kernels.check")
    # energy
    tracer.wrap(runner, "system_energy", "energy.price")
    # uarch: the GPP timing run (self time), LPSU phases, loop scans
    tracer.wrap(system.SystemSimulator, "run", _gpp_name,
                after=_count_gpp)
    tracer.wrap(lpsu.LPSU, "run", "uarch.lpsu", after=_count_lpsu)
    tracer.wrap(system, "scan_loop", "uarch.scan")
    # sim: code generation for the fused GPP and LPSU engines, and the
    # turbo / vector rungs' per-loop set-up
    tracer.wrap(system, "fused_blocks", "sim.codegen_gpp")
    tracer.wrap(system, "lpsu_engine", "sim.codegen_lpsu")
    tracer.wrap(turbo, "turbo_memo", "sim.rung_setup",
                after=_keep("turbo"))
    tracer.wrap(vector, "vector_engine", "sim.rung_setup",
                after=_keep("vector"))
