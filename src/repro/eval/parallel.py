"""Parallel sweeps: fan simulation points across persistent forked
workers, backed by the persistent result cache.

A *point* is one ``(kernel, config, mode, binary, xi, scale, seed)``
simulation -- exactly the argument tuple of
:func:`repro.eval.runner.run`.  :func:`sweep`:

* deduplicates the submitted points,
* serves what it can from the in-process memo and the disk cache,
* runs the rest on up to ``--jobs`` persistent worker processes of
  the hardened engine (:mod:`repro.eval.hardening`), one task at a
  time each: a lone point, or a host group -- a kernel's points that
  differ only in their GPP host, timed in one pass.  A worker writes
  each result to the shared disk cache and keeps its compiled kernels
  and generated simulator code warm for its next task,
* installs every result into the parent's memo, so the table/figure
  assembly code that follows hits the memo and never simulates,
* reports per-point wall time and cache hit/miss counts.

With ``jobs <= 1`` everything runs in-process (no workers), which is
also the fallback when worker processes cannot be created.  Results
are bit-identical either way: each point is an independent
deterministic simulation, and :func:`sweep` only moves *where* it
runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from ..kernels import TABLE2_KERNELS, TABLE4_KERNELS, get_kernel
from . import runner
from .configs import (BASELINE_OF, DESIGN_SPACE_NAMES, GPP_NAMES,
                      XLOOPS_NAMES)
from .report import render_table

#: (mode letter, mode) pairs used by the Table II sweep
_TABLE2_MODES = (("T", "traditional"), ("S", "specialized"),
                 ("A", "adaptive"))


@dataclass(frozen=True)
class SweepPoint:
    """One simulation point (the argument tuple of ``runner.run``)."""

    kernel: str
    config: object                 # name or SystemConfig
    mode: str = "traditional"
    binary: str = "xloops"
    xi_enabled: bool = True
    scale: str = "small"
    seed: int = 0
    schedule_cirs: bool = False

    def run_kwargs(self):
        return dict(mode=self.mode, binary=self.binary,
                    xi_enabled=self.xi_enabled, scale=self.scale,
                    seed=self.seed, schedule_cirs=self.schedule_cirs)

    def memo_key(self):
        return runner.memo_key(self.kernel, self.config,
                               **self.run_kwargs())

    def label(self):
        cfg = self.config if isinstance(self.config, str) \
            else getattr(self.config, "name", "<config>")
        return "%s/%s/%s/%s/%s" % (self.kernel, cfg, self.mode,
                                   self.binary, self.scale)

    def to_wire(self):
        """The point as JSON, as a client submits it to a sweep
        server.  ``ValueError`` for an ad-hoc SystemConfig, which has
        no name to send."""
        if not isinstance(self.config, str):
            raise ValueError(
                "only named configurations can be submitted to a sweep "
                "server (got %r)" % (self.config,))
        return {"kernel": self.kernel, "config": self.config,
                "mode": self.mode, "binary": self.binary,
                "xi": bool(self.xi_enabled), "scale": self.scale,
                "seed": int(self.seed),
                "schedule_cirs": bool(self.schedule_cirs)}

    @classmethod
    def from_wire(cls, data):
        """Inverse of :meth:`to_wire`; ``ValueError`` on a malformed
        point."""
        try:
            return cls(
                kernel=str(data["kernel"]), config=str(data["config"]),
                mode=str(data.get("mode", "traditional")),
                binary=str(data.get("binary", "xloops")),
                xi_enabled=bool(data.get("xi", True)),
                scale=str(data.get("scale", "small")),
                seed=int(data.get("seed", 0)),
                schedule_cirs=bool(data.get("schedule_cirs", False)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("malformed wire point %r: %s"
                             % (data, exc)) from None


@dataclass
class PointOutcome:
    """Per-point record in a sweep summary."""

    point: SweepPoint
    wall_time: float
    simulated: bool                # False -> served from a cache


@dataclass
class SweepSummary:
    """What one sweep did, and how long it took.

    Beyond the outcome list, the summary carries the hardened
    runtime's structured records: per-attempt :class:`RetryEvent`\\ s,
    quarantined :class:`PointFailure`\\ s (points whose every attempt
    failed -- the sweep completes without them instead of aborting),
    and :class:`~repro.eval.runner.Incident`\\ s (degradations the
    runtime absorbed, like fast-path fallbacks or a parallel-to-serial
    downgrade, flagged by :attr:`degraded`)."""

    outcomes: List[PointOutcome] = field(default_factory=list)
    wall_time: float = 0.0
    jobs: int = 1
    failures: List = field(default_factory=list)   # PointFailure
    retries: List = field(default_factory=list)    # RetryEvent
    incidents: List = field(default_factory=list)  # runner.Incident
    degraded: bool = False     # parallel execution fell back to serial

    @property
    def points(self):
        return len(self.outcomes)

    @property
    def misses(self):
        """Points that actually ran the simulator."""
        return sum(1 for o in self.outcomes if o.simulated)

    @property
    def hits(self):
        """Points served from the memo or the disk cache."""
        return sum(1 for o in self.outcomes if not o.simulated)

    @property
    def ok(self):
        """No point was quarantined (retried-and-recovered is ok)."""
        return not self.failures

    def render(self, per_point=False):
        lines = ["sweep: %d points in %.2fs (%d jobs): "
                 "%d simulated, %d cached"
                 % (self.points, self.wall_time, self.jobs,
                    self.misses, self.hits)]
        if self.retries:
            lines.append("retries: %d" % len(self.retries))
            for ev in self.retries:
                lines.append("  retry %s attempt %d (%s): %s"
                             % (ev.label, ev.attempt, ev.kind,
                                ev.error))
        if self.failures:
            lines.append("QUARANTINED %d point(s):" % len(self.failures))
            for fl in self.failures:
                lines.append("  %s after %d attempts (%s): %s"
                             % (fl.label, fl.attempts, fl.kind,
                                fl.error))
        if self.degraded:
            lines.append("DEGRADED: parallel execution fell back to "
                         "serial")
        for inc in self.incidents:
            lines.append("incident [%s] %s: %s"
                         % (inc.kind, inc.context, inc.detail))
        if per_point:
            rows = [[o.point.label(),
                     "%.3f" % o.wall_time,
                     "sim" if o.simulated else "cache"]
                    for o in sorted(self.outcomes,
                                    key=lambda o: -o.wall_time)]
            lines.append(render_table(["Point", "Wall (s)", "Source"],
                                      rows, title="Per-point wall time"))
        return "\n".join(lines)


def sweep(points, jobs=None, cache_dir=None, use_cache=True,
          timeout=0.0, retries=3, backoff=0.25):
    """Execute *points* (deduplicated, order-preserving) on the
    hardened engine (:func:`repro.eval.hardening.execute_points`);
    returns a :class:`SweepSummary`.  Every result ends up in this
    process's memo.

    The engine runs one task at a time on each of up to *jobs*
    persistent forked workers under a wall-clock watchdog.  A task is
    a lone point or a host group, whose points differ only in a GPP
    host they can share and are timed in one pass, as the serial path
    times them.  A crash or hang is isolated to its task: a failed
    group's points go back alone, and a point is retried with
    exponential backoff in a fresh worker.  Exhausted points are
    quarantined instead of aborting the sweep, and worker-spawn
    failure degrades to serial in-process execution.

    Parameters
    ----------
    jobs
        Worker process count; ``None`` or ``1`` runs in-process.
    cache_dir
        Override the disk-cache directory (propagates to workers via
        ``REPRO_CACHE_DIR``).
    use_cache
        ``False`` disables the disk cache for this process and its
        workers (``REPRO_NO_CACHE``); the in-process memo still
        applies.
    timeout
        Per-point wall-clock bound in seconds (0 = unbounded); a host
        group gets its points' sum.  In parallel mode a worker over
        budget is killed; in serial mode the SIGALRM watchdog
        interrupts the simulation.
    retries
        Maximum attempts per point (the last one on the ``interp``
        reference rung).
    backoff
        Base retry backoff in seconds; doubles per failed attempt.

    An interrupted sweep resumes from the disk cache: run again, it
    serves every point that finished and simulates only the rest.
    """
    from . import diskcache
    from .hardening import HardeningPolicy, execute_points
    if cache_dir is not None:
        diskcache.configure(cache_dir=cache_dir)
    if not use_cache:
        diskcache.configure(enabled=False)
    jobs = max(1, int(jobs)) if jobs else 1
    t0 = time.perf_counter()
    summary = SweepSummary(jobs=jobs)
    # anything already memoized is free; don't ship it to a worker
    pending = []
    for pt in dict.fromkeys(points):
        if runner._RESULTS.get(pt.memo_key()) is not None:
            summary.outcomes.append(PointOutcome(pt, 0.0, False))
        else:
            pending.append(pt)
    execute_points(pending, jobs,
                   HardeningPolicy(timeout, retries, backoff), summary)
    summary.wall_time = time.perf_counter() - t0
    return summary


# ---------------------------------------------------------------------------
# point-set enumerators for the paper's artifacts
# ---------------------------------------------------------------------------


def baseline_point(kernel, config_name, scale="small", seed=0):
    """The paper's denominator run for (kernel, platform)."""
    spec = get_kernel(kernel)
    binary = "serial" if spec.serial_source else "gp"
    return SweepPoint(kernel, BASELINE_OF[config_name],
                      mode="traditional", binary=binary, scale=scale,
                      seed=seed)


def table2_points(kernels=None, scale="small", seed=0,
                  modes=_TABLE2_MODES, gpps=GPP_NAMES):
    names = kernels or [k.name for k in TABLE2_KERNELS]
    points = []
    for name in names:
        points.append(baseline_point(name, "io", scale, seed))
        points.append(SweepPoint(name, "io", mode="traditional",
                                 scale=scale, seed=seed))
        for gpp in gpps:
            points.append(baseline_point(name, gpp, scale, seed))
            for _letter, mode in modes:
                cfg = gpp if mode == "traditional" else gpp + "+x"
                points.append(SweepPoint(name, cfg, mode=mode,
                                         scale=scale, seed=seed))
    return points


def table4_points(kernels=None, scale="small", seed=0,
                  configs=XLOOPS_NAMES):
    names = kernels or [k.name for k in TABLE4_KERNELS]
    points = []
    for name in names:
        for cfg in configs:
            points.append(baseline_point(name, cfg, scale, seed))
            points.append(SweepPoint(name, cfg, mode="specialized",
                                     scale=scale, seed=seed))
    return points


def fig5_points(kernels=None, scale="small", seed=0):
    names = kernels or [k.name for k in TABLE2_KERNELS]
    points = []
    for name in names:
        for gpp in GPP_NAMES:
            points.append(baseline_point(name, gpp, scale, seed))
        points.append(SweepPoint(name, "ooo/2+x", mode="specialized",
                                 scale=scale, seed=seed))
    return points


def fig6_points(kernels=None, scale="small", seed=0):
    names = kernels or [k.name for k in TABLE2_KERNELS]
    return [SweepPoint(n, "io+x", mode="specialized", scale=scale,
                       seed=seed) for n in names]


def fig7_points(kernels=None, scale="small", seed=0):
    names = kernels or [k.name for k in TABLE2_KERNELS]
    points = []
    for name in names:
        points.append(baseline_point(name, "ooo/4+x", scale, seed))
        for mode in ("specialized", "adaptive"):
            points.append(SweepPoint(name, "ooo/4+x", mode=mode,
                                     scale=scale, seed=seed))
    return points


def fig8_points(kernels=None, configs=("io+x", "ooo/2+x", "ooo/4+x"),
                modes=("specialized", "adaptive"), scale="small",
                seed=0):
    names = kernels or [k.name for k in TABLE2_KERNELS]
    points = []
    for cfg in configs:
        for mode in modes:
            for name in names:
                points.append(baseline_point(name, cfg, scale, seed))
                points.append(SweepPoint(name, cfg, mode=mode,
                                         scale=scale, seed=seed))
    return points


def fig9_points(kernels, configs=DESIGN_SPACE_NAMES, scale="small",
                seed=0):
    points = []
    for cfg in configs:
        for name in kernels:
            points.append(baseline_point(name, cfg, scale, seed))
            points.append(SweepPoint(name, cfg, mode="specialized",
                                     scale=scale, seed=seed))
    return points


def fig10_points(kernels, scale="small", seed=0):
    points = []
    for name in kernels:
        points.append(SweepPoint(name, "io", mode="traditional",
                                 binary="gp", scale=scale, seed=seed))
        points.append(SweepPoint(name, "io+x", mode="specialized",
                                 xi_enabled=False, scale=scale,
                                 seed=seed))
    return points
