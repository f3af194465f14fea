"""Experiment runner: compile -> simulate -> verify -> collect stats.

All table/figure generators go through :func:`run`, which memoizes
results per process (one Table II sweep feeds Figs 5-8 without
re-simulating) and persists them to the content-addressed disk cache
(:mod:`repro.eval.diskcache`), so a repeated sweep -- in this process
or the next one -- skips simulation entirely."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..sim.backends import BACKEND_CHOICES, resolve_backend
from ..energy import MCPAT_45NM, VLSI_40NM, system_energy
from ..energy.events import EnergyEvents
from ..kernels import get_kernel
from ..lang import compile_source
from ..resilience.watchdog import DeadlineExceeded
from ..sim import LivelockError, Memory
from ..uarch import SystemSimulator
from ..uarch.lpsu import LPSUStats
from ..uarch.params import SystemConfig
from . import diskcache
from .configs import BASELINE_OF, config

#: binaries: the XLOOPS binary, the same source compiled for the GP
#: ISA, or the paper's separate serial implementation where one exists
BINARIES = ("xloops", "gp", "serial")


@dataclass
class KernelRun:
    """Everything recorded from one kernel x config x mode simulation."""

    kernel: str
    config: str
    mode: str
    binary: str
    cycles: int
    gpp_instrs: int
    lpsu_instrs: int
    energy_nj: float
    vlsi_energy_nj: float
    events: "EnergyEvents"
    lpsu_stats: LPSUStats
    specialized_invocations: int
    adaptive_decisions: Dict[int, str]
    cache_miss_rate: float
    static_xloops: Tuple[str, ...]

    @property
    def total_instrs(self):
        return self.gpp_instrs + self.lpsu_instrs


@lru_cache(maxsize=None)
def _compiled(kernel_name, binary, xi_enabled, schedule_cirs=False):
    spec = get_kernel(kernel_name)
    if binary == "xloops":
        return compile_source(spec.source, xloops=True,
                              xi_enabled=xi_enabled,
                              schedule_cirs=schedule_cirs)
    if binary == "gp":
        return compile_source(spec.source, xloops=False)
    if binary == "serial":
        source = spec.serial_source or spec.source
        return compile_source(source, xloops=False)
    raise ValueError("unknown binary kind %r" % binary)


_RESULTS: Dict[tuple, KernelRun] = {}


@dataclass
class Incident:
    """A degradation the runtime absorbed instead of failing.

    Recorded (never silently swallowed) whenever :func:`run` falls
    back from the fast path to the interpreted slow path, or the sweep
    executor degrades from parallel to serial execution."""

    kind: str       # "fast-path-fallback", "parallel-to-serial", ...
    context: str    # the point/label the incident happened on
    detail: str     # the triggering error


#: process-wide incident log (appended by :func:`run`, drained by the
#: sweep executor into its summary)
_INCIDENTS: List[Incident] = []


def incidents():
    """The incidents recorded in this process so far."""
    return list(_INCIDENTS)


def drain_incidents():
    """Return and clear the incident log (sweep summaries take
    ownership of what happened during their run)."""
    out = list(_INCIDENTS)
    del _INCIDENTS[:]
    return out

#: process-wide default backend name for :func:`run`.  ``None`` means
#: "not decided yet": the first resolution consults ``$REPRO_BACKEND``
#: so sweep worker processes inherit the CLI's ``--backend`` choice.
_DEFAULT_BACKEND: Optional[str] = None


def default_backend():
    """The backend name :func:`run` uses when none is passed."""
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        name = os.environ.get("REPRO_BACKEND") or "auto"
        if name not in BACKEND_CHOICES:
            raise ValueError("$REPRO_BACKEND=%r: choose from %s"
                             % (name, "/".join(BACKEND_CHOICES)))
        _DEFAULT_BACKEND = name
    return _DEFAULT_BACKEND


def set_default_backend(name):
    """Override the process-wide backend default (CLI ``--backend``).
    Mirrors into ``$REPRO_BACKEND`` so worker processes agree."""
    global _DEFAULT_BACKEND
    if name not in BACKEND_CHOICES:
        raise ValueError("unknown backend %r (choose from %s)"
                         % (name, "/".join(BACKEND_CHOICES)))
    _DEFAULT_BACKEND = name
    os.environ["REPRO_BACKEND"] = name

#: count of actual :class:`SystemSimulator` invocations in this
#: process -- cache hits (memo or disk) don't bump it, so callers can
#: tell a served point from a simulated one
simulations = 0


def _resolve_config(config_name):
    """Accept a named platform or an ad-hoc :class:`SystemConfig`
    (the ablation benches sweep configurations that have no name)."""
    if isinstance(config_name, SystemConfig):
        return config_name
    return config(config_name)


def memo_key(kernel_name, config_name, mode="traditional",
             binary="xloops", xi_enabled=True, scale="small", seed=0,
             schedule_cirs=False):
    """The in-process memo key of one point: the arguments of
    :func:`run` that its result depends on.  The disk-cache key is
    derived from it (:func:`_fingerprint`), so the two cannot drift.

    Neither key names the backend rung.  Every rung computes the same
    record, which the blocking ``repro verify --ladder`` gate enforces,
    so one record serves every ``--backend`` request."""
    return (kernel_name, config_name, mode, binary, xi_enabled, scale,
            seed, schedule_cirs)


def _fingerprint(key):
    """Content hash of everything the result of the point with memo
    *key* depends on: the kernel source (plus the serial source for a
    ``serial`` binary), the platform's full configuration, the rest
    of the point, and the package version."""
    kernel_name, config_name, mode, binary = key[:4]
    spec = get_kernel(kernel_name)
    sources = (spec.source,
               spec.serial_source if binary == "serial" else None)
    return diskcache.cache_key(
        __version__, sources, repr(_resolve_config(config_name)), mode,
        binary, *key[4:])


def run(kernel_name, config_name, mode="traditional", binary="xloops",
        xi_enabled=True, scale="small", seed=0, check=True,
        schedule_cirs=False, use_disk_cache=True, verify=False,
        max_cycles=None, backend=None):
    """Simulate one (kernel, platform, mode) point.

    Results are memoized in-process and persisted to the disk cache;
    either hit returns without touching the simulator.  *config_name*
    is a configuration name or a :class:`SystemConfig` instance.

    *backend* selects the rung of the simulation ladder
    (:mod:`repro.sim.backends`) that computes a missing result:
    ``interp``/``fused``/``auto``; ``None`` defers
    to :func:`default_backend`.  The rungs are bit-identical, so a
    cached result is served whichever rung is requested
    (:func:`memo_key`).

    *check* runs the workload's architectural result check after the
    simulation.  *verify* additionally runs every specialized xloop
    under the :mod:`repro.verify` runtime invariant monitor; because a
    verified run must actually simulate (and an
    :class:`~repro.verify.InvariantViolation` must never be masked by
    an earlier unverified result), ``verify=True`` bypasses both the
    in-process memo and the disk cache, for reads *and* writes --
    verified runs are never cache-served and never pollute the cache.
    """
    global simulations
    resolved = resolve_backend(backend or default_backend())
    key = memo_key(kernel_name, config_name, mode, binary, xi_enabled,
                   scale, seed, schedule_cirs)
    if not verify:
        hit = _RESULTS.get(key)
        if hit is not None:
            return hit

    spec = get_kernel(kernel_name)
    sysconfig = _resolve_config(config_name)
    use_disk = use_disk_cache and not verify and diskcache.enabled()
    ckey = None
    if use_disk:
        ckey = _fingerprint(key)
        cached = diskcache.load(ckey)
        if cached is not None:
            _RESULTS[key] = cached
            return cached

    compiled = _compiled(kernel_name, binary, xi_enabled, schedule_cirs)

    def attempt(backend_now):
        # a fresh Memory/workload per attempt: a failed attempt may
        # have left memory half-written
        global simulations
        workload = spec.workload(scale, seed)
        mem = Memory()
        args = workload.apply(mem)
        sim = SystemSimulator(compiled.program, sysconfig, mem=mem,
                              verify=verify, backend=backend_now,
                              max_cycles=max_cycles)
        simulations += 1
        result = sim.run(entry=spec.entry, args=args, mode=mode)
        if check:
            workload.check(mem)
        return result

    try:
        result = attempt(resolved.name)
    except (KeyboardInterrupt, SystemExit):
        raise
    except (LivelockError, DeadlineExceeded):
        raise    # watchdog verdicts are never retried away
    except Exception as exc:
        from ..verify import InvariantViolation
        if isinstance(exc, InvariantViolation) or resolved.name == "interp":
            raise    # a violation must surface; interp has no ladder
        # graceful degradation: retry once on the interpreted
        # reference backend, and record the incident rather than
        # hiding it
        _INCIDENTS.append(Incident(
            kind="fast-path-fallback",
            context="%s/%s/%s/%s/%s" % (kernel_name, sysconfig.name,
                                        mode, binary, scale),
            detail="%s/%s: %s" % (resolved.name, type(exc).__name__,
                                  exc)))
        result = attempt("interp")

    out = KernelRun(
        kernel=kernel_name, config=sysconfig.name, mode=mode,
        binary=binary,
        cycles=result.cycles, gpp_instrs=result.gpp_instrs,
        lpsu_instrs=result.lpsu_instrs,
        energy_nj=system_energy(result, sysconfig, MCPAT_45NM),
        vlsi_energy_nj=system_energy(result, sysconfig, VLSI_40NM),
        events=result.events,
        lpsu_stats=result.lpsu_stats,
        specialized_invocations=result.specialized_invocations,
        adaptive_decisions=result.adaptive_decisions,
        cache_miss_rate=(result.cache_misses / result.cache_accesses
                         if result.cache_accesses else 0.0),
        static_xloops=compiled.loop_kinds())
    if not verify:
        _RESULTS[key] = out
    if use_disk:
        diskcache.store(ckey, out)
    return out


def cached_result(kernel_name, config_name, mode="traditional",
                  binary="xloops", xi_enabled=True, scale="small",
                  seed=0, schedule_cirs=False):
    """The memo- or disk-cached result for this point, or None --
    never simulates.  A disk hit is installed in the in-process memo
    (and, inside :mod:`repro.eval.diskcache`, the decoded-record hot
    tier), so repeated probes are dictionary lookups.  This is the
    sweep server's cache probe: it answers "can this point be served
    right now?" without ever paying for a simulation."""
    key = memo_key(kernel_name, config_name, mode, binary, xi_enabled,
                   scale, seed, schedule_cirs)
    hit = _RESULTS.get(key)
    if hit is not None:
        return hit
    if not diskcache.enabled():
        return None
    cached = diskcache.load(_fingerprint(key))
    if cached is not None:
        _RESULTS[key] = cached
    return cached


def seed_result(key, result):
    """Prefill the in-process memo (the sweep executor installs the
    results its workers computed, so subsequent table/figure assembly
    hits the memo)."""
    _RESULTS[key] = result


def store_result(kernel_name, config_name, result, mode="traditional",
                 binary="xloops", xi_enabled=True, scale="small",
                 seed=0, schedule_cirs=False):
    """Install *result* for this point in both the in-process memo and
    the disk cache -- the write-side twin of :func:`cached_result`.

    The sweep server calls this when a remote worker ships a finished
    record back: the worker's own process already stored it if it
    shares the cache directory, but the server must not *depend*
    on that (a worker may run cache-disabled or on another filesystem),
    so completion makes the result durable server-side before it is
    credited."""
    key = memo_key(kernel_name, config_name, mode, binary, xi_enabled,
                   scale, seed, schedule_cirs)
    _RESULTS[key] = result
    if diskcache.enabled():
        diskcache.store(_fingerprint(key), result)


def baseline_run(kernel_name, config_name, scale="small", seed=0):
    """The paper's denominator: the serial/GP binary executed
    traditionally on the platform's baseline GPP."""
    spec = get_kernel(kernel_name)
    binary = "serial" if spec.serial_source else "gp"
    return run(kernel_name, BASELINE_OF[config_name],
               mode="traditional", binary=binary, scale=scale, seed=seed)


def speedup(kernel_name, config_name, mode, scale="small", seed=0,
            **run_kw):
    """Speedup of (config, mode) over the baseline GPP (Table II
    normalization)."""
    base = baseline_run(kernel_name, config_name, scale, seed)
    this = run(kernel_name, config_name, mode=mode, scale=scale,
               seed=seed, **run_kw)
    return base.cycles / this.cycles


def energy_efficiency(kernel_name, config_name, mode, scale="small",
                      seed=0, table="mcpat", **run_kw):
    """Energy efficiency (baseline energy / this energy, Fig 8)."""
    base = baseline_run(kernel_name, config_name, scale, seed)
    this = run(kernel_name, config_name, mode=mode, scale=scale,
               seed=seed, **run_kw)
    if table == "vlsi":
        return base.vlsi_energy_nj / this.vlsi_energy_nj
    return base.energy_nj / this.energy_nj


def clear_cache(keep_disk=False):
    """Forget all memoized results and compiled binaries.  Also wipes
    the on-disk result cache unless *keep_disk* is true."""
    _RESULTS.clear()
    _compiled.cache_clear()
    if not keep_disk:
        diskcache.clear()
