"""Simulator speed bench: wall-time per dependence pattern, fast path
(``--backend auto``) vs slow path (``--backend interp``), and
cached-vs-cold artifact regeneration.

Five sections, emitted as a stable-schema JSON report
(``BENCH_speed.json`` at the repository root):

``patterns``
    One representative point per inter-iteration dependence pattern
    (uc / or / om / ua / db), timed fully cold (fresh memo, compile
    included, no disk cache) with the fast path on and off, plus a
    warm pass served from the persistent result cache.  Measured at
    large scale so steady-state simulation, not the fixed compile +
    fusion-codegen cost (~10ms), dominates the wall time.

``long_kernels``
    The long-running kernels the fast path is asked to carry: cold
    fast-vs-slow wall time at large scale, both traditional (io) and
    specialized (io+x) points.  The acceptance bar for the fast path
    is >=3x on at least two of the traditional points and fast/slow
    parity or better on every specialized one.

``table2``
    A full Table II regeneration cold vs warm.  The warm pass must be
    served entirely from the persistent result cache -- it is asserted
    to complete without invoking ``SystemSimulator``.

``service``
    Serving throughput of the sweep server: a live server on a unix
    socket, a tiny two-kernel Table II sweep submitted cold and then
    resubmitted warm over the same connection.  The warm pass is the
    product axis -- every point must come back cache-served
    (``warm_served_fraction``) without a single simulator invocation
    (``warm_simulator_invocations``), and ``warm_points_per_sec``
    tracks the round-trip serving rate the protocol + cache stack
    sustains.

``distributed``
    The same two-kernel sweep pushed through the distributed worker
    pool: a server with no simulation slots (``--jobs 0``), so every
    cache miss is leased to external workers, measured cold
    with one worker and again with four (fresh cache each), plus a
    warm resubmission against the running 4-worker deployment.  Two
    contracts: adding workers must actually buy wall time
    (``scaling_4_over_1`` stays above a conservative floor -- lease
    RPCs, pickling and forked children all tax the distributed path),
    and the warm pass must behave exactly like the local tier --
    entirely cache-served at the front door, zero points enqueued,
    zero simulator invocations.  The scaling ratio is measured only
    on hosts with at least one CPU per worker (``host_cpus`` is
    recorded): simulations are CPU-bound, so with fewer CPUs the four
    workers merely time-slice, and ``scaling_4_over_1`` is stored as
    null with the reason in ``scaling_unmeasured``.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py            # write baseline
    PYTHONPATH=src python benchmarks/bench_speed.py --check    # CI regression gate

``--check`` re-measures and fails (exit 1) if any cold wall-time
regressed more than 25% against the committed ``BENCH_speed.json``,
if any specialized point's fast path falls below fast/slow parity,
if the sweep server's warm pass falls below 95%
cache-served, invokes the simulator at all, or loses more than 25%
of its baseline serving rate, or if the distributed pool stops
scaling (4 workers below the floor over 1 worker, multi-core hosts
only) or lets a warm point reach the work queue or the simulator.

``--sections patterns service ...`` re-measures only the named
sections and merges them into the existing report, so a
single-section change does not force the expensive full sweep.
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro.eval import build_table2, diskcache
from repro.eval import runner
from repro.eval.runner import clear_cache, run

#: schema version of BENCH_speed.json; bump on layout changes
SCHEMA = 7

#: every measurable report section, in emission order
SECTIONS = ("patterns", "long_kernels", "table2", "service",
            "distributed")

#: committed baseline location (repository root)
REPORT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_speed.json")

#: one kernel per inter-iteration dependence pattern (paper Table I)
PATTERN_POINTS = {
    "uc": ("sgemm-uc", "io+x", "specialized", "large"),
    "or": ("adpcm-or", "io+x", "specialized", "large"),
    "om": ("dynprog-om", "io+x", "specialized", "large"),
    "ua": ("btree-ua", "io+x", "specialized", "large"),
    "db": ("qsort-uc-db", "io+x", "specialized", "large"),
}

#: long-running points the fast path must carry (>=3x on >=2 of the
#: traditional ones); traditional io runs are dominated by the
#: fused-superblock GPP model, the specialized io+x points by the
#: fused-lane LPSU engine
LONG_POINTS = {
    "sgemm-uc": ("io", "traditional", "large"),
    "rgb2cmyk-uc": ("io", "traditional", "large"),
    "hsort-ua": ("io", "traditional", "large"),
    "viterbi-uc": ("io", "traditional", "large"),
    "adpcm-or": ("io+x", "specialized", "large"),
    "btree-ua": ("io+x", "specialized", "large"),
}

#: cold regression tolerance for --check (fraction over baseline)
TOLERANCE = 0.25

#: the kernels the nightly CI smoke job re-measures (--smoke): two
#: traditional GPP points plus one specialized (io+x) LPSU point
SMOKE_KERNELS = ("rgb2cmyk-uc", "viterbi-uc", "adpcm-or")

#: the two-kernel Table II slice the service section round-trips
#: through a live server (tiny scale: the axis is serving overhead,
#: not simulation time)
SERVICE_KERNELS = ("vvadd-uc", "saxpy-uc")

#: warm-pass floor the service section must clear under --check
SERVICE_SERVED_FLOOR = 0.95

#: serving-rate floor as a fraction of the baseline rate.  The warm
#: pass takes single-digit milliseconds, so scheduler noise dwarfs
#: the usual 25% cold-time tolerance; halving the rate is the signal
#: that the serving stack itself regressed.
SERVICE_RATE_FLOOR = 0.5

#: cold-scaling floor the 4-worker pool must clear over the 1-worker
#: pool on the distributed sweep.  Deliberately far below the ideal
#: 4x: the tiny-scale points are dominated by per-point overhead
#: (lease RPC + pickle + forked child), and the floor exists to catch
#: "adding workers no longer helps at all", not to benchmark Amdahl.
DISTRIBUTED_SCALING_FLOOR = 1.3


def _cold(kernel, config, mode, scale, backend, repeats=3):
    """Best-of-*repeats* wall time of a fully cold point (compile +
    simulate, no caches) on *backend*."""
    best = None
    for _ in range(repeats):
        clear_cache(keep_disk=True)
        t0 = time.perf_counter()
        run(kernel, config, mode=mode, scale=scale,
            use_disk_cache=False, backend=backend)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def _service_section(jobs=2):
    """Round-trip a tiny two-kernel Table II sweep through a live
    sweep server: cold submission (simulations fill the shared
    cache), then a warm resubmission of the identical points after
    the in-process memo is dropped.  The warm pass must be entirely
    cache-served with zero simulator invocations -- that is the
    contract ``--check`` gates."""
    from repro.eval import parallel
    from repro.serve import ServeClient, ServerThread

    points = parallel.table2_points(list(SERVICE_KERNELS), "tiny", 0)
    with ServerThread(jobs=jobs) as server:
        with ServeClient(server.address) as client:
            t0 = time.perf_counter()
            cold_summary = client.submit(points)
            cold = time.perf_counter() - t0
            assert cold_summary.ok, cold_summary.render()
            # drop the in-process memo: the warm pass must be served
            # by the hot tier / disk store, not this process's dict.
            # Best-of-3: a few milliseconds of serving is pure
            # scheduler-noise territory otherwise.
            warm = warm_summary = None
            for _ in range(3):
                clear_cache(keep_disk=True)
                t0 = time.perf_counter()
                summary = client.submit(points)
                dt = time.perf_counter() - t0
                assert summary.ok, summary.render()
                if warm is None or dt < warm:
                    warm, warm_summary = dt, summary
    n = warm_summary.points
    return {
        "kernels": list(SERVICE_KERNELS), "points": n, "jobs": jobs,
        "cold_seconds": round(cold, 4),
        "cold_simulated": cold_summary.misses,
        "warm_seconds": round(warm, 4),
        "warm_points_per_sec": round(n / warm, 1) if warm else None,
        "warm_served_fraction": round(warm_summary.hits / n, 4)
        if n else 0.0,
        "warm_simulator_invocations": warm_summary.misses,
    }


def _distributed_section():
    """The two-kernel sweep through the distributed worker pool: cold
    with 1 worker, cold again with 4 (fresh cache each), then a warm
    resubmission against the running 4-worker deployment.  Workers are
    :class:`WorkerThread` harnesses over a real unix socket -- the
    same lease/heartbeat/complete protocol ``repro worker`` speaks,
    minus only the second OS process."""
    from repro.eval import parallel
    from repro.serve import ServeClient, ServerThread, WorkerThread

    points = parallel.table2_points(list(SERVICE_KERNELS), "tiny", 0)
    section = {"kernels": list(SERVICE_KERNELS), "points": len(points),
               "host_cpus": os.cpu_count() or 1}

    def one_pool(n_workers, warm_too=False):
        clear_cache(keep_disk=False)        # fully cold: empty store
        with ServerThread(jobs=0, lease_ttl=10.0) as server:
            workers = [WorkerThread(server.address, jobs=1,
                                    name="bench-%d" % i).start()
                       for i in range(n_workers)]
            try:
                with ServeClient(server.address) as client:
                    t0 = time.perf_counter()
                    summary = client.submit(points)
                    cold = time.perf_counter() - t0
                    assert summary.ok, summary.render()
                    entry = {"workers": n_workers,
                             "cold_seconds": round(cold, 4),
                             "cold_simulated": summary.misses}
                    if not warm_too:
                        return entry
                    # warm: served at the front door, nothing leased
                    warm = warm_summary = None
                    for _ in range(3):
                        clear_cache(keep_disk=True)
                        t0 = time.perf_counter()
                        s = client.submit(points)
                        dt = time.perf_counter() - t0
                        assert s.ok, s.render()
                        if warm is None or dt < warm:
                            warm, warm_summary = dt, s
                    n = warm_summary.points
                    queued = client.stats()["queue"]["counters"]
                    entry.update({
                        "warm_seconds": round(warm, 4),
                        "warm_points_per_sec":
                            round(n / warm, 1) if warm else None,
                        "warm_served_fraction":
                            round(warm_summary.hits / n, 4) if n else 0.0,
                        "warm_simulator_invocations": warm_summary.misses,
                        "warm_enqueued":
                            queued["enqueued"] - entry["cold_simulated"],
                    })
                    return entry
            finally:
                for w in workers:
                    w.stop()

    one = one_pool(1)
    four = one_pool(4, warm_too=True)
    section["workers_1"] = one
    warm_keys = ("warm_seconds", "warm_points_per_sec",
                 "warm_served_fraction", "warm_simulator_invocations",
                 "warm_enqueued")
    section["workers_4"] = {k: v for k, v in four.items()
                            if k not in warm_keys}
    for k in warm_keys:
        section[k] = four[k]
    cpus = section["host_cpus"]
    if cpus < 4:
        # four CPU-bound workers on fewer CPUs only time-slice: the
        # ratio would measure the host, not the pool
        section["scaling_4_over_1"] = None
        section["scaling_unmeasured"] = (
            "host has %d CPU(s), fewer than the 4 workers" % cpus)
    else:
        section["scaling_4_over_1"] = round(
            one["cold_seconds"] / four["cold_seconds"], 2) \
            if four["cold_seconds"] else None
    return section


def _warm(kernel, config, mode, scale):
    """Wall time of the same point served from the disk cache."""
    clear_cache(keep_disk=True)                     # force a real run...
    run(kernel, config, mode=mode, scale=scale)     # ...that stores to disk
    clear_cache(keep_disk=True)                     # drop the memo
    t0 = time.perf_counter()
    run(kernel, config, mode=mode, scale=scale)     # disk hit
    return time.perf_counter() - t0


def speed_report(scale="small", smoke=False, sections=None):
    """Measure every section (or, with *smoke*, just the two nightly
    smoke kernels; or, with *sections*, only the named sections) and
    return the report dict."""
    want = (lambda name: True) if sections is None \
        else (lambda name: name in sections)
    report = {"schema": SCHEMA, "scale": scale, "patterns": {},
              "long_kernels": {}, "table2": {}, "service": {},
              "distributed": {}}
    pattern_points = {} if smoke or not want("patterns") \
        else PATTERN_POINTS
    long_points = {k: v for k, v in LONG_POINTS.items()
                   if want("long_kernels")
                   and (not smoke or k in SMOKE_KERNELS)}

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        saved = diskcache._dir_override
        saved_env = os.environ.get(diskcache.ENV_CACHE_DIR)
        diskcache.configure(cache_dir=tmp)
        try:
            for pattern, (kernel, config, mode,
                          kscale) in pattern_points.items():
                fast = _cold(kernel, config, mode, kscale, "auto")
                slow = _cold(kernel, config, mode, kscale, "interp")
                warm = _warm(kernel, config, mode, kscale)
                report["patterns"][pattern] = {
                    "kernel": kernel, "config": config, "mode": mode,
                    "scale": kscale,
                    "cold_fast_seconds": round(fast, 4),
                    "cold_slow_seconds": round(slow, 4),
                    "warm_seconds": round(warm, 4),
                    "speedup": round(slow / fast, 2)}

            for kernel, (config, mode, kscale) in long_points.items():
                fast = _cold(kernel, config, mode, kscale, "auto")
                slow = _cold(kernel, config, mode, kscale, "interp")
                report["long_kernels"][kernel] = {
                    "config": config, "mode": mode, "scale": kscale,
                    "cold_fast_seconds": round(fast, 4),
                    "cold_slow_seconds": round(slow, 4),
                    "speedup": round(slow / fast, 2)}

            measured_table2 = False
            if not smoke and want("table2"):
                # Table II: cold (fresh cache dir) vs warm (disk-served)
                clear_cache(keep_disk=True)
                t0 = time.perf_counter()
                build_table2(scale=scale)
                cold = time.perf_counter() - t0

                clear_cache(keep_disk=True)
                sims_before = runner.simulations
                t0 = time.perf_counter()
                build_table2(scale=scale)
                warm = time.perf_counter() - t0
                warm_simulations = runner.simulations - sims_before
                # the warm pass must never touch the simulator
                assert warm_simulations == 0, warm_simulations
                measured_table2 = True

            if want("service"):
                clear_cache(keep_disk=False)
                report["service"] = _service_section()

            if not smoke and want("distributed"):
                # excluded from --smoke: two cold sweeps + a worker
                # pool is the expensive end of the serving sections
                report["distributed"] = _distributed_section()
        finally:
            diskcache._dir_override = saved
            if saved_env is None:
                os.environ.pop(diskcache.ENV_CACHE_DIR, None)
            else:
                os.environ[diskcache.ENV_CACHE_DIR] = saved_env
            clear_cache(keep_disk=True)

    if measured_table2:
        report["table2"] = {
            "cold_seconds": round(cold, 3),
            "warm_seconds": round(warm, 3),
            "warm_over_cold": round(warm / cold, 4) if cold else None,
            "warm_simulator_invocations": warm_simulations,
        }
    return report


def _check(report, baseline):
    """Compare *report* against *baseline*; returns a list of
    regression strings (empty = pass).  Only keys present in both are
    compared, so adding or renaming points never fails the gate."""
    problems = []

    def cmp(label, now, then):
        if then and now > then * (1 + TOLERANCE):
            problems.append(
                "%s: cold %.3fs vs baseline %.3fs (+%d%%)"
                % (label, now, then, round(100 * (now / then - 1))))

    for section in ("patterns", "long_kernels"):
        base = baseline.get(section, {})
        for key, entry in report.get(section, {}).items():
            b = base.get(key)
            if b is not None:
                cmp("%s/%s" % (section, key),
                    entry["cold_fast_seconds"],
                    b.get("cold_fast_seconds"))
            # the fast path must stay a win on specialized points, not
            # just avoid getting slower than its own baseline: below
            # fast/slow parity means it is actively hurting
            if entry.get("mode") == "specialized" \
                    and entry["speedup"] < 1.0:
                problems.append(
                    "%s/%s: specialized fast path below fast/slow "
                    "parity (%.2fx)" % (section, key, entry["speedup"]))
    now = report.get("table2", {}).get("cold_seconds")
    if now is not None:
        cmp("table2", now, baseline.get("table2", {}).get("cold_seconds"))
    svc = report.get("service") or {}
    if svc:
        # absolute contract first: a warm resubmission through the
        # server is the product, and it must be served, not simulated
        if svc["warm_served_fraction"] < SERVICE_SERVED_FLOOR:
            problems.append(
                "service: warm pass only %.1f%% cache-served "
                "(floor %.0f%%)" % (100 * svc["warm_served_fraction"],
                                    100 * SERVICE_SERVED_FLOOR))
        if svc["warm_simulator_invocations"]:
            problems.append(
                "service: warm pass invoked the simulator %d time(s)"
                % svc["warm_simulator_invocations"])
        b = baseline.get("service") or {}
        then = b.get("warm_points_per_sec")
        if then and b.get("points") == svc.get("points") \
                and svc["warm_points_per_sec"] < then * SERVICE_RATE_FLOOR:
            problems.append(
                "service: warm serving rate %.0f points/s vs baseline "
                "%.0f (-%d%%)"
                % (svc["warm_points_per_sec"], then,
                   round(100 * (1 - svc["warm_points_per_sec"] / then))))
    dist = report.get("distributed") or {}
    if dist:
        # absolute contracts: workers must buy wall time (gated
        # wherever the ratio was measured, i.e. the host has a CPU per
        # worker), and the warm pass must never reach the queue, let
        # alone the simulator
        if dist.get("scaling_4_over_1") is not None \
                and dist["scaling_4_over_1"] < DISTRIBUTED_SCALING_FLOOR:
            problems.append(
                "distributed: 4-worker pool only %.2fx over 1 worker "
                "(floor %.2fx)" % (dist["scaling_4_over_1"],
                                   DISTRIBUTED_SCALING_FLOOR))
        if dist["warm_served_fraction"] < SERVICE_SERVED_FLOOR:
            problems.append(
                "distributed: warm pass only %.1f%% cache-served "
                "(floor %.0f%%)" % (100 * dist["warm_served_fraction"],
                                    100 * SERVICE_SERVED_FLOOR))
        if dist["warm_simulator_invocations"]:
            problems.append(
                "distributed: warm pass invoked the simulator %d "
                "time(s)" % dist["warm_simulator_invocations"])
        if dist.get("warm_enqueued"):
            problems.append(
                "distributed: warm pass enqueued %d point(s) instead "
                "of serving them from the cache"
                % dist["warm_enqueued"])
        b = baseline.get("distributed") or {}
        then = b.get("warm_points_per_sec")
        if then and b.get("points") == dist.get("points") \
                and dist["warm_points_per_sec"] < then * SERVICE_RATE_FLOOR:
            problems.append(
                "distributed: warm serving rate %.0f points/s vs "
                "baseline %.0f (-%d%%)"
                % (dist["warm_points_per_sec"], then,
                   round(100 * (1 - dist["warm_points_per_sec"] / then))))
    return problems


def test_speed(benchmark):
    from conftest import run_once
    report = run_once(benchmark, speed_report)
    print()
    print("BENCH_SPEED_JSON " + json.dumps(report))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", default="small",
                    choices=("tiny", "small", "large"),
                    help="table2 workload scale (default small; "
                         "pattern and long-kernel points always run "
                         "at their own fixed scale)")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed "
                         "BENCH_speed.json instead of overwriting it; "
                         "exit 1 on a >25%% cold regression")
    ap.add_argument("--smoke", action="store_true",
                    help="nightly CI mode: only the %s long-kernel "
                         "points and the service section, no "
                         "patterns, table2 or distributed section"
                         % (SMOKE_KERNELS,))
    ap.add_argument("--sections", nargs="+", choices=SECTIONS,
                    metavar="SECTION",
                    help="re-measure only these sections (%s) and "
                         "merge them into the existing report instead "
                         "of re-running the full sweep"
                         % ", ".join(SECTIONS))
    ap.add_argument("--output", default=REPORT_PATH, metavar="FILE",
                    help="report destination (default repo root)")
    args = ap.parse_args(argv)

    report = speed_report(scale=args.scale, smoke=args.smoke,
                          sections=args.sections)
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.check:
        try:
            with open(args.output) as f:
                baseline = json.load(f)
        except (OSError, ValueError) as exc:
            print("no usable baseline at %s (%s); nothing to check"
                  % (args.output, exc), file=sys.stderr)
            return 0
        problems = _check(report, baseline)
        for p in problems:
            print("REGRESSION " + p, file=sys.stderr)
        if problems:
            return 1
        print("within %d%% of the committed baseline"
              % round(TOLERANCE * 100))
        return 0

    if args.smoke:
        # a smoke report is partial by design: never let it replace
        # the full committed baseline
        print("smoke report not written (use --check to gate on it)")
        return 0
    if args.sections:
        # merge mode: update only the measured sections, keeping the
        # rest of the committed baseline intact
        try:
            with open(args.output) as f:
                merged = json.load(f)
        except (OSError, ValueError):
            merged = {}
        merged["schema"] = report["schema"]
        merged.setdefault("scale", report["scale"])
        for name in args.sections:
            merged[name] = report[name]
        report = merged
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
