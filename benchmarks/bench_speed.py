"""Simulator speed bench: wall-time per dependence pattern, fast path
(``--backend auto``) vs slow path (``--backend interp``), and
cached-vs-cold artifact regeneration.

Four sections, emitted as a stable-schema JSON report
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

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py            # write baseline
    PYTHONPATH=src python benchmarks/bench_speed.py --check    # CI regression gate

``--check`` re-measures and fails (exit 1) if any cold wall-time
regressed more than 25% against the committed ``BENCH_speed.json``,
if any specialized point's fast path falls below fast/slow parity,
if the sweep server's warm pass falls below 95%
cache-served, invokes the simulator at all, or loses more than 25%
of its baseline serving rate.

``--sections patterns service ...`` re-measures only the named
sections and merges them into the existing report, so a
single-section change does not force the expensive full sweep.

Beside each measured section the report records the host-speed
reference of the repository benchmark (``benchmarks/e2e/hostref.py``)
under ``hostref``: the median of the reference loop's seconds, sampled
before and after the section.  Where both the report and the baseline
carry a section's reference, ``--check`` compares that section in
nominal seconds (``seconds * NOMINAL_S / reference``), so a slower
host does not read as slower code; otherwise it compares raw seconds.
It says which one it used.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time

from repro.eval import build_table2, diskcache
from repro.eval import runner
from repro.eval.runner import clear_cache, run

#: schema version of BENCH_speed.json; bump on layout changes
SCHEMA = 9

#: every measurable report section, in emission order
SECTIONS = ("patterns", "long_kernels", "table2", "service")

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

#: host-reference measurements taken before a section, and as many
#: after: one measurement spreads about 2x on a shared host, and the
#: median of ten costs about 0.1 s
HOSTREF_SAMPLES = 5


def _load_hostref():
    """The repository benchmark's host-speed reference, loaded from
    its file: ``benchmarks/e2e`` is a directory of scripts, not a
    package, and stays the benchmark's own."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "e2e", "hostref.py")
    spec = importlib.util.spec_from_file_location("hostref", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostref = _load_hostref()


@contextlib.contextmanager
def _referenced(report, section):
    """Record the host-speed reference around one measured section:
    the median of :data:`HOSTREF_SAMPLES` measurements before it and
    as many after it."""
    refs = [hostref.measure() for _ in range(HOSTREF_SAMPLES)]
    yield
    refs += [hostref.measure() for _ in range(HOSTREF_SAMPLES)]
    report["hostref"][section] = round(statistics.median(refs), 5)


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
            # by the disk store, not this process's dict.
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
              "hostref": {}}
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
            if pattern_points:
                with _referenced(report, "patterns"):
                    for pattern, (kernel, config, mode,
                                  kscale) in pattern_points.items():
                        fast = _cold(kernel, config, mode, kscale, "auto")
                        slow = _cold(kernel, config, mode, kscale,
                                     "interp")
                        warm = _warm(kernel, config, mode, kscale)
                        report["patterns"][pattern] = {
                            "kernel": kernel, "config": config,
                            "mode": mode, "scale": kscale,
                            "cold_fast_seconds": round(fast, 4),
                            "cold_slow_seconds": round(slow, 4),
                            "warm_seconds": round(warm, 4),
                            "speedup": round(slow / fast, 2)}

            if long_points:
                with _referenced(report, "long_kernels"):
                    for kernel, (config, mode,
                                 kscale) in long_points.items():
                        fast = _cold(kernel, config, mode, kscale, "auto")
                        slow = _cold(kernel, config, mode, kscale,
                                     "interp")
                        report["long_kernels"][kernel] = {
                            "config": config, "mode": mode,
                            "scale": kscale,
                            "cold_fast_seconds": round(fast, 4),
                            "cold_slow_seconds": round(slow, 4),
                            "speedup": round(slow / fast, 2)}

            measured_table2 = False
            if not smoke and want("table2"):
                with _referenced(report, "table2"):
                    # Table II: cold (fresh cache dir) vs warm
                    # (disk-served)
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
                with _referenced(report, "service"):
                    report["service"] = _service_section()
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


def _scales(report, baseline, section):
    """``(now, then, basis)``: the factors that turn the report's and
    the baseline's seconds in *section* into nominal seconds, when
    both carry the section's host reference, with basis
    ``"nominal"``; otherwise ``1.0, 1.0, "raw"``."""
    now = report.get("hostref", {}).get(section)
    then = baseline.get("hostref", {}).get(section)
    if now and then:
        return hostref.NOMINAL_S / now, hostref.NOMINAL_S / then, \
            "nominal"
    return 1.0, 1.0, "raw"


def _check(report, baseline):
    """Compare *report* against *baseline*; returns a list of
    regression strings (empty = pass).  Only keys present in both are
    compared, so adding or renaming points never fails the gate.
    Times and rates are compared in nominal seconds where both sides
    carry the section's host reference (:func:`_scales`), raw
    otherwise, and each string names the basis."""
    problems = []

    def cmp(section, label, now, then):
        k_now, k_then, basis = _scales(report, baseline, section)
        if then and now * k_now > then * k_then * (1 + TOLERANCE):
            problems.append(
                "%s: cold %.3fs vs baseline %.3fs (+%d%%, %s seconds)"
                % (label, now * k_now, then * k_then,
                   round(100 * (now * k_now / (then * k_then) - 1)),
                   basis))

    for section in ("patterns", "long_kernels"):
        base = baseline.get(section, {})
        for key, entry in report.get(section, {}).items():
            b = base.get(key)
            if b is not None:
                cmp(section, "%s/%s" % (section, key),
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
        cmp("table2", "table2", now,
            baseline.get("table2", {}).get("cold_seconds"))
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
        # a rate is points per second: a nominal rate divides by the
        # factor nominal seconds multiply by
        k_now, k_then, basis = _scales(report, baseline, "service")
        rate = svc["warm_points_per_sec"] / k_now
        then = (b.get("warm_points_per_sec") or 0) / k_then
        if then and b.get("points") == svc.get("points") \
                and rate < then * SERVICE_RATE_FLOOR:
            problems.append(
                "service: warm serving rate %.0f points/s vs baseline "
                "%.0f (-%d%%, %s seconds)"
                % (rate, then, round(100 * (1 - rate / then)), basis))
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
                         "patterns or table2 section"
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
        for section in SECTIONS:
            if report.get(section) and baseline.get(section):
                print("%s: compared in %s seconds"
                      % (section, _scales(report, baseline, section)[2]))
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
        merged.setdefault("hostref", {})
        for name in args.sections:
            merged[name] = report[name]
            merged["hostref"][name] = report["hostref"][name]
        report = merged
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
