"""End-to-end benchmark of the XLOOPS reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Run it from the repository root; it finds ``src`` next to its own
directory and needs nothing installed.  For each workload (default:
all four) it prints every metric as ``workload metric value unit
(n=samples)``, the record digest and the correctness checks, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--out`` also writes the full results, digest
included, for ``compare.py``.  Exit status: 0 when every check passed,
1 when one failed, 2 when ``src/repro`` is missing.

Every number is taken from outside the program: cold passes run in
fresh processes (``rep.py``), the serve workload drives a live
``repro serve`` subprocess over one client connection, and the traced
rep wraps public entry points (``tracer.py``).  Times are scaled to a
nominal host speed by a reference loop timed beside them
(``hostref.py``).  Load never exceeds ``nproc`` worker processes.
Scratch files live under ``.work/`` next to this file and are removed
on exit.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostref
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: name -> unit; every workload reports all of them with --trace 0
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_kips": "kinstr/s",
    "points_per_s": "points/s", "peak_rss_mb": "MB",
}

#: name -> unit; every workload reports all of them with --trace 1
PER_LAYER = {
    "lang.compile_s": "s", "lang.compiles": "count",
    "sim.codegen_gpp_s": "s", "sim.codegen_lpsu_s": "s",
    "sim.rung_setup_s": "s", "sim.turbo_hit_ratio": "ratio",
    "sim.vector_iterations": "count",
    "uarch.gpp_ooo_s": "s", "uarch.gpp_io_s": "s",
    "uarch.gpp_instrs_ooo": "count", "uarch.gpp_instrs_io": "count",
    "uarch.gpp_ooo_ns_per_instr": "ns", "uarch.gpp_io_ns_per_instr": "ns",
    "uarch.lpsu_s": "s", "uarch.lpsu_invocations": "count",
    "uarch.lpsu_instrs": "count", "uarch.lpsu_ns_per_instr": "ns",
    "uarch.scan_s": "s",
    "energy.price_s": "s", "kernels.workload_s": "s",
    "kernels.check_s": "s",
    "cache.load_s": "s", "cache.store_s": "s", "cache.loads": "count",
    "cache.stores": "count", "cache.hit_ratio": "ratio",
    "eval.runner_s": "s",
    "exec.point_s": "s", "exec.efficiency": "ratio",
    "exec.overhead_s": "s", "exec.retries": "count",
    "exec.p50_ms": "ms", "exec.tail_ms": "ms",
    "trace.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
}

#: servers started for setup_s during the serve schedule (batch
#: workloads start theirs between chunks: rep.SETUP_PROBES_PER_PASS)
SETUP_PROBES = 7
#: timed passes per run even when one pass outlasts --seconds
MIN_PASSES = 2
#: seconds of serve requests between host-speed references
REF_EVERY_S = 0.25
#: bound on one rep or one server's lifetime, seconds
REP_TIMEOUT = 170

#: paper-agreement gates on table2 (ROADMAP)
MIN_DIRECTION = 0.85
MIN_SPEARMAN = 0.5


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_pct(n):
    """The highest percentile with at least ten of *n* samples beyond."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def child_env(cache_dir):
    """The environment of a rep or server: ``src`` importable with its
    bytecode cached beside it, as for a user; a fresh result cache; and
    no ``REPRO_*`` setting of the caller's (the backend stays at auto)
    except the ``REPRO_CHAOS`` fault plan."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_CHAOS"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def stop(proc):
    """Kill *proc* and everything it forked, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass
    proc.wait()


def reap(proc, timeout):
    """Wait up to *timeout* seconds for *proc* to exit (then kill it)
    and reap it; its peak resident set in KB, the children it reaped
    included.  ``wait4`` reports it for this process alone, where
    ``RUSAGE_CHILDREN`` would mix in every earlier child."""
    deadline = time.monotonic() + timeout
    flags = os.WNOHANG
    while True:
        pid, status, usage = os.wait4(proc.pid, flags)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            flags = 0
        time.sleep(0.01)


class Run:
    """One workload's run: its settings, scratch space and checks."""

    def __init__(self, name, seed, seconds, trace, work):
        self.name = name
        self.wl = workloads.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.ids = itertools.count()
        self.checks = {}      # check name -> (ok, detail)
        self.extra = {}       # printed, written to --out; not metrics
        self.attempted = 0
        self.failed = 0

    def check(self, name, ok, detail=""):
        self.checks[name] = (bool(ok), detail)

    def spawn_rep(self, jobs, mode=(), seconds=None):
        """Run ``rep.py`` in a fresh process with a fresh cache and the
        *mode* arguments; its result dict, or None when it died."""
        n = next(self.ids)
        out = os.path.join(self.work, "rep-%d.json" % n)
        cache = os.path.join(self.work, "cache-%d" % n)
        cmd = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", self.name, "--seed", str(self.seed),
               "--seconds", str(self.seconds if seconds is None
                                else seconds),
               "--jobs", str(jobs), "--out", out, *mode]
        cmd += ["--spawned-at", repr(time.time())]
        proc = subprocess.Popen(cmd, env=child_env(cache), cwd=ROOT,
                                stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=REP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            stop(proc)
            shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0 or not os.path.exists(out):
            self.check("rep %d exited" % n, False,
                       "exit status %s" % proc.returncode)
            return None
        with open(out) as fh:
            return json.load(fh)

    def count_rep(self, rep):
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]


# ---------------------------------------------------------------------------
# batch workloads: table2, lpsu-large, sweep-tiny
# ---------------------------------------------------------------------------


def run_batch(run):
    jobs = nproc() if run.wl.parallel else 1
    if run.trace:
        return trace_batch(run, jobs)
    rep = run.spawn_rep(jobs, ["--passes", str(MIN_PASSES)])
    if rep is None:
        return {}
    setups = [rep["setup_s"]] + rep["setups"]
    passes = rep["passes"]
    for p in passes:
        run.count_rep(p)
    check_reps(run, passes, [rep["paper"]] if "paper" in rep else [])
    n = len(passes)
    run.extra["jobs"] = jobs
    run.extra["pass_wall_s"] = [round(p["wall_s"], 3) for p in passes]
    run.extra["pass_raw_wall_s"] = [round(p["raw_wall_s"], 3)
                                    for p in passes]
    run.extra["pass_ref_ms"] = [round(p["ref_ms"], 3) for p in passes]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), n),
        "setup_s": (statistics.median(setups), len(setups)),
        "sim_kips": (statistics.median(p["instrs"] / p["wall_s"] / 1e3
                                       for p in passes), n),
        "points_per_s": (statistics.median(p["points"] / p["wall_s"]
                                           for p in passes), n),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024.0, n),
    }


def check_reps(run, reps, papers):
    digests = {r["digest"] for r in reps}
    run.extra["digest"] = reps[0]["digest"]
    run.check("digest equal across reps", len(digests) == 1,
              "%d distinct" % len(digests))
    run.check("no point failed", run.failed == 0,
              "%d quarantined" % run.failed)
    if run.name == "table2":
        direction = min(p["direction"] for p in papers)
        spearman = min(p["spearman"] for p in papers)
        run.extra["paper_direction"] = direction
        run.extra["paper_spearman"] = spearman
        run.check("paper direction >= %.2f" % MIN_DIRECTION,
                  direction >= MIN_DIRECTION, "%.3f" % direction)
        run.check("paper spearman >= %.2f" % MIN_SPEARMAN,
                  spearman >= MIN_SPEARMAN, "%.3f" % spearman)


def trace_batch(run, jobs):
    """One timed pass (executor metrics), then a whole serial rep
    untraced and one traced, each in a fresh process (layer self
    times, and the tracing overhead against the untraced rep)."""
    timed = run.spawn_rep(jobs, ["--passes", "1"], seconds=0)
    untraced = run.spawn_rep(1)
    traced = run.spawn_rep(
        1, ["--trace", os.path.join(run.work, "spans.json")])
    if None in (timed, untraced, traced):
        return {}
    (timed_pass,) = timed["passes"]
    reps = [timed_pass, untraced, traced]
    for rep in reps:
        run.count_rep(rep)
    check_reps(run, reps, [r["paper"] for r in (timed, untraced, traced)
                           if "paper" in r])
    metrics = layer_metrics(traced, [untraced])
    metrics.update(exec_metrics(
        point_s=timed_pass["point_s"], jobs=jobs,
        wall_s=timed_pass["sweep_s"], retries=timed_pass["retries"],
        hit_ratio=timed_pass["hits"] / max(1, timed_pass["points"]),
        latencies_ms=timed_pass["latencies_ms"]))
    return metrics


def exec_metrics(point_s, jobs, wall_s, retries, hit_ratio,
                 latencies_ms):
    """The executor's metrics, from one rep as timed (or the serve
    schedule): busy time, efficiency, overhead, retries, cache hits,
    and point (request) latency at the median and the tail."""
    pct = tail_pct(len(latencies_ms))
    return {"exec.point_s": (point_s, 1),
            "exec.efficiency": (point_s / (jobs * wall_s), 1),
            "exec.overhead_s": (wall_s - point_s / jobs, 1),
            "exec.retries": (retries, 1),
            "exec.p50_ms": (percentile(latencies_ms, 50.0),
                            len(latencies_ms)),
            "exec.tail_ms": (percentile(latencies_ms, pct),
                             len(latencies_ms)),
            "cache.hit_ratio": (hit_ratio, 1)}


def layer_metrics(traced, untraced):
    """Per-layer metrics from a traced serial rep and the same rep run
    untraced."""
    t = traced["trace"]
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]

    def s(name):
        return self_s.get(name, 0.0)

    def per_instr(span, count):
        n = counts.get(count, 0)
        return 1e9 * s(span) / n if n else 0.0

    turbo = counts["turbo_hits"] + counts["turbo_misses"]
    values = {
        "lang.compile_s": s("lang.compile"),
        "lang.compiles": calls.get("lang.compile", 0),
        "sim.codegen_gpp_s": s("sim.codegen_gpp"),
        "sim.codegen_lpsu_s": s("sim.codegen_lpsu"),
        "sim.rung_setup_s": s("sim.rung_setup"),
        "sim.turbo_hit_ratio": counts["turbo_hits"] / turbo if turbo
        else 0.0,
        "sim.vector_iterations": counts["vector_iterations"],
        "uarch.gpp_ooo_s": s("uarch.gpp_ooo"),
        "uarch.gpp_io_s": s("uarch.gpp_io"),
        "uarch.gpp_instrs_ooo": counts.get("uarch.gpp_instrs_ooo", 0),
        "uarch.gpp_instrs_io": counts.get("uarch.gpp_instrs_io", 0),
        "uarch.gpp_ooo_ns_per_instr": per_instr("uarch.gpp_ooo",
                                                "uarch.gpp_instrs_ooo"),
        "uarch.gpp_io_ns_per_instr": per_instr("uarch.gpp_io",
                                               "uarch.gpp_instrs_io"),
        "uarch.lpsu_s": s("uarch.lpsu"),
        "uarch.lpsu_invocations": calls.get("uarch.lpsu", 0),
        "uarch.lpsu_instrs": counts.get("uarch.lpsu_instrs", 0),
        "uarch.lpsu_ns_per_instr": per_instr("uarch.lpsu",
                                             "uarch.lpsu_instrs"),
        "uarch.scan_s": s("uarch.scan"),
        "energy.price_s": s("energy.price"),
        "kernels.workload_s": s("kernels.workload"),
        "kernels.check_s": s("kernels.check"),
        "cache.load_s": s("cache.load"),
        "cache.store_s": s("cache.store"),
        "cache.loads": calls.get("cache.load", 0),
        "cache.stores": calls.get("cache.store", 0),
        "eval.runner_s": s("eval.runner"),
        "trace.unattributed_frac": t["unattributed_frac"],
        "trace.overhead_frac": traced["work_s"] / statistics.mean(
            r["work_s"] for r in untraced) - 1,
    }
    return {k: (v, 1) for k, v in values.items()}


# ---------------------------------------------------------------------------
# serve workload
# ---------------------------------------------------------------------------


class Server:
    """A live ``repro serve`` subprocess on a unix socket in the run's
    scratch dir, and one client connection to it.  ``setup_s`` is the
    time from spawn to the first ``ping`` reply."""

    def __init__(self, run, jobs):
        from repro.serve import ServeClient
        n = next(run.ids)
        # relative to ROOT (the cwd): unix socket paths are short-capped
        self.sock = os.path.relpath(
            os.path.join(run.work, "s%d.sock" % n), ROOT)
        self.cache = os.path.join(run.work, "serve-cache-%d" % n)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.sock, "--jobs", str(jobs), "--cache-dir", self.cache],
            env=child_env(self.cache), cwd=ROOT,
            stdout=subprocess.DEVNULL, start_new_session=True)
        self.client = ServeClient(self.sock, timeout=REP_TIMEOUT)
        try:
            while True:
                try:
                    self.client.ping()
                    break
                except OSError:
                    if self.proc.poll() is not None \
                            or time.perf_counter() - t0 > REP_TIMEOUT:
                        raise
                    time.sleep(0.002)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def close(self):
        """Shut the server down and reap it; ``rss_kb`` is the peak
        resident set of the server and the workers it forked."""
        self.rss_kb = 0
        if self.proc.poll() is None:
            self.client.shutdown()
            self.rss_kb = reap(self.proc, timeout=30)
        self.client.close()
        stop(self.proc)
        shutil.rmtree(self.cache, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


def run_serve(run):
    """Closed loop: one client sends the seeded request schedule, each
    request after the previous reply; then the seed's groups are
    replayed directly to check served records against direct ones."""
    from repro.eval import diskcache
    # the client reads served records from its memo, never a disk cache
    diskcache.configure(enabled=False)
    jobs = nproc()
    groups, requests = workloads.serve_schedule(run.seed, run.seconds)
    group_pts = [workloads.group_points(*g) for g in groups]
    with Server(run, jobs) as server:
        setups = [server.setup_s]
        served = drive(run, server.client, group_pts, requests,
                       0 if run.trace else SETUP_PROBES, setups)
    rss_kb = max(server.rss_kb,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    replay_pts = workloads.points("serve", run.seed, run.seconds)
    served_digest = workloads.record_digest(replay_pts)
    run.extra["digest"] = served_digest
    # traced, an untraced replay and a traced one (as in batch)
    replays = [run.spawn_rep(1)]
    if run.trace:
        replays.append(run.spawn_rep(
            1, ["--trace", os.path.join(run.work, "spans.json")]))
    if None in replays:
        return {}
    run.check("served records equal direct",
              all(r["digest"] == served_digest for r in replays),
              "%d groups of seed %d" % (len(replay_pts) // 4, run.seed))
    run.check("no request failed", run.failed == 0,
              "%d failed" % run.failed)
    if run.trace:
        metrics = layer_metrics(replays[1], replays[:1])
        c = served["stats"]["counters"]
        metrics.update(exec_metrics(
            point_s=served["point_s"], jobs=jobs,
            wall_s=served["raw_wall_s"], retries=c["retried"],
            hit_ratio=c["served_cache"] / max(1, c["points"]),
            latencies_ms=served["latencies_ms"]))
        return metrics
    return {
        "wall_s": (served["wall_s"], 1),
        "setup_s": (statistics.median(setups), len(setups)),
        "sim_kips": (served["instrs"] / served["wall_s"] / 1e3, 1),
        "points_per_s": (served["points"] / served["wall_s"], 1),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }


def drive(run, client, group_pts, requests, probes, setups):
    """Send the schedule; per-request latencies, counts and the
    server's own counters.  A host-speed reference runs between
    requests every ``REF_EVERY_S``; ``wall_s`` is the schedule's time
    scaled to the nominal host speed, ``raw_wall_s`` as measured.
    *probes* servers, spread over the schedule, are started and shut
    down between requests, untimed, for their set-up times, which go
    to *setups*."""
    from repro.serve.protocol import ProtocolError
    first = set()
    latencies, hit_ms, miss_ms, summaries = [], [], [], []
    repeat_sims = 0
    probe_every = len(requests) // probes if probes else 0
    clock = hostref.Clock()
    t0 = time.perf_counter()
    for n, gi in enumerate(requests):
        probe = probe_every and n % probe_every == probe_every // 2
        if probe or time.perf_counter() - t0 >= REF_EVERY_S:
            clock.add(time.perf_counter() - t0)
            if probe:
                with Server(run, nproc()) as server:
                    setups.append(server.setup_s)
            t0 = time.perf_counter()
        pts = group_pts[gi]
        t = time.perf_counter()
        try:
            summary = client.submit(pts)
        except (OSError, ProtocolError):
            run.failed += len(requests) - len(latencies)
            break
        ms = 1e3 * (time.perf_counter() - t)
        latencies.append(ms)
        summaries.append(summary)
        run.failed += bool(summary.failures)
        # a repeat must be served without simulating.  A group's first
        # request is a miss even when the disk cache already holds a
        # content-identical point (ksack-sm-om and ksack-lg-om share
        # their source, and the cache key omits the dataset)
        if gi in first:
            repeat_sims += summary.misses
            hit_ms.append(ms)
        else:
            first.add(gi)
            miss_ms.append(ms)
    clock.add(time.perf_counter() - t0)
    run.attempted += len(requests)
    run.check("repeats never simulate", repeat_sims == 0,
              "%d simulations" % repeat_sims)
    pings = []
    for _ in range(200):
        t = time.perf_counter()
        client.ping()
        pings.append(1e3 * (time.perf_counter() - t))
    stats = client.stats()
    c = stats["counters"]
    ping_ms = statistics.median(pings)
    hit_p50 = percentile(hit_ms, 50.0)
    run.extra.update({
        "serve.requests": len(latencies), "serve.hits": len(hit_ms),
        "serve.misses": len(miss_ms),
        "serve.hit_p50_ms": hit_p50,
        "serve.hit_p%g_ms" % tail_pct(len(hit_ms)):
            percentile(hit_ms, tail_pct(len(hit_ms))),
        "serve.miss_p50_ms": percentile(miss_ms, 50.0),
        "serve.miss_p%g_ms" % tail_pct(len(miss_ms)):
            percentile(miss_ms, tail_pct(len(miss_ms))),
        "serve.ping_ms": ping_ms, "serve.hit_probe_ms": hit_p50 - ping_ms,
        "serve.simulated": c["simulated"], "serve.served": c["served_cache"],
        "serve.inflight_joins": c["served_inflight"], "jobs": nproc(),
        "serve.raw_wall_s": round(clock.raw_s, 3),
        "serve.ref_ms": round(1e3 * statistics.median(clock.refs), 3),
    })
    return {"wall_s": clock.nominal_s, "raw_wall_s": clock.raw_s,
            "latencies_ms": latencies, "stats": stats,
            "points": sum(s.points for s in summaries),
            "instrs": sum(workloads.simulated_instrs(s)
                          for s in summaries),
            "point_s": sum(o.wall_time for s in summaries
                           for o in s.outcomes if o.simulated)}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_workload(name, args, work):
    run = Run(name, args.seed, args.seconds, args.trace, work)
    try:
        metrics = (run_serve if run.wl.serve else run_batch)(run)
    except Exception as exc:  # noqa: BLE001 - report as a failed check
        run.check("workload completed", False,
                  "%s: %s" % (type(exc).__name__, exc))
        metrics = {}
    names = PER_LAYER if args.trace else END_TO_END
    run.check("every metric measured", set(metrics) == set(names),
              "missing %s" % sorted(set(names) - set(metrics)))
    correct = all(ok for ok, _ in run.checks.values())

    for metric, unit in names.items():
        if metric in metrics:
            value, n = metrics[metric]
            print("%s %s %.6g %s (n=%d)" % (name, metric, value, unit, n))
    for key, value in sorted(run.extra.items()):
        print("%s %s %s" % (name, key, value))
    for check, (ok, detail) in run.checks.items():
        print("%s check %s: %s%s" % (name, check, "ok" if ok else "FAIL",
                                     " (%s)" % detail if detail else ""))
    line = {"correct": correct, "attempted": max(1, run.attempted),
            "failed": run.failed,
            "metrics": {m: {"value": metrics[m][0], "unit": names[m]}
                        for m in names if m in metrics}}
    print(json.dumps(line), flush=True)
    return dict(line, workload=name, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                digest=run.extra.get("digest"),
                samples={m: metrics[m][1] for m in metrics},
                extra=run.extra,
                checks={k: list(v) for k, v in run.checks.items()})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+",
                    choices=sorted(workloads.WORKLOADS),
                    default=["table2", "lpsu-large", "sweep-tiny",
                             "serve"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20,
                    help="measured window per workload (default 20)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write full results as JSON")
    args = ap.parse_args(argv)
    # a terminated run still stops its reps and servers (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: %s/repro not found; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.out:
        args.out = os.path.abspath(args.out)
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    work = os.path.join(HERE, ".work", "run-%d" % os.getpid())
    os.makedirs(work)
    results = []
    try:
        for name in args.workload:
            results.append(run_workload(name, args, work))
            spans = os.path.join(work, "spans.json")
            if args.out and os.path.exists(spans):
                shutil.move(spans, "%s.%s.spans.json" % (args.out, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"results": results}, fh, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
