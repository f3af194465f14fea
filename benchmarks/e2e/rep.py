"""Cold reps of a workload's point set, in a fresh process.

    python benchmarks/e2e/rep.py --workload W --seed S --seconds N \\
        --jobs J --spawned-at T --out FILE
        [--setup-only | --passes P | --trace SPANS]

``run.py`` starts it with ``PYTHONPATH`` at ``src`` and a fresh
``REPRO_CACHE_DIR``; *T* is the harness's ``time.time()`` just before
the spawn.  Reps need fresh processes because the codegen caches in
``repro.sim.fusion`` are process-wide and survive
``runner.clear_cache()``: a second rep in one process would not be
cold.

Writes one JSON object to FILE with ``setup_s`` (spawn to ready-to-
dispatch: imports and point enumeration) and, by mode:

* ``--setup-only``: nothing else;
* ``--passes P``: ``passes``, the timed cold passes over the point set
  (at least *P*, more while they fit in N seconds; see
  :func:`timed_passes`), ``setups``, the set-up times of fresh
  ``--setup-only`` processes started between chunks, and for
  ``table2`` the paper-agreement numbers;
* otherwise one whole rep in this process (:func:`rep`), traced under
  :mod:`tracer` with ``--trace``, which writes its spans to SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostref
import workloads

#: measurements summed over a pass's chunks
SUMMED = ("attempted", "points", "hits", "failed", "retries", "sweep_s",
          "point_s", "instrs")
#: set-up probes spread over each pass, between chunks
SETUP_PROBES_PER_PASS = 4


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--passes", type=int, default=0)
    mode.add_argument("--trace", metavar="SPANS")
    args = ap.parse_args(argv)

    pts = workloads.points(args.workload, args.seed, args.seconds)
    out = {"setup_s": time.time() - args.spawned_at}
    if args.passes:
        out.update(timed_passes(args, pts))
    elif not args.setup_only:
        out.update(rep(args, pts))
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def timed_passes(args, pts):
    """Cold passes over *pts*: at least ``--passes``, and more while
    another fits in ``--seconds`` at the mean pass time so far.

    A pass runs each kernel's points (:func:`workloads.by_kernel`) in a
    child forked from this process, which has imported ``repro`` and
    enumerated the points but simulated nothing, so every chunk starts
    cold; the chunks of a pass share a fresh result cache, as one
    sweep's points would.  Before timing, one untimed chunk shows which
    modules a simulation imports lazily, and this process imports them,
    so the chunks do not each pay what one sweep pays once.  A
    host-speed reference runs between chunks; a pass's ``wall_s`` is
    its chunks' time scaled to the nominal host speed (:mod:`hostref`),
    ``raw_wall_s`` the time as measured.  Set-up probes run between
    chunks too, so their median samples the host over the whole run,
    not over the few seconds before it."""
    chunks = workloads.by_kernel(pts)
    probe_every = max(1, len(chunks) // SETUP_PROBES_PER_PASS)
    cache_root = os.environ["REPRO_CACHE_DIR"]
    warm = run_chunk(args, chunks[0], os.path.join(cache_root, "warm-up"))
    for name in warm["modules"]:
        with contextlib.suppress(ImportError):
            importlib.import_module(name)
    passes, setups = [], []
    t0 = time.perf_counter()
    while len(passes) < args.passes or (time.perf_counter() - t0) * (
            1 + 1 / len(passes)) <= args.seconds:
        cache = os.path.join(cache_root, "pass-%d" % len(passes))
        clock = hostref.Clock()
        parts = []
        for i, chunk in enumerate(chunks):
            parts.append(run_chunk(args, chunk, cache))
            clock.add(parts[-1]["work_s"])
            if i % probe_every == probe_every // 2:
                setups.append(setup_probe(args))
        total = {k: sum(p[k] for p in parts) for k in SUMMED}
        total.update(
            wall_s=clock.nominal_s, raw_wall_s=clock.raw_s, jobs=args.jobs,
            ref_ms=1e3 * statistics.median(clock.refs),
            latencies_ms=[ms for p in parts for ms in p["latencies_ms"]],
            digest=workloads.digest_rows(
                [row for p in parts for row in p["rows"]]),
            rss_kb=max(p["rss_kb"] for p in parts))
        passes.append(total)
    out = {"passes": passes, "setups": setups}
    if args.workload == "table2":
        # served from the last pass's cache: no simulation
        from repro.eval import diskcache
        diskcache.configure(cache_dir=cache)
        out["paper"] = paper_agreement(args)
    return out


def setup_probe(args):
    """``setup_s`` of a fresh ``--setup-only`` rep process."""
    path = args.out + ".setup"
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--out", path, "--setup-only",
         "--spawned-at", repr(time.time())],
        check=True, stdout=subprocess.DEVNULL)
    with open(path) as fh:
        return json.load(fh)["setup_s"]


def run_chunk(args, chunk, cache):
    """Sweep *chunk* in a forked child with result cache *cache*; the
    child's measurements (:func:`chunk_rep`), plus the peak resident
    set of the child and the workers it forked."""
    path = args.out + ".chunk"
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(path, "w") as fh:
                json.dump(chunk_rep(args, chunk, cache), fh)
            status = 0
        except Exception:  # noqa: BLE001 - the parent reports the exit
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    _pid, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError("chunk %s exited with status %s" % (
            chunk[0].kernel, os.waitstatus_to_exitcode(status)))
    with open(path) as fh:
        part = json.load(fh)
    part["rss_kb"] = usage.ru_maxrss
    return part


def chunk_rep(args, chunk, cache):
    from repro.eval import parallel
    before = set(sys.modules)
    t0 = time.perf_counter()
    summary = parallel.sweep(chunk, jobs=args.jobs, cache_dir=cache)
    work_s = time.perf_counter() - t0
    return dict(sweep_stats(summary, chunk), work_s=work_s,
                rows=workloads.record_rows(chunk),
                modules=sorted(set(sys.modules) - before))


def rep(args, pts):
    """One whole rep in this process: the workload's points run as a
    user would run them (:func:`workloads.execute`)."""
    # the timer starts before the tracer is installed: installing
    # imports modules an untraced rep imports lazily while it runs
    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    with tracer.root() if tracer else contextlib.nullcontext():
        summary = workloads.execute(args.workload, pts, args.jobs,
                                    args.seed)
    out = {"work_s": time.perf_counter() - t0,
           "wall_s": time.time() - args.spawned_at}
    if tracer is not None:
        out["trace"] = trace_totals(tracer)
        tracer.dump(args.trace)
    out.update(sweep_stats(summary, pts))
    out.update({
        "digest": workloads.record_digest(pts),
        "rss_kb": max(resource.getrusage(who).ru_maxrss for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)),
    })
    if args.workload == "table2":
        out["paper"] = paper_agreement(args)
    return out


def sweep_stats(summary, pts):
    """What a sweep of *pts* did, from its summary."""
    return {
        "attempted": len(pts), "points": summary.points,
        "hits": summary.hits, "failed": len(summary.failures),
        "retries": len(summary.retries), "jobs": summary.jobs,
        "sweep_s": summary.wall_time,
        "point_s": sum(o.wall_time for o in summary.outcomes),
        "latencies_ms": [1e3 * o.wall_time for o in summary.outcomes
                         if o.simulated],
        "instrs": workloads.simulated_instrs(summary),
    }


def paper_agreement(args):
    """io:S direction agreement and Spearman rho against the paper's
    Table II, from the records of this process's memo or cache."""
    from repro.eval import compare_table2, measured_io_s
    cmp = compare_table2(measured_io_s(
        scale=workloads.WORKLOADS["table2"].scale, seed=args.seed))
    return {"direction": cmp.direction_agreement,
            "spearman": cmp.spearman_rho}


def trace_totals(tracer):
    """Per-span-name self times, calls and counts of the traced rep,
    taken before anything after the rep adds spans outside its root."""
    memos = tracer.objects["turbo"].values()
    engines = tracer.objects["vector"].values()
    counts = dict(tracer.counts,
                  turbo_hits=sum(m.hits for m in memos),
                  turbo_misses=sum(m.misses for m in memos),
                  vector_iterations=sum(e.batched_iterations
                                        for e in engines))
    return {"unattributed_frac": tracer.unattributed_frac(),
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": counts}


if __name__ == "__main__":
    main()
