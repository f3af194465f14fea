"""The benchmark's workloads: their point sets, the serve request
schedule, and the record digest.

Shared by ``run.py`` (the harness) and ``rep.py`` (one rep in a fresh
process).  ``repro`` is imported inside the functions, because the
harness of a batch workload never imports it.  Every input derives
from the benchmark seed: it goes into the point enumerators, which
pass it to the kernels' dataset generators.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    parallel: bool       # timed reps fan points across nproc workers
    serve: bool = False  # driven through a live ``repro serve``


WORKLOADS = {w.name: w for w in (
    Workload("table2", "small", parallel=False),
    Workload("lpsu-large", "large", parallel=True),
    Workload("sweep-tiny", "tiny", parallel=True),
    Workload("serve", "tiny", parallel=False, serve=True),
    # for the self-test only; not in BENCHMARK.json
    Workload("mini", "tiny", parallel=True),
)}

#: the mini workload's kernels: Table II's points for two of them
MINI_KERNELS = ("sgemm-uc", "dither-or")

#: ksack-lg-om shares its source with ksack-sm-om, and the result
#: cache key covers the source but not the dataset, so in a parallel
#: sweep ksack-lg-om's record is whichever of the two was stored first.
#: Parallel workloads leave it out until the key covers the dataset;
#: serial ones keep it (it is deterministically served ksack-sm-om's).
RACY_IN_PARALLEL = ("ksack-lg-om",)

#: serve schedule size per ``--seconds`` of run length: new groups
#: (misses), each followed by this many repeats of earlier groups (hits)
SERVE_MISSES_PER_S = 6
SERVE_HITS_PER_MISS = 30

#: the GPP columns of Table II; a serve group is one kernel on one
GPP_COLUMNS = ("io", "ooo/2", "ooo/4")


def points(name, seed, seconds):
    """The point set one rep of workload *name* runs.  For ``serve``
    these are the schedule's groups of point seed *seed*: the points
    replayed directly to check that served records equal direct ones."""
    from repro.eval import parallel
    from repro.eval.figures import FIG9_KERNELS, FIG10_KERNELS
    scale = WORKLOADS[name].scale
    if name == "table2":
        pts = parallel.table2_points(scale=scale, seed=seed)
    elif name == "lpsu-large":
        pts = (parallel.table4_points(scale=scale, seed=seed)
               + parallel.fig6_points(scale=scale, seed=seed)
               + parallel.fig9_points(FIG9_KERNELS, scale=scale, seed=seed)
               + parallel.fig10_points(FIG10_KERNELS, scale=scale,
                                       seed=seed))
    elif name == "mini":
        pts = parallel.table2_points(MINI_KERNELS, scale=scale, seed=seed)
    elif name == "sweep-tiny":
        # the point set of ``repro sweep all``
        pts = (parallel.table2_points(scale=scale, seed=seed)
               + parallel.table4_points(scale=scale, seed=seed)
               + parallel.fig5_points(scale=scale, seed=seed)
               + parallel.fig6_points(scale=scale, seed=seed)
               + parallel.fig7_points(scale=scale, seed=seed)
               + parallel.fig8_points(scale=scale, seed=seed)
               + parallel.fig9_points(FIG9_KERNELS, scale=scale, seed=seed)
               + parallel.fig10_points(FIG10_KERNELS, scale=scale,
                                       seed=seed))
    else:
        groups, _requests = serve_schedule(seed, seconds)
        pts = [pt for g in groups if g[2] == seed
               for pt in group_points(*g)]
    if WORKLOADS[name].parallel:
        pts = [pt for pt in pts if pt.kernel not in RACY_IN_PARALLEL]
    return list(dict.fromkeys(pts))


def execute(name, pts, jobs, seed):
    """Run one rep's points as a user would, down to the text the
    command prints; returns the sweep summary."""
    from repro.eval import build_table2, parallel, render_table2
    summary = parallel.sweep(pts, jobs=jobs)
    if name == "table2":
        # ``repro table table2``: the rows assemble from the memo the
        # sweep just filled
        render_table2(build_table2(scale=WORKLOADS[name].scale,
                                   seed=seed))
    else:
        summary.render()
    return summary


def group_points(kernel, gpp, point_seed):
    """One serve request: a kernel's Table II column on one GPP --
    baseline, traditional, specialized and adaptive."""
    from repro.eval.parallel import SweepPoint, baseline_point
    scale = WORKLOADS["serve"].scale
    return [baseline_point(kernel, gpp, scale, point_seed),
            SweepPoint(kernel, gpp, mode="traditional", scale=scale,
                       seed=point_seed),
            SweepPoint(kernel, gpp + "+x", mode="specialized",
                       scale=scale, seed=point_seed),
            SweepPoint(kernel, gpp + "+x", mode="adaptive", scale=scale,
                       seed=point_seed)]


def serve_schedule(seed, seconds):
    """``(groups, requests)``: *groups* are ``(kernel, gpp, point_seed)``
    in first-request order, *requests* index into them.  Each group's
    first request is a miss; it is followed by repeats of groups sent
    before, which hit.  New groups take every kernel x GPP column of
    point seed *seed* in shuffled order, then of *seed* + 1, and so on."""
    from repro.kernels import TABLE2_KERNELS
    rng = random.Random(seed)
    misses = max(2, int(SERVE_MISSES_PER_S * seconds))
    groups = []
    point_seed = seed
    while len(groups) < misses:
        block = [(k.name, gpp, point_seed) for k in TABLE2_KERNELS
                 for gpp in GPP_COLUMNS]
        rng.shuffle(block)
        groups.extend(block)
        point_seed += 1
    del groups[misses:]
    requests = []
    for i in range(misses):
        requests.append(i)
        requests.extend(rng.randrange(i + 1)
                        for _ in range(SERVE_HITS_PER_MISS))
    return groups, requests


def by_kernel(pts):
    """*pts* split into one chunk per kernel, in first-seen order: the
    units a timed pass runs, each in a fresh process."""
    chunks = {}
    for pt in pts:
        chunks.setdefault(pt.kernel, []).append(pt)
    return list(chunks.values())


def record_digest(pts):
    """sha256 over the sorted simulated statistics of every point's
    record (from this process's memo).  A change that only speeds up
    the host side leaves it unchanged; a missing record changes it."""
    return digest_rows(record_rows(pts))


def digest_rows(rows):
    """The record digest of :func:`record_rows` rows, in any order."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(row.encode())
    return h.hexdigest()


def record_rows(pts):
    """One JSON row per point: the point and its record's simulated
    statistics (None when this process's memo lacks it)."""
    from repro.eval import runner
    from repro.serve.protocol import point_to_wire
    rows = []
    for pt in dict.fromkeys(pts):
        rec = runner.cached_result(pt.kernel, pt.config,
                                   **pt.run_kwargs())
        stats = None if rec is None else [
            rec.cycles, rec.gpp_instrs, rec.lpsu_instrs,
            repr(rec.energy_nj), repr(rec.vlsi_energy_nj),
            asdict(rec.events), asdict(rec.lpsu_stats),
            rec.specialized_invocations,
            sorted(rec.adaptive_decisions.items()),
            repr(rec.cache_miss_rate)]
        rows.append(json.dumps([point_to_wire(pt), stats],
                               sort_keys=True))
    return rows


def simulated_instrs(summary):
    """GPP + LPSU instructions of the points *summary* simulated."""
    from repro.eval import runner
    total = 0
    for out in summary.outcomes:
        if out.simulated:
            pt = out.point
            total += runner.cached_result(
                pt.kernel, pt.config, **pt.run_kwargs()).total_instrs
    return total
