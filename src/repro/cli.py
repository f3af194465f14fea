"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compile   compile an annotated MiniC file to XLOOPS assembly
disasm    compile and show the encoded words + disassembly
run       compile a MiniC file and simulate a function call
kernels   list the bundled Table II / Table IV application kernels
kernel    run one bundled kernel on a platform and report stats
table     regenerate one of the paper's tables/figures
sweep     run an artifact's simulation points in parallel, cached
          (or route them through a sweep server with --server)
serve     run the sweep-as-a-service result server: many clients,
          shared cache, one deduplicating work queue drained by its
          own simulation slots and by any number of workers
worker    pull leased point batches from a sweep server, simulate
          them through the hardened engine, stream results back
verify    traditional-vs-specialized differential conformance under
          the runtime invariant monitor
prove     symbolic dependence prover: certify every kernel's xloop
          pragmas, or refute them with concrete counterexamples
profile   cProfile one kernel simulation and print the hottest
          functions
inject    seeded fault-injection campaign over the LPSU's
          architectural state, classified against the monitor
isa       print the XLOOPS instruction-set extensions (Table I)
"""

from __future__ import annotations

import argparse
import sys

from .eval.configs import CONFIGS
from .sim.backends import BACKEND_CHOICES
from .uarch.system import MODES


def _add_platform_args(p):
    p.add_argument("--config", default="io+x", choices=sorted(CONFIGS),
                   help="platform configuration (default io+x)")
    p.add_argument("--mode", default="specialized", choices=MODES,
                   help="execution mode (default specialized)")


def _kernel_name(name):
    """argparse ``type=`` for a registered kernel name.  The registry
    (every kernel's source) is imported only when a name is given."""
    from .kernels import KERNELS
    if name not in KERNELS:
        raise argparse.ArgumentTypeError(
            "unknown kernel %r (see 'repro kernels'; separate several "
            "names with spaces, not commas)" % name)
    return name


def _add_backend_arg(p):
    p.add_argument("--backend", choices=BACKEND_CHOICES, default=None,
                   help="simulation backend ladder rung: interp "
                        "(reference), fused, or auto (the default: "
                        "fused).  Results are bit-identical across "
                        "rungs, so a cached result serves any rung")


def _apply_backend_arg(args):
    from .eval import runner
    if args.backend:
        runner.set_default_backend(args.backend)


def _add_cache_args(p):
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan simulation points across N worker "
                        "processes (default: in-process)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent result cache location "
                        "(default ~/.cache/repro or $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the persistent result cache")


def _apply_cache_args(args):
    from .eval import diskcache
    if args.cache_dir:
        diskcache.configure(cache_dir=args.cache_dir)
    if args.no_cache:
        diskcache.configure(enabled=False)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XLOOPS (MICRO 2014) reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="MiniC -> XLOOPS assembly")
    p.add_argument("source", help="MiniC source file")
    p.add_argument("--gp", action="store_true",
                   help="compile for the GP ISA (ignore pragmas)")
    p.add_argument("--no-xi", action="store_true",
                   help="disable xi cross-iteration instructions")
    p.add_argument("--schedule", action="store_true",
                   help="enable automatic CIR-critical-path scheduling")
    p.add_argument("--auto-annotate", action="store_true",
                   help="run the symbolic dependence prover over "
                        "unannotated loops and specialize them with "
                        "proved patterns")

    p = sub.add_parser("disasm", help="show encodings + disassembly")
    p.add_argument("source", help="MiniC or .s assembly file")

    p = sub.add_parser("run", help="compile and simulate a call")
    p.add_argument("source", help="MiniC source file")
    p.add_argument("entry", help="function to call")
    p.add_argument("--auto-annotate", action="store_true",
                   help="specialize unannotated loops with "
                        "prover-certified patterns")
    p.add_argument("args", nargs="*", type=lambda v: int(v, 0),
                   help="integer arguments")
    _add_platform_args(p)
    _add_backend_arg(p)

    sub.add_parser("kernels", help="list bundled application kernels")

    p = sub.add_parser("kernel", help="run one bundled kernel")
    p.add_argument("name", type=_kernel_name,
                   help="kernel name (see 'kernels')")
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--trace", action="store_true",
                   help="draw a per-cycle lane-occupancy diagram of "
                        "the first specialized xloop")
    p.add_argument("--trace-width", type=int, default=120)
    _add_platform_args(p)
    _add_backend_arg(p)

    p = sub.add_parser("table", help="regenerate a paper artifact")
    p.add_argument("which",
                   choices=("table2", "table3", "table4", "table5", "fig5", "fig6",
                            "fig7", "fig9", "fig10"))
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--kernels", nargs="*", type=_kernel_name,
                   help="restrict to these kernels")
    p.add_argument("--json", metavar="FILE",
                   help="also write the raw data as JSON")
    _add_cache_args(p)
    _add_backend_arg(p)

    p = sub.add_parser("sweep",
                       help="run a batch of simulation points "
                            "(parallel, cached)")
    p.add_argument("what", nargs="?", default="table2",
                   choices=("table2", "table4", "fig5", "fig6", "fig7",
                            "fig8", "fig9", "fig10", "all"),
                   help="which artifact's point set to run "
                        "(default table2)")
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernels", nargs="*", type=_kernel_name,
                   help="restrict to these kernels")
    p.add_argument("--quiet", action="store_true",
                   help="omit the per-point wall-time table")
    p.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                   help="per-point wall-clock bound; a worker over "
                        "budget is killed and the point retried "
                        "(default: unbounded)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per point before it is "
                        "quarantined (default 3; the last attempt "
                        "runs on the interp backend)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="checkpoint completed points to FILE so an "
                        "interrupted sweep resumes where it stopped")
    p.add_argument("--server", metavar="ADDR",
                   help="route the sweep through a running sweep "
                        "server instead of executing locally (unix "
                        "socket path, unix:PATH, or host:port); "
                        "results are bit-identical to a local run")
    p.add_argument("--expect-served", type=float, default=None,
                   metavar="FRAC",
                   help="exit nonzero unless at least FRAC of the "
                        "points were cache-served (e.g. 0.95; CI "
                        "uses this to gate warm-sweep behaviour)")
    p.add_argument("--expect-sims", type=int, default=None, metavar="N",
                   help="exit nonzero if more than N points invoked "
                        "the simulator (0 asserts a fully warm sweep)")
    p.add_argument("--expect-sims-exact", type=int, default=None,
                   metavar="N",
                   help="exit nonzero unless exactly N points invoked "
                        "the simulator (the distributed chaos gate: "
                        "every miss simulated exactly once)")
    p.add_argument("--expect-points", type=int, default=None,
                   metavar="N",
                   help="exit nonzero unless exactly N points "
                        "completed successfully (zero lost points)")
    _add_cache_args(p)
    _add_backend_arg(p)

    p = sub.add_parser("serve",
                       help="run the sweep result server (async, "
                            "shared cache, deduped in-flight sims)")
    p.add_argument("--socket", metavar="PATH",
                   help="listen on a unix socket at PATH")
    p.add_argument("--listen", metavar="[HOST:]PORT",
                   help="listen on TCP (default 127.0.0.1:%d when "
                        "--socket is not given)" % 7340)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="local simulation slots (default: CPU count; "
                        "0: none, misses wait for 'repro worker' "
                        "processes); cache hits are unbounded")
    p.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                   help="per-point wall-clock bound for simulations "
                        "(default: unbounded)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per point before it is "
                        "quarantined (default 3)")
    p.add_argument("--idle-exit", type=float, default=0.0,
                   metavar="SEC",
                   help="exit after SEC seconds with no clients, "
                        "nothing in flight, no connected workers, no "
                        "unexpired leases and an empty queue "
                        "(default: run forever)")
    p.add_argument("--stop", metavar="ADDR",
                   help="ask the server at ADDR to shut down "
                        "gracefully (it drains its work queue and "
                        "sends workers a drain frame first), then "
                        "exit")
    p.add_argument("--status", metavar="ADDR",
                   help="one-shot ping of the server at ADDR: print "
                        "live counters (served/simulated/inflight/"
                        "forked and live simulation workers/queued/"
                        "remote workers/leases) and exit")
    p.add_argument("--json", action="store_true",
                   help="with --status: print the raw stats payload "
                        "as JSON")
    p.add_argument("--journal", metavar="FILE",
                   help="append-only fsync'd work-queue journal; a "
                        "restarted server replays it and resumes the "
                        "campaign without re-simulating completed "
                        "points")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   metavar="SEC",
                   help="seconds a worker lease survives without a "
                        "heartbeat before its points are requeued "
                        "(default 30)")
    p.add_argument("--requeue-budget", type=int, default=5,
                   metavar="N",
                   help="times a point may be requeued after lease "
                        "losses before it quarantines as a "
                        "structured failure (default 5)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SEC",
                   help="max seconds a graceful --stop waits for "
                        "leases and queue to empty (default 30)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent result cache location "
                        "(default ~/.cache/repro or $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the persistent cache (memo "
                        "and in-flight dedup only)")

    p = sub.add_parser("worker",
                       help="distributed sweep worker: pull leased "
                            "batches from a sweep server, simulate "
                            "through the hardened engine, stream "
                            "results back")
    p.add_argument("--connect", required=True, metavar="ADDR",
                   help="server address (unix socket path, unix:PATH, "
                        "or host:port)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="concurrent hardened simulations inside this "
                        "worker (default 1)")
    p.add_argument("--name", default="", metavar="NAME",
                   help="worker name reported to the server "
                        "(default worker-<pid>)")
    p.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                   help="per-point wall-clock bound (default: "
                        "unbounded)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="max attempts per point before reporting it "
                        "failed (default 3)")
    p.add_argument("--poll", type=float, default=0.25, metavar="SEC",
                   help="idle re-poll interval when the queue is "
                        "empty (default 0.25)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent result cache location -- point "
                        "it at the server's cache so results are "
                        "shared (default ~/.cache/repro or "
                        "$REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="simulate without the persistent cache (the "
                        "server still stores shipped records)")
    _add_backend_arg(p)

    p = sub.add_parser("verify",
                       help="differential conformance: traditional vs "
                            "specialized under the invariant monitor")
    p.add_argument("kernels", nargs="*", metavar="KERNEL",
                   type=_kernel_name,
                   help="kernels to check (default: all registered; "
                        "see 'repro kernels')")
    p.add_argument("--all", action="store_true",
                   help="check every registered kernel (the default "
                        "when no kernels are named)")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "large"),
                   help="workload scale (default tiny)")
    p.add_argument("--seed", type=int, default=0,
                   help="dataset + loop-generator seed (default 0)")
    p.add_argument("--gen", type=int, default=0, metavar="N",
                   help="also check N randomly generated annotated "
                        "loops (default 0)")
    p.add_argument("--ladder", action="store_true",
                   help="instead check the backend ladder "
                        "(interp/fused, plus fused without the "
                        "compiled LPSU engine on LPSU points, which "
                        "include two contexts per lane) bit-identical "
                        "per point: cycles, events, stats, and final "
                        "memory; failures name the diverging tier")

    p = sub.add_parser("prove",
                       help="symbolic dependence prover: certify or "
                            "refute xloop pragmas")
    p.add_argument("kernels", nargs="*", metavar="KERNEL",
                   type=_kernel_name,
                   help="kernels to prove (default: all registered; "
                        "see 'repro kernels')")
    p.add_argument("--all", action="store_true",
                   help="prove every registered kernel (the default "
                        "when no kernels are named)")
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="also cross-check the prover against "
                        "brute-force dependence enumeration on N "
                        "random affine loops")
    p.add_argument("--seed", type=int, default=0,
                   help="fuzz seed (default 0)")
    p.add_argument("--replay", action="store_true",
                   help="replay each refutation counterexample as a "
                        "directed differential conformance case")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print per-pair certificates for every loop")
    p.add_argument("--json", metavar="FILE",
                   help="also write the proof records to FILE as JSON")

    p = sub.add_parser("profile",
                       help="profile one kernel simulation and print "
                            "the top cumulative hotspots")
    p.add_argument("name", metavar="KERNEL", type=_kernel_name,
                   help="kernel name (see 'kernels')")
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--top", type=int, default=20, metavar="N",
                   help="number of hotspots to print (default 20)")
    p.add_argument("--sort", default="cumulative",
                   choices=("cumulative", "tottime", "ncalls"),
                   help="pstats sort order (default cumulative)")
    _add_platform_args(p)
    _add_backend_arg(p)

    p = sub.add_parser("cache",
                       help="inspect, clear, or prune the persistent "
                            "result cache")
    p.add_argument("action", choices=("stats", "clear", "prune", "fsck"),
                   help="stats: show record count and size; clear: "
                        "delete everything; prune: drop the oldest "
                        "records down to --max-size; fsck: verify "
                        "every record's checksum, quarantine damage, "
                        "sweep stale temp files, rebuild the shard "
                        "indexes")
    p.add_argument("--max-size", metavar="SIZE",
                   help="prune target, e.g. 256M, 2G, or bytes "
                        "(required for 'prune')")
    p.add_argument("--json", action="store_true",
                   help="stats only: emit the full report as JSON "
                        "(per-shard distribution + hot-tier counters)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache location (default ~/.cache/repro or "
                        "$REPRO_CACHE_DIR)")

    p = sub.add_parser("inject",
                       help="seeded fault-injection campaign: corrupt "
                            "architectural state mid-run and classify "
                            "what the invariant monitor catches")
    p.add_argument("--count", type=int, default=200, metavar="N",
                   help="number of injections (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; the same seed replays the "
                        "same campaign bit-for-bit (default 0)")
    p.add_argument("--kernels", nargs="*", metavar="KERNEL",
                   type=_kernel_name,
                   help="kernels to inject into (default: one per "
                        "loop-dependence pattern)")
    p.add_argument("--targets", nargs="*", metavar="TARGET",
                   help="state classes to corrupt (default: reg cib "
                        "lsq mivt mem)")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "large"),
                   help="workload scale (default tiny)")
    p.add_argument("--config", default="io+x", choices=sorted(CONFIGS),
                   help="platform configuration (default io+x)")
    p.add_argument("--timeout", type=float, default=30.0, metavar="SEC",
                   help="per-injection wall-clock bound (default 30)")
    p.add_argument("--min-detection", type=float, default=0.0,
                   metavar="RATE",
                   help="exit nonzero if the detection rate of "
                        "monitor-visible faults falls below RATE "
                        "(e.g. 0.9)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the full report as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-injection progress dots")

    sub.add_parser("isa", help="print Table I")
    return parser


def cmd_compile(args):
    from .lang import compile_source
    with open(args.source) as f:
        source = f.read()
    compiled = compile_source(
        source, xloops=not args.gp, xi_enabled=not args.no_xi,
        schedule_cirs=args.schedule,
        annotate="auto" if args.auto_annotate else "pragma")
    for loop in compiled.loops:
        print("# line %d: %r -> %s%s" % (
            loop.line, loop.annotation, loop.mnemonic,
            "  cirs=" + ",".join(loop.cirs) if loop.cirs else ""),
            file=sys.stderr)
    print(compiled.asm_text)
    return 0


def cmd_disasm(args):
    from .isa import encode
    program = _load_program(args.source)
    for instr in program.instrs:
        label = program.label_at(instr.pc)
        if label:
            print("%s:" % label)
        print("    %08x:  %08x  %s"
              % (instr.pc, encode(instr), instr))
    return 0


def _load_program(path):
    with open(path) as f:
        source = f.read()
    if path.endswith(".s") or path.endswith(".asm"):
        from .asm import assemble
        return assemble(source)
    from .lang import compile_source
    return compile_source(source).program


def cmd_run(args):
    from .energy import system_energy
    from .lang import compile_source
    from .uarch import simulate
    with open(args.source) as f:
        source = f.read()
    compiled = compile_source(
        source, annotate="auto" if args.auto_annotate else "pragma")
    config = CONFIGS[args.config]
    if config.lpsu is None and args.mode != "traditional":
        print("error: config %r has no LPSU; use --mode traditional"
              % args.config, file=sys.stderr)
        return 2
    result = simulate(compiled.program, config, entry=args.entry,
                      args=args.args, mode=args.mode,
                      backend=args.backend)
    print("cycles:        %d" % result.cycles)
    print("instructions:  %d gpp + %d lpsu"
          % (result.gpp_instrs, result.lpsu_instrs))
    print("energy:        %.1f nJ" % system_energy(result, config))
    print("return value:  %d" % result.return_value)
    if result.specialized_invocations:
        print("specialized:   %d invocation(s), %d iterations, "
              "%d squashes"
              % (result.specialized_invocations,
                 result.lpsu_stats.iterations,
                 result.lpsu_stats.squashes))
    return 0


def cmd_kernels(_args):
    from .kernels import ALL_KERNELS
    for spec in ALL_KERNELS:
        print("%-16s %-3s %-10s %s"
              % (spec.name, spec.suite, ",".join(spec.loop_types),
                 spec.description))
    return 0


def cmd_kernel(args):
    from .eval.runner import baseline_run, run
    _apply_backend_arg(args)
    result = run(args.name, args.config, mode=args.mode,
                 scale=args.scale)
    base = baseline_run(args.name, args.config, scale=args.scale)
    print("kernel:     %s on %s (%s)" % (args.name, args.config,
                                         args.mode))
    print("cycles:     %d (baseline GPP: %d)" % (result.cycles,
                                                 base.cycles))
    print("speedup:    %.2fx" % (base.cycles / result.cycles))
    print("energy:     %.1f nJ (baseline: %.1f nJ)"
          % (result.energy_nj, base.energy_nj))
    print("energy eff: %.2fx" % (base.energy_nj / result.energy_nj))
    if result.specialized_invocations:
        stats = result.lpsu_stats
        print("lpsu:       %d iterations, %d squashes, breakdown %s"
              % (stats.iterations, stats.squashes, stats.breakdown()))
    print("verified against the golden model: yes")
    if args.trace:
        from .kernels import get_kernel
        from .lang import compile_source
        from .sim import Memory
        from .uarch.tracelog import trace_specialized
        spec = get_kernel(args.name)
        compiled = compile_source(spec.source)
        workload = spec.workload(args.scale)
        mem = Memory()
        wargs = workload.apply(mem)
        config = CONFIGS[args.config]
        if config.lpsu is None:
            print("(no LPSU on %r; nothing to trace)" % args.config)
            return 0
        trace, _ = trace_specialized(
            compiled.program, spec.entry, wargs, mem,
            lpsu_config=config.lpsu, latencies=config.gpp.latencies)
        print()
        print(trace.render(width=args.trace_width))
    return 0


def cmd_table(args):
    from . import eval as ev
    from .eval import export
    _apply_cache_args(args)
    _apply_backend_arg(args)
    kw = {"scale": args.scale, "jobs": args.jobs}
    if args.kernels:
        kw["kernels"] = args.kernels
    payload = None
    if args.which == "table2":
        rows = ev.build_table2(**kw)
        print(ev.render_table2(rows))
        payload = export.table2_to_dict(rows)
    elif args.which == "table3":
        print(ev.render_table3())
        payload = ev.build_table3()
    elif args.which == "table4":
        rows = ev.build_table4(**kw)
        print(ev.render_table4(rows))
        payload = [{"kernel": r.kernel, "type": r.loop_type,
                    "speedups": r.speedups} for r in rows]
    elif args.which == "table5":
        rows = ev.build_table5()
        print(ev.render_table5(rows))
        payload = export.table5_to_dict(rows)
    elif args.which == "fig5":
        series = ev.fig5_data(**kw)
        print(ev.render_fig5(series))
        payload = export.series_to_dict(series)
    elif args.which == "fig6":
        data = ev.fig6_data(**kw)
        print(ev.render_fig6(data))
        payload = data
    elif args.which == "fig7":
        series = ev.fig7_data(**kw)
        print(ev.render_fig7(series))
        payload = export.series_to_dict(series)
    elif args.which == "fig9":
        series = ev.fig9_data(scale=args.scale, jobs=args.jobs)
        print(ev.render_fig9(series))
        payload = export.series_to_dict(series)
    elif args.which == "fig10":
        points = ev.fig10_data(**kw)
        print(ev.render_fig10(points))
        payload = export.fig8_to_dict(points)
    if args.json and payload is not None:
        export.save_json(args.json, payload)
        print("wrote %s" % args.json)
    return 0


def cmd_sweep(args):
    from .eval import parallel
    from .eval.figures import FIG9_KERNELS, FIG10_KERNELS
    _apply_cache_args(args)
    _apply_backend_arg(args)
    kernels = args.kernels or None
    scale, seed = args.scale, args.seed
    sets = {
        "table2": lambda: parallel.table2_points(kernels, scale, seed),
        "table4": lambda: parallel.table4_points(kernels, scale, seed),
        "fig5": lambda: parallel.fig5_points(kernels, scale, seed),
        "fig6": lambda: parallel.fig6_points(kernels, scale, seed),
        "fig7": lambda: parallel.fig7_points(kernels, scale, seed),
        "fig8": lambda: parallel.fig8_points(kernels, scale=scale,
                                             seed=seed),
        "fig9": lambda: parallel.fig9_points(kernels or FIG9_KERNELS,
                                             scale=scale, seed=seed),
        "fig10": lambda: parallel.fig10_points(
            kernels or FIG10_KERNELS, scale=scale, seed=seed),
    }
    if args.what == "all":
        points = [pt for make in sets.values() for pt in make()]
    else:
        points = sets[args.what]()
    if args.server:
        from .serve import ServeClient
        with ServeClient(args.server) as client:
            summary = client.submit(points)
    else:
        summary = parallel.sweep(points, jobs=args.jobs,
                                 timeout=args.timeout,
                                 retries=args.retries,
                                 checkpoint=args.checkpoint)
    print(summary.render(per_point=not args.quiet))
    ok = summary.ok
    if args.expect_served is not None:
        frac = summary.hits / max(1, summary.points)
        print("cache-served: %d/%d (%.1f%%, floor %.1f%%)"
              % (summary.hits, summary.points, 100 * frac,
                 100 * args.expect_served))
        if frac < args.expect_served or not summary.points:
            print("FAIL: served fraction %.3f below required %.3f"
                  % (frac, args.expect_served), file=sys.stderr)
            ok = False
    if args.expect_sims is not None and summary.misses > args.expect_sims:
        print("FAIL: %d simulator invocation(s), expected at most %d"
              % (summary.misses, args.expect_sims), file=sys.stderr)
        ok = False
    if args.expect_sims_exact is not None \
            and summary.misses != args.expect_sims_exact:
        print("FAIL: %d simulator invocation(s), expected exactly %d"
              % (summary.misses, args.expect_sims_exact),
              file=sys.stderr)
        ok = False
    if args.expect_points is not None \
            and summary.points != args.expect_points:
        print("FAIL: %d point(s) completed, expected exactly %d"
              % (summary.points, args.expect_points), file=sys.stderr)
        ok = False
    return 0 if ok else 1


def cmd_serve(args):
    import asyncio
    from .eval import diskcache
    from .serve import ServeClient, SweepServer
    from .serve.protocol import DEFAULT_PORT, ProtocolError, \
        parse_address
    if args.status:
        return _serve_status(args.status, as_json=args.json)
    if args.stop:
        try:
            # a draining server replies only once its queue is
            # empty; wait at least the drain window
            with ServeClient(args.stop,
                             timeout=args.drain_timeout + 15.0) \
                    as client:
                reply = client.shutdown()
        except (OSError, ProtocolError) as exc:
            print("error: cannot reach server at %s: %s"
                  % (args.stop, exc), file=sys.stderr)
            return 1
        drained = reply.get("drained", True)
        print("stop sent to %s%s"
              % (args.stop,
                 "" if drained else " (drain timed out; unfinished "
                 "queue state is in the journal)"))
        return 0
    if args.cache_dir:
        diskcache.configure(cache_dir=args.cache_dir)
    if args.no_cache:
        diskcache.configure(enabled=False)
    path = host = port = None
    if args.socket and args.listen:
        print("error: --socket and --listen are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.socket:
        path = args.socket
    elif args.listen:
        text = args.listen if ":" in args.listen \
            else "127.0.0.1:" + args.listen
        try:
            _, host, port = parse_address(text)
        except ProtocolError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    else:
        host, port = "127.0.0.1", DEFAULT_PORT
    server = SweepServer(jobs=args.jobs, timeout=args.timeout,
                         retries=args.retries,
                         idle_exit=args.idle_exit,
                         journal=args.journal,
                         lease_ttl=args.lease_ttl,
                         requeue_budget=args.requeue_budget,
                         drain_timeout=args.drain_timeout)
    try:
        asyncio.run(server.serve(path=path, host=host, port=port,
                                 announce=print))
    except KeyboardInterrupt:
        pass
    c = server.counters
    print("served %d point(s) over %d connection(s): %d cache, "
          "%d in-flight joins, %d simulated, %d failed; "
          "%d worker(s) forked"
          % (c["points"], c["connections"], c["served_cache"],
             c["served_inflight"], c["simulated"], c["failed"],
             server.workers.spawned))
    q = server.queue.counters
    print("queue: %d enqueued, %d completed, %d requeued, "
          "%d duplicate(s) discarded, %d expired lease(s), "
          "%d worker loss(es), %d budget-exhausted, "
          "%d journal error(s)"
          % (q["enqueued"], q["completed"], q["requeued"],
             q["duplicates"], q["expired_leases"],
             q["worker_losses"], q["exhausted"], q["journal_errors"]))
    return 0


def _serve_status(address, as_json=False):
    """One-shot ``repro serve --status ADDR``."""
    import json as json_mod
    from .serve import ServeClient
    from .serve.protocol import ProtocolError
    try:
        with ServeClient(address, timeout=10.0) as client:
            stats = client.stats()
    except (OSError, ProtocolError) as exc:
        print("error: cannot reach server at %s: %s" % (address, exc),
              file=sys.stderr)
        return 1
    if as_json:
        print(json_mod.dumps(stats, indent=2, sort_keys=True))
        return 0
    c = stats.get("counters", {})
    q = stats.get("queue") or {}
    qc = q.get("counters", {})
    print("server %s (protocol %s, jobs %s)"
          % (stats.get("version", "?"), stats.get("protocol", "?"),
             stats.get("jobs", "?")))
    print("  points: %d total -- %d cache-served, %d in-flight "
          "joins, %d simulated, %d failed"
          % (c.get("points", 0), c.get("served_cache", 0),
             c.get("served_inflight", 0), c.get("simulated", 0),
             c.get("failed", 0)))
    print("  inflight: %d   connections: %d   submissions: %d"
          % (stats.get("inflight", 0), c.get("connections", 0),
             c.get("submissions", 0)))
    print("  local workers: %d alive, %d forked so far"
          % (c.get("workers", 0), c.get("spawned", 0)))
    print("  queue: %d queued, %d leased, %d worker(s); "
          "%d completed, %d requeued, %d duplicate(s), "
          "%d journal error(s)"
          % (q.get("queued", 0), q.get("leased", 0),
             q.get("workers", 0), qc.get("completed", 0),
             qc.get("requeued", 0), qc.get("duplicates", 0),
             qc.get("journal_errors", 0)))
    return 0


def cmd_worker(args):
    from .eval import diskcache
    from .serve.protocol import ProtocolError
    from .serve.worker import run_worker
    _apply_backend_arg(args)
    if args.cache_dir:
        diskcache.configure(cache_dir=args.cache_dir)
    if args.no_cache:
        diskcache.configure(enabled=False)
    try:
        counters = run_worker(args.connect, jobs=args.jobs,
                              name=args.name, timeout=args.timeout,
                              retries=args.retries, poll=args.poll,
                              announce=print)
    except (OSError, ProtocolError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("worker done: %d lease(s), %d point(s), %d completed, "
          "%d failed, %d reconnect(s), %d process(es) forked"
          % (counters["leases"], counters["points"],
             counters["completed"], counters["failed"],
             counters["reconnects"], counters["spawned"]))
    return 0


def cmd_verify(args):
    from .verify import run_conformance, run_ladder
    kernels = args.kernels or None
    if args.all:
        kernels = None

    def progress(res):
        if res.ok and args.ladder:
            print("ok   %-16s %-14s %3d points bit-identical"
                  % (res.name, ",".join(res.kinds), res.configs))
        elif res.ok:
            print("ok   %-16s %-14s %3d configs  %5d iterations  "
                  "%4d squashes"
                  % (res.name, ",".join(res.kinds), res.configs,
                     res.iterations, res.squashes))
        else:
            print("FAIL %-16s %s" % (res.name, res.detail))

    harness = run_ladder if args.ladder else run_conformance
    results = harness(kernels=kernels, gen=args.gen,
                      seed=args.seed, scale=args.scale,
                      progress=progress)
    bad = [r for r in results if not r.ok]
    print("%d loop%s checked, %d failed"
          % (len(results), "s" if len(results) != 1 else "", len(bad)))
    return 1 if bad else 0


def cmd_prove(args):
    from .lang.passes.prover import fuzz_prover, prove_all
    names = args.kernels or None
    if args.all:
        names = None

    def progress(kp):
        flag = ("ok*  " if kp.whitelisted else "ok   " if kp.ok
                else "FAIL ")
        print("%s%-16s %s" % (flag, kp.name, kp.detail))
        for proof in kp.loops:
            if args.verbose:
                print("      %s" % proof.describe())
                for line in proof.describe_pairs().splitlines():
                    print("        %s" % line)
            elif proof.counterexample is not None and not proof.ok:
                print("      counterexample: %s" % proof.counterexample)

    results = prove_all(names, progress=progress)
    bad = [kp for kp in results if not kp.ok]
    whitelisted = [kp for kp in results if kp.whitelisted]

    replay_bad = 0
    if args.replay:
        from .kernels import get_kernel
        from .lang.parser import parse
        from .verify.conformance import check_counterexample
        for kp in results:
            spec = get_kernel(kp.name)
            funcs = {f.name: f for f in parse(spec.source).functions}
            for proof in kp.loops:
                if proof.counterexample is None:
                    continue
                func = funcs.get(proof.function)
                if func is None or func.name != spec.entry:
                    continue
                res = check_counterexample(spec.source, spec.entry,
                                           func.params, proof)
                caught = not res.ok
                replay_bad += 0 if caught else 1
                print("%s %-16s counterexample replay %s"
                      % ("ok  " if caught else "FAIL", kp.name,
                         "diverged as predicted" if caught
                         else "produced no divergence"))

    if args.json:
        import json
        records = [{
            "name": kp.name, "ok": kp.ok,
            "whitelisted": kp.whitelisted, "detail": kp.detail,
            "loops": [{
                "function": p.function, "line": p.line,
                "annotation": p.annotation, "emitted": p.emitted,
                "verdict": p.verdict, "minimal": p.minimal,
                "mem_status": p.mem_status,
                "reasons": list(p.reasons), "notes": list(p.notes),
                "counterexample": (None if p.counterexample is None
                                   else str(p.counterexample)),
            } for p in kp.loops],
        } for kp in results]
        with open(args.json, "w") as f:
            json.dump(records, f, indent=2)

    fuzz_bad = 0
    if args.fuzz:
        def fuzz_progress(case, verdict):
            if (case + 1) % 25 == 0 or case + 1 == args.fuzz:
                print("fuzz %d/%d" % (case + 1, args.fuzz))
        failures = fuzz_prover(seed=args.seed, count=args.fuzz,
                               progress=fuzz_progress)
        for f in failures:
            print("FUZZ FAIL %s" % f)
        fuzz_bad = len(failures)

    print("%d kernel%s proved, %d failed, %d whitelisted"
          % (len(results), "s" if len(results) != 1 else "",
             len(bad), len(whitelisted)))
    return 1 if (bad or fuzz_bad or replay_bad) else 0


def cmd_profile(args):
    import cProfile
    import pstats
    from .eval import runner
    _apply_backend_arg(args)
    # a memo- or disk-served result would profile the cache instead of
    # the simulator: drop in-process memos and bypass the disk cache
    runner.clear_cache(keep_disk=True)
    from .sim.backends import resolve_backend
    backend = resolve_backend(runner.default_backend())
    prof = cProfile.Profile()
    prof.enable()
    result = runner.run(args.name, args.config, mode=args.mode,
                        scale=args.scale, use_disk_cache=False,
                        backend=backend.name)
    prof.disable()
    print("kernel:  %s on %s (%s, scale=%s, backend=%s)"
          % (args.name, args.config, args.mode, args.scale,
             backend.name))
    print("cycles:  %d" % result.cycles)
    print()
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _parse_size(text):
    """``256M``/``2G``/``4096`` -> bytes (suffixes K/M/G, powers of
    1024)."""
    s = text.strip().upper()
    factor = 1
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if s.endswith(suffix):
            s = s[:-1]
            factor = mult
            break
    return int(float(s) * factor)


def _fmt_size(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return ("%d %s" % (n, unit) if unit == "B"
                    else "%.1f %s" % (n, unit))
        n /= 1024.0


def cmd_cache(args):
    from .eval import diskcache
    if args.cache_dir:
        diskcache.configure(cache_dir=args.cache_dir)
    if args.action == "stats":
        st = diskcache.disk_stats()
        if args.json:
            import json
            st["shard_distribution"] = diskcache.shard_stats()
            print(json.dumps(st, indent=2, sort_keys=True))
            return 0
        print("cache dir: %s" % st["dir"])
        print("records:   %d" % st["records"])
        print("size:      %s" % _fmt_size(st["bytes"]))
        print("shards:    %d populated (index rebuilds this "
              "process: %d)" % (st["shards"], st["index_rebuilds"]))
        hot = st["hot"]
        print("hot tier:  %d record(s), %s of %s  "
              "(%d hit(s), %d eviction(s))"
              % (hot["entries"], _fmt_size(hot["bytes"]),
                 _fmt_size(hot["limit_bytes"]), hot["hits"],
                 hot["evictions"]))
        return 0
    if args.action == "clear":
        removed = diskcache.clear()
        print("removed %d record(s)" % removed)
        return 0
    if args.action == "fsck":
        report = diskcache.fsck()
        print("cache dir: %s" % report["dir"])
        print("checked:   %d record(s)" % report["checked"])
        print("ok:        %d (%d legacy un-checksummed)"
              % (report["ok"], report["legacy"]))
        print("corrupt:   %d (quarantined)" % report["corrupt"])
        for path in report["quarantined"]:
            print("  -> %s" % path)
        print("stale tmp: %d removed" % report["stale_tmp"])
        return 1 if report["corrupt"] else 0
    # prune
    if not args.max_size:
        print("error: prune requires --max-size (e.g. --max-size 256M)",
              file=sys.stderr)
        return 2
    try:
        budget = _parse_size(args.max_size)
    except ValueError:
        print("error: unparseable --max-size %r" % args.max_size,
              file=sys.stderr)
        return 2
    removed, freed = diskcache.prune(budget)
    st = diskcache.disk_stats()
    print("removed %d record(s), freed %s; now %d record(s), %s"
          % (removed, _fmt_size(freed), st["records"],
             _fmt_size(st["bytes"])))
    return 0


def cmd_inject(args):
    from .resilience import (CampaignConfig, CampaignError,
                             FAULT_TARGETS, run_campaign)
    kw = {}
    if args.kernels:
        kw["kernels"] = tuple(args.kernels)
    if args.targets:
        unknown = set(args.targets) - set(FAULT_TARGETS)
        if unknown:
            print("error: unknown fault target(s) %s (choose from %s)"
                  % (", ".join(sorted(unknown)),
                     " ".join(FAULT_TARGETS)), file=sys.stderr)
            return 2
        kw["targets"] = tuple(args.targets)
    cfg = CampaignConfig(config=args.config, scale=args.scale,
                         seed=args.seed, count=args.count,
                         timeout=args.timeout, **kw)

    def progress(done, total, outcome):
        if args.quiet:
            return
        sys.stdout.write(".")
        if done % 50 == 0 or done == total:
            sys.stdout.write(" %d/%d\n" % (done, total))
        sys.stdout.flush()

    try:
        report = run_campaign(cfg, progress=progress)
    except CampaignError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        import json
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    if args.min_detection and report.detection_rate < args.min_detection:
        print("FAIL: detection rate %.3f below required %.3f"
              % (report.detection_rate, args.min_detection),
              file=sys.stderr)
        return 1
    return 0


def cmd_isa(_args):
    from .isa import PATTERN_DESCRIPTIONS
    print("XLOOPS instruction-set extensions (paper Table I + the .de "
          "extension):")
    for mnemonic, description in PATTERN_DESCRIPTIONS.items():
        print("  %-14s %s" % (mnemonic, description))
    print("  %-14s %s" % ("addiu.xi",
                          "cross-iteration add (immediate stride)"))
    print("  %-14s %s" % ("addu.xi",
                          "cross-iteration add (register stride)"))
    print("  %-14s %s" % ("xloop.break",
                          "data-dependent exit (.de bodies only)"))
    return 0


_COMMANDS = {
    "compile": cmd_compile, "disasm": cmd_disasm, "run": cmd_run,
    "kernels": cmd_kernels, "kernel": cmd_kernel, "table": cmd_table,
    "sweep": cmd_sweep, "serve": cmd_serve, "worker": cmd_worker,
    "verify": cmd_verify,
    "prove": cmd_prove, "isa": cmd_isa,
    "cache": cmd_cache, "profile": cmd_profile, "inject": cmd_inject,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
