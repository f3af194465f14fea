"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main

DEMO = """
void scale(int* a, int* b, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { b[i] = 3 * a[i] + 1; }
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_isa(capsys):
    assert main(["isa"]) == 0
    out = capsys.readouterr().out
    assert "xloop.uc" in out and "addiu.xi" in out


def test_compile(demo_file, capsys):
    assert main(["compile", demo_file]) == 0
    captured = capsys.readouterr()
    assert "xloop.uc" in captured.out
    assert "xloop.uc" in captured.err   # loop report on stderr


def test_compile_gp_mode(demo_file, capsys):
    assert main(["compile", demo_file, "--gp"]) == 0
    out = capsys.readouterr().out
    assert "xloop" not in out
    assert "blt" in out


def test_compile_no_xi(demo_file, capsys):
    assert main(["compile", demo_file, "--no-xi"]) == 0
    assert ".xi" not in capsys.readouterr().out


def test_disasm(demo_file, capsys):
    assert main(["disasm", demo_file]) == 0
    out = capsys.readouterr().out
    assert "scale:" in out
    assert "00001000:" in out


def test_disasm_assembly_file(tmp_path, capsys):
    path = tmp_path / "tiny.s"
    path.write_text("main:\n addi a0, zero, 7\n ret\n")
    assert main(["disasm", str(path)]) == 0
    assert "addi" in capsys.readouterr().out


def test_run_specialized(demo_file, capsys):
    rc = main(["run", demo_file, "scale",
               "0x100000", "0x200000", "16",
               "--config", "io+x", "--mode", "specialized"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "specialized:" in out
    assert "cycles:" in out


def test_run_rejects_lpsu_mode_on_baseline(demo_file, capsys):
    rc = main(["run", demo_file, "scale", "0", "0", "0",
               "--config", "io", "--mode", "specialized"])
    assert rc == 2


def test_kernels_listing(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "sgemm-uc" in out and "bfs-uc-db" in out


def test_kernel_run(capsys):
    rc = main(["kernel", "sha-or", "--scale", "tiny",
               "--config", "io+x"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup:" in out
    assert "verified against the golden model: yes" in out


def test_table5(capsys):
    assert main(["table", "table5"]) == 0
    assert "lpsu+i128+ln4" in capsys.readouterr().out


def test_fig6_restricted_kernels(capsys):
    rc = main(["table", "fig6", "--scale", "tiny",
               "--kernels", "sha-or"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sha-or" in out


def test_compile_schedule_flag(tmp_path, capsys):
    path = tmp_path / "or.c"
    path.write_text("""
void k(int* g, int* out, int* nxt, int n) {
    int err = 0;
    #pragma xloops ordered
    for (int x = 0; x < n; x++) {
        int old = g[x] + err;
        out[x] = old;
        err = (old * 7) / 16;
    }
}
""")
    assert main(["compile", str(path), "--schedule"]) == 0
    out = capsys.readouterr().out
    assert "xloop.or" in out


def test_table3(capsys):
    assert main(["table", "table3"]) == 0
    out = capsys.readouterr().out
    assert "ooo/4" in out and "LPSU" in out


def test_verify_ladder(capsys):
    rc = main(["verify", "--ladder", "vvadd-uc", "sha-or"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "0 failed" in out


def test_verify_ladder_runs_fused_noengine(capsys, monkeypatch):
    # the ladder's harness-only tier: fused without the compiled LPSU
    # engine, the path production takes whenever lpsu_engine is None
    from repro.verify import conformance
    tiers = set()
    snapshot = conformance._run_snapshot

    def spy(*args):
        tiers.add(args[-1])
        return snapshot(*args)

    monkeypatch.setattr(conformance, "_run_snapshot", spy)
    rc = main(["verify", "--ladder", "sha-or"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "0 failed" in out
    assert conformance._NOENGINE in tiers


def test_kernel_backend_flag(capsys, monkeypatch):
    from repro.eval import diskcache, runner
    # a cached record serves every rung: compare the rungs uncached,
    # each simulating the point and its baseline
    monkeypatch.setenv(diskcache.ENV_NO_CACHE, "1")
    outs = []
    try:
        for backend in ("fused", "interp"):
            runner.clear_cache(keep_disk=True)
            before = runner.simulations
            assert main(["kernel", "vvadd-uc", "--scale", "tiny",
                         "--backend", backend]) == 0
            assert runner.simulations == before + 2
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    finally:
        import os
        runner.set_default_backend("auto")
        os.environ.pop("REPRO_BACKEND", None)
        runner.clear_cache(keep_disk=True)


@pytest.mark.parametrize("argv", [
    ["kernel", "vvadd-uc,saxpy-uc"],
    ["profile", "nope"],
    ["verify", "vvadd-uc", "nope"],
    ["prove", "nope"],
    ["table", "table2", "--kernels", "vvadd-uc,saxpy-uc"],
    ["sweep", "table2", "--kernels", "nope"],
    ["inject", "--kernels", "nope"],
])
def test_unknown_kernel_is_a_usage_error(argv, capsys):
    # exit 2 with one line naming the bad name, not a KeyError
    # traceback (exit 1 means "a check failed" for verify and prove)
    bad = next(a for a in argv if a == "nope" or "," in a)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "unknown kernel %r" % bad in last
    assert "spaces, not commas" in last


def test_cache_prune_requires_max_size(capsys):
    assert main(["cache", "prune"]) == 2
    assert "--max-size" in capsys.readouterr().err


def test_profile_prints_hotspots(capsys):
    rc = main(["profile", "sha-or", "--scale", "tiny", "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sha-or on io+x" in out
    assert "cycles:" in out
    # pstats table with the requested restriction applied
    assert "cumtime" in out
    assert "due to restriction <5>" in out


def test_profile_backend_flag(capsys):
    from repro.eval import runner
    try:
        rc = main(["profile", "vvadd-uc", "--scale", "tiny",
                   "--backend", "interp", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=interp" in out
        assert "cycles:" in out
    finally:
        # --backend sets the process default: later tests run on auto
        import os
        runner.set_default_backend("auto")
        os.environ.pop("REPRO_BACKEND", None)


def test_prove_named_kernels(capsys):
    assert main(["prove", "vvadd-uc", "war-uc", "hsort-ua"]) == 0
    out = capsys.readouterr().out
    assert "ok   vvadd-uc" in out
    assert "3 kernels proved, 0 failed, 0 whitelisted" in out


def test_prove_verbose_prints_certificates(capsys):
    assert main(["prove", "dynprog-om", "-v"]) == 0
    out = capsys.readouterr().out
    assert "xloop.om proved" in out
    assert "minimal" in out          # per-loop describe() line


def test_prove_fuzz_and_json(tmp_path, capsys):
    import json
    report = tmp_path / "proofs.json"
    assert main(["prove", "saxpy-uc", "--fuzz", "5", "--seed", "2",
                 "--json", str(report)]) == 0
    records = json.loads(report.read_text())
    assert records[0]["name"] == "saxpy-uc"
    assert records[0]["ok"] is True
    assert records[0]["loops"][0]["verdict"] == "proved"


def test_prove_replay_on_sound_kernels_is_noop(capsys):
    # no registered kernel is refuted, so --replay replays nothing
    assert main(["prove", "mm-orm", "--replay"]) == 0
    out = capsys.readouterr().out
    assert "counterexample replay" not in out


def test_compile_auto_annotate(tmp_path, capsys):
    path = tmp_path / "plain.c"
    path.write_text("""
void scale(int* a, int* b, int n) {
    for (int i = 0; i < n; i++) { b[i] = 3 * a[i] + 1; }
}
""")
    assert main(["compile", str(path), "--auto-annotate"]) == 0
    err = capsys.readouterr()
    assert "xloop.uc" in err.out + err.err


def test_run_auto_annotate(tmp_path, capsys):
    path = tmp_path / "plain.c"
    path.write_text("""
int total(int* a, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + a[i]; }
    return acc;
}
""")
    rc = main(["run", str(path), "total", "0x100000", "0",
               "--auto-annotate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "return value:  0" in out


def test_serve_flags_and_the_retired_worker_tier(capsys):
    args = build_parser().parse_args(
        ["serve", "--socket", "/tmp/s.sock", "--jobs", "2"])
    assert args.jobs == 2
    status = build_parser().parse_args(
        ["serve", "--status", "/tmp/s.sock", "--json"])
    assert status.status == "/tmp/s.sock" and status.json
    # retired flags: the worker tier's, the queue journal's and sweep
    # checkpoint's (the disk cache is the one durable store), and the
    # drain window's (a constant)
    for argv in (["worker", "--connect", "/tmp/s.sock"],
                 ["serve", "--lease-ttl", "5"],
                 ["serve", "--requeue-budget", "3"],
                 ["serve", "--journal", "/tmp/q.journal"],
                 ["serve", "--drain-timeout", "10"],
                 ["sweep", "table2", "--checkpoint", "/tmp/s.ckpt"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2, argv
    # a server that may run no simulation would never answer a miss
    assert main(["serve", "--jobs", "0", "--socket", "/tmp/s.sock"]) == 2
    assert "at least one" in capsys.readouterr().err


def test_sweep_exact_accounting_flags():
    args = build_parser().parse_args(
        ["sweep", "table2", "--scale", "tiny",
         "--expect-sims-exact", "24", "--expect-points", "28"])
    assert args.expect_sims_exact == 24
    assert args.expect_points == 28


def test_serve_status_against_dead_socket(capsys):
    assert main(["serve", "--status", "/tmp/no-such-repro.sock"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
