"""Self-test of the end-to-end benchmark, outside the tier-1 suite:

    python -m pytest benchmarks/e2e -q

It drives run.py on the two-kernel ``mini`` workload (and a one-second
``serve``), and compare.py on synthetic results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import run as bench
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_run(tmp_path, *args, env=None):
    """run.py with *args*; its process, last stdout line and results."""
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args,
         "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as fh:
        return proc, line, json.load(fh)["results"]


def test_benchmark_json_matches_the_harness(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} \
        == set(workloads.WORKLOADS) - {"mini"}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, spec, trace):
    proc, line, (result,) = bench_run(
        tmp_path, "--workload", "mini", "--seconds", "1",
        "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        assert result["samples"]["wall_s"] >= 2
    # the digest is compared across every rep of the run
    assert result["checks"]["digest equal across reps"][0]
    assert len(result["digest"]) == 64


@pytest.mark.skipif(bench.nproc() < 2,
                    reason="chaos strikes only in parallel workers")
def test_a_quarantined_point_is_counted_and_the_run_completes(tmp_path):
    # every attempt of one point crashes, so its retries run out
    plan = {"sgemm-uc/io/traditional/xloops": {"crash": [0, 1, 2]}}
    env = dict(os.environ, REPRO_CHAOS=json.dumps(plan))
    proc, line, (result,) = bench_run(
        tmp_path, "--workload", "mini", "--seconds", "1", env=env)
    assert proc.returncode == 1
    assert not line["correct"]
    assert line["failed"] / line["attempted"] > 0
    assert set(line["metrics"]) == set(bench.END_TO_END)


def test_served_records_equal_direct_ones(tmp_path):
    proc, line, (result,) = bench_run(
        tmp_path, "--workload", "serve", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["checks"]["served records equal direct"][0]
    assert result["checks"]["repeats never simulate"][0]


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def write_results(path, values, digest="d"):
    results = [{"workload": "table2", "seed": seed, "correct": True,
                "digest": "%s%d" % (digest, seed),
                "metrics": {"wall_s": {"value": v, "unit": "s"}}}
               for seed, v in enumerate(values)]
    path.write_text(json.dumps({"results": results}))
    return str(path)


@pytest.mark.parametrize("slower, verdict, status",
                         [(0.05, "REGRESSION", 1), (None, "ok", 0),
                          (-0.4, "gain", 0)])
def test_compare_verdicts(tmp_path, spec, slower, verdict, status):
    """A wall_s worse than its bound (by *slower* beyond it) is a
    regression, +3% is not, and a clear, consistent gain is one."""
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "wall_s")
    factor = 1.03 if slower is None else 1 + bound + slower
    base = write_results(tmp_path / "base.json", BASE)
    change = write_results(tmp_path / "change.json",
                           [factor * v for v in BASE])
    rows, failures = compare.compare(compare.load([base]),
                                     compare.load([change]), spec)
    assert [r["verdict"] for r in rows] == [verdict]
    assert not failures
    assert compare.main(["--base", base, "--change", change]) == status


def test_compare_fails_on_a_digest_mismatch(tmp_path):
    base = write_results(tmp_path / "base.json", BASE)
    change = write_results(tmp_path / "change.json", BASE, digest="e")
    assert compare.main(["--base", base, "--change", change]) == 1
