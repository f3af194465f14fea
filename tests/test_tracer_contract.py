"""The repo benchmark's tracer wraps ``repro`` entry points by name.

``benchmarks/e2e/tracer.py`` replaces module and class attributes of
every layer with timing wrappers (``repro.sim.turbo.turbo_memo`` and
``repro.sim.vector.vector_engine`` among them, kept as placeholders for
it), so renaming or deleting one of them breaks the traced benchmark
run.  Installing the tracer in a fresh process pins every name.
"""

import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_entry_point():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(_ROOT, p) for p in ("src", "benchmarks/e2e")))
    out = subprocess.run(
        [sys.executable, "-c",
         "from tracer import Tracer, install; install(Tracer())"],
        env=env, cwd=_ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
