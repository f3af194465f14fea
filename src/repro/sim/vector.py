"""Placeholder for the retired ``vector`` backend rung.

It is kept only because ``benchmarks/e2e/tracer.py`` imports this
module to wrap :func:`vector_engine`; the benchmark change that drops
that wrap deletes this file.  Nothing in ``repro`` calls it.
"""


def vector_engine(descriptor, lpsu_cfg, gpp_cfg):
    """Always None: there is no whole-block batching engine."""
    return None
