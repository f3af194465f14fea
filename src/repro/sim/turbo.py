"""Placeholder for the retired ``turbo`` backend rung.

It is kept only because ``benchmarks/e2e/tracer.py`` imports this
module to wrap :func:`turbo_memo`; the benchmark change that drops
that wrap deletes this file.  Nothing in ``repro`` calls it.
"""


def turbo_memo(descriptor, lpsu_cfg, gpp_cfg):
    """Always None: there is no schedule memo."""
    return None
