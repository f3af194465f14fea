"""The simulation backend ladder: ``interp`` -> ``fused`` -> ``turbo``
-> ``vector``.

Every tier simulates the same machine and must produce bit-identical
results (cycles, energy events, final memory); they differ only in how
much per-cycle interpretation they elide:

``interp``
    The reference path: per-instruction decoded handlers, per-cycle
    LPSU stepping.  Slowest, structurally closest to the paper's
    description; verification and fault injection always run here.
``fused``
    Superblock fusion (:mod:`repro.sim.fusion`): exec-compiled GPP
    basic blocks and the compiled fused-lane LPSU engine.  Same
    schedule, less dispatch.
``turbo``
    Everything in ``fused`` plus steady-state recurrence extraction
    (:mod:`repro.sim.turbo`): recorded iteration-schedule segments are
    exec-compiled into straight-line batch steppers and whole epochs
    are replayed per call, validated live against branch directions
    and cache hit/miss outcomes.
``vector``
    Everything in ``turbo`` plus whole-block iteration batching
    (:mod:`repro.sim.vector`): branchy/aperiodic ``xloop.uc`` bodies
    -- exactly the loops whose schedule memo goes dead -- are executed
    functionally as numpy array programs over blocks of iterations
    (active-mask wavefront, gather/scatter subscripts), then the exact
    cycle/energy schedule is reconstructed by an event-compressed
    replay of the per-instruction meta table.  Needs the optional
    ``repro[vector]`` extra (numpy).

``auto`` resolves to the highest applicable tier: ``vector`` when
numpy is importable, else ``turbo``.  Explicitly requesting ``vector``
without numpy installed is an error.  ``--backend`` (mirrored into
``$REPRO_BACKEND`` for worker processes) and the ``backend=`` argument
are the only selectors.  ``repro verify --ladder`` enforces the
bit-identity contract pairwise across all tiers, which is what lets a
result's cache key omit the tier that computed it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: names accepted anywhere a backend is selected
BACKEND_CHOICES = ("auto", "interp", "fused", "turbo", "vector")


@dataclass(frozen=True)
class Backend:
    """One rung of the simulation-backend ladder."""

    name: str
    fast: bool    # fused superblocks + LPSU engine enabled
    turbo: bool   # steady-state segment compilation enabled
    vector: bool  # numpy whole-block iteration batching enabled
    description: str


BACKENDS = {
    "interp": Backend(
        "interp", False, False, False,
        "per-instruction reference interpreter"),
    "fused": Backend(
        "fused", True, False, False,
        "superblock fusion + compiled LPSU lane engine"),
    "turbo": Backend(
        "turbo", True, True, False,
        "fused + compiled steady-state schedule replay"),
    "vector": Backend(
        "vector", True, True, True,
        "turbo + numpy whole-block iteration batching"),
}


def _have_numpy():
    from .vector import HAS_NUMPY
    return HAS_NUMPY


def resolve_backend(name=None):
    """Resolve a backend selection to a :class:`Backend`.

    *name* may be any of :data:`BACKEND_CHOICES`; None means ``auto``,
    the highest tier whose prerequisites hold: ``vector`` when numpy is
    importable, else ``turbo``.
    """
    if name is None or name == "auto":
        name = "vector" if _have_numpy() else "turbo"
    elif name == "vector" and not _have_numpy():
        raise ValueError(
            "backend 'vector' requires numpy (install the repro[vector] "
            "extra); 'auto' falls back to turbo without it")
    b = BACKENDS.get(name)
    if b is None:
        raise ValueError("unknown backend %r (choose from %s)"
                         % (name, "/".join(BACKEND_CHOICES)))
    return b
