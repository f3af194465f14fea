"""The simulation backend ladder: ``interp`` -> ``fused``.

Both tiers simulate the same machine and must produce bit-identical
results (cycles, energy events, final memory); they differ only in how
much per-cycle interpretation they elide:

``interp``
    The reference path: per-instruction decoded handlers, per-cycle
    LPSU stepping.  Slowest, structurally closest to the paper's
    description; verification and fault injection always run here.
``fused``
    Superblock fusion (:mod:`repro.sim.fusion`): exec-compiled GPP
    basic blocks and the compiled fused-lane LPSU engine, one per loop
    body, whatever the LPSU design point (including two contexts per
    lane), driven by an event-driven cycle loop that jumps over idle
    cycles and parks stalled lanes.  Same schedule, less dispatch.

``auto`` (and None) resolves to ``fused``.  ``--backend`` (mirrored
into ``$REPRO_BACKEND`` for worker processes) and the ``backend=``
argument are the only selectors.  ``repro verify --ladder`` enforces
the bit-identity contract across the tiers, which is what lets a
result's cache key omit the tier that computed it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: names accepted anywhere a backend is selected
BACKEND_CHOICES = ("auto", "interp", "fused")


@dataclass(frozen=True)
class Backend:
    """One rung of the simulation-backend ladder."""

    name: str
    fast: bool    # fused superblocks + LPSU engine enabled
    description: str


BACKENDS = {
    "interp": Backend("interp", False,
                      "per-instruction reference interpreter"),
    "fused": Backend("fused", True,
                     "superblock fusion + compiled LPSU lane engine"),
}


def resolve_backend(name=None):
    """Resolve a backend selection to a :class:`Backend`.

    *name* may be any of :data:`BACKEND_CHOICES`; None and ``auto``
    mean ``fused``.
    """
    if name is None or name == "auto":
        name = "fused"
    b = BACKENDS.get(name)
    if b is None:
        raise ValueError("unknown backend %r (choose from %s)"
                         % (name, "/".join(BACKEND_CHOICES)))
    return b
