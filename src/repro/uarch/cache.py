"""Set-associative L1 data-cache timing model.

Only timing and event counting — data always comes from the backing
:class:`~repro.sim.memory.Memory` (the cache never holds stale data, so
functional correctness is independent of the cache model).  LRU
replacement, no-write-allocate is *not* modelled (stores allocate, as
in the paper's writeback L1).
"""

from __future__ import annotations

from .params import CacheConfig


class L1Cache:
    """Timing/event model of one L1 data cache."""

    def __init__(self, config=None):
        self.config = config or CacheConfig()
        cfg = self.config
        self.num_sets = cfg.size_bytes // (cfg.line_bytes * cfg.ways)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("cache geometry must give power-of-two sets")
        self._line_shift = cfg.line_bytes.bit_length() - 1
        # per-set list of tags in LRU order (front == most recent)
        self._sets = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr, is_store=False):
        """Access *addr*; returns the latency in cycles."""
        line = addr >> self._line_shift
        index = line & (self.num_sets - 1)
        tag = line >> (self.num_sets.bit_length() - 1)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            return self.config.hit_latency
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.config.ways:
            ways.pop()
        return self.config.hit_latency + self.config.miss_latency

    def copy_from(self, other):
        """Take the lines and counts of *other*, a cache of the same
        geometry."""
        self._sets = [list(ways) for ways in other._sets]
        self.hits = other.hits
        self.misses = other.misses

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self):
        self.hits = 0
        self.misses = 0
