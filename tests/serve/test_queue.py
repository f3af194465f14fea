"""The server's work queue bookkeeping, in isolation: one entry per
point, keyed by its memo key, and take/complete/fail.  No sockets
here -- the queue is pure state the server drives from its event
loop; the end-to-end behaviour is tests/serve/test_server.py."""

import json

import pytest

from repro.eval.hardening import PointFailure
from repro.eval.parallel import SweepPoint
from repro.serve import protocol
from repro.serve.queue import WorkQueue

WIRE_A = {"kernel": "sgemm-uc", "config": "io", "mode": "traditional",
          "binary": "xloops", "xi": True, "scale": "tiny", "seed": 0,
          "schedule_cirs": False}
POINT_A = protocol.point_from_wire(WIRE_A)
POINT_B = SweepPoint("sgemm-uc", "io+x", mode="specialized",
                     scale="tiny")


@pytest.fixture()
def queue():
    return WorkQueue()


class TestIdentity:
    def test_qkey_is_order_independent(self, queue):
        """Two submissions of one point whose wire fields come in
        another order join one entry."""
        shuffled = dict(reversed(list(WIRE_A.items())))
        entry, _ = queue.enqueue(protocol.point_from_wire(shuffled))
        assert queue.enqueue(POINT_A) == (entry, False)
        assert entry.qkey == POINT_A.memo_key()

    def test_distinct_points_get_distinct_qkeys(self, queue):
        a, _ = queue.enqueue(POINT_A)
        b, created = queue.enqueue(POINT_B)
        assert created and a.qkey != b.qkey
        assert queue.counters["enqueued"] == 2

    def test_label_mirrors_sweep_point(self, queue):
        queue.enqueue(POINT_A)
        entry = queue.take()
        assert entry.point.label() == "sgemm-uc/io/traditional/xloops/tiny"


def test_queue_identity_matches_wire_points(queue):
    """A point parsed again from its JSON wire image joins the entry
    of the same point: each submission is parsed anew, and one
    simulation must answer every waiter."""
    pt = SweepPoint("sgemm-uc", "io", scale="tiny")
    entry, _ = queue.enqueue(pt)
    rejson = json.loads(json.dumps(protocol.point_to_wire(pt)))
    assert queue.enqueue(protocol.point_from_wire(rejson)) \
        == (entry, False)


class TestEnqueueTake:
    def test_enqueue_dedups_pending(self, queue):
        _, created1 = queue.enqueue(POINT_A)
        _, created2 = queue.enqueue(POINT_A)
        assert created1 and not created2
        assert queue.counters["enqueued"] == 1
        assert queue.queued == 1

    def test_take_is_oldest_first_and_joins_taken_points(self, queue):
        first, _ = queue.enqueue(POINT_A)
        second, _ = queue.enqueue(POINT_B)
        assert queue.take() is first
        assert first.point is POINT_A
        assert queue.queued == 1
        # a point a slot is running is joined, not queued again
        assert queue.enqueue(POINT_A) == (first, False)
        assert queue.queued == 1
        assert queue.take() is second
        assert queue.take() is None and queue.queued == 0

    def test_empty_queue_takes_nothing(self, queue):
        assert queue.take() is None


class TestCompletion:
    def test_complete_resolves_the_entry(self, queue):
        entry, _ = queue.enqueue(POINT_A)
        queue.take()
        assert queue.complete(entry.qkey) is entry
        assert not queue.entries
        assert queue.counters["completed"] == 1

    def test_failure_quarantines_without_requeue(self, queue):
        queue.enqueue(POINT_A)
        entry = queue.take()
        failure = PointFailure(POINT_A.label(), 3, "crash", "boom")
        assert queue.fail(entry.qkey, failure) is entry
        assert entry.failure is failure
        assert entry.qkey not in queue.entries
        assert queue.queued == 0            # no requeue for failures

    def test_engine_failure_is_stored_unchanged(self, queue):
        """An engine-level failure (the ladder raised before any
        attempt ran) reports 0 attempts; the queue keeps the engine's
        record as it is instead of rebuilding it."""
        queue.enqueue(POINT_A)
        entry = queue.take()
        failure = PointFailure(POINT_A.label(), 0, "error",
                               "engine: RuntimeError: boom")
        queue.fail(entry.qkey, failure)
        assert entry.failure is failure
        assert (failure.label, failure.attempts, failure.kind,
                failure.error) == (POINT_A.label(), 0, "error",
                                   "engine: RuntimeError: boom")

    def test_resubmit_after_failure_gets_fresh_budget(self, queue):
        queue.enqueue(POINT_A)
        failed = queue.take()
        queue.fail(failed.qkey,
                   PointFailure(POINT_A.label(), 2, "crash", "boom"))
        # a fresh submission of a quarantined point re-enqueues it
        entry, created = queue.enqueue(POINT_A)
        assert created and entry is not failed
        assert entry.failure is None
        assert queue.take() is entry


class TestIdle:
    def test_idle_until_every_entry_resolves(self, queue):
        assert queue.idle
        queue.enqueue(POINT_A)
        assert not queue.idle               # pending
        entry = queue.take()
        assert not queue.idle               # a slot is running it
        queue.complete(entry.qkey)
        assert queue.idle
