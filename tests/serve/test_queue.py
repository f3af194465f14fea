"""The server's work queue bookkeeping, in isolation: one entry per
point, take/complete/fail, and the crash-safe journal replay.  No
sockets here -- the queue is pure state the server drives from its
event loop; the end-to-end behaviour is tests/serve/test_server.py."""

import errno
import json

import pytest

from repro.eval.parallel import SweepPoint
from repro.resilience import journal as journal_mod
from repro.resilience.journal import Journal
from repro.serve import protocol
from repro.serve.queue import WorkQueue, label_of, qkey_of

WIRE_A = {"kernel": "sgemm-uc", "config": "io", "mode": "traditional",
          "binary": "xloops", "xi": True, "scale": "tiny", "seed": 0,
          "schedule_cirs": False}
WIRE_B = dict(WIRE_A, config="io+x", mode="specialized")
WIRE_C = dict(WIRE_A, kernel="dither-or", config="io+x",
              mode="specialized")


@pytest.fixture()
def queue():
    return WorkQueue()


class TestIdentity:
    def test_qkey_is_order_independent(self):
        shuffled = dict(reversed(list(WIRE_A.items())))
        assert qkey_of(WIRE_A) == qkey_of(shuffled)

    def test_distinct_points_get_distinct_qkeys(self):
        assert qkey_of(WIRE_A) != qkey_of(WIRE_B)

    def test_label_mirrors_sweep_point(self):
        assert label_of(WIRE_A) == "sgemm-uc/io/traditional/xloops/tiny"


def test_queue_identity_matches_wire_points():
    """qkey round-trips through the journal stay joined to the same
    SweepPoint (the completion path depends on it)."""
    pt = SweepPoint("sgemm-uc", "io", scale="tiny")
    wire = protocol.point_to_wire(pt)
    rejson = json.loads(json.dumps(wire))
    assert qkey_of(wire) == qkey_of(rejson)
    assert protocol.point_from_wire(rejson).memo_key() == pt.memo_key()


class TestEnqueueTake:
    def test_enqueue_dedups_pending(self, queue):
        _, created1 = queue.enqueue(WIRE_A)
        _, created2 = queue.enqueue(WIRE_A)
        assert created1 and not created2
        assert queue.counters["enqueued"] == 1
        assert queue.queued == 1

    def test_take_is_oldest_first_and_joins_taken_points(self, queue):
        first, _ = queue.enqueue(WIRE_A)
        second, _ = queue.enqueue(WIRE_B)
        assert queue.take() is first
        assert queue.queued == 1
        # a point a slot is running is joined, not queued again
        assert queue.enqueue(WIRE_A) == (first, False)
        assert queue.queued == 1
        assert queue.take() is second
        assert queue.take() is None and queue.queued == 0

    def test_empty_queue_takes_nothing(self, queue):
        assert queue.take() is None


class TestCompletion:
    def test_complete_resolves_the_entry(self, queue):
        entry, _ = queue.enqueue(WIRE_A)
        queue.take()
        assert queue.complete(entry.qkey) is entry
        assert not queue.entries
        assert queue.counters["completed"] == 1

    def test_failure_quarantines_without_requeue(self, queue):
        queue.enqueue(WIRE_A)
        entry = queue.take()
        assert queue.fail(entry.qkey, "crash", "boom", attempts=3) \
            is entry
        failure = entry.failure
        assert failure.kind == "crash" and failure.attempts == 3
        assert failure.label == label_of(WIRE_A)
        assert entry.qkey not in queue.entries
        assert queue.queued == 0            # no requeue for failures


class TestIdle:
    def test_idle_until_every_entry_resolves(self, queue):
        assert queue.idle
        queue.enqueue(WIRE_A)
        assert not queue.idle               # pending
        entry = queue.take()
        assert not queue.idle               # a slot is running it
        queue.complete(entry.qkey)
        assert queue.idle


class TestJournal:
    def test_replay_resumes_pending_only(self, tmp_path):
        path = str(tmp_path / "queue.journal")
        q1 = WorkQueue(journal_path=path)
        q1.enqueue(WIRE_A)
        q1.enqueue(WIRE_B)
        q1.enqueue(WIRE_C)
        for _ in range(3):
            q1.take()
        q1.complete(qkey_of(WIRE_A))
        q1.fail(qkey_of(WIRE_B), "crash", "boom", attempts=2)
        q1.close()                          # server "crashes" here

        q2 = WorkQueue(journal_path=path)
        # only the uncompleted, unfailed point is pending again
        assert q2.queued == 1
        assert q2.counters["replayed"] == 1
        assert qkey_of(WIRE_C) in q2.entries
        _pending, completed, failed = Journal(path).replay()
        assert qkey_of(WIRE_A) in completed
        assert failed[qkey_of(WIRE_B)]["kind"] == "crash"
        # and a slot can take it immediately
        assert q2.take().qkey == qkey_of(WIRE_C)
        q2.close()

    def test_replay_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "queue.journal")
        q1 = WorkQueue(journal_path=path)
        q1.enqueue(WIRE_A)
        q1.enqueue(WIRE_B)
        q1.complete(q1.take().qkey)
        q1.close()
        with open(path, "ab") as fh:        # crash mid-append
            fh.write(b'{"op": "complete", "qk')
        pending, completed, failed = Journal(path).replay()
        assert set(pending) == {qkey_of(WIRE_B)}
        assert completed == {qkey_of(WIRE_A)}
        assert failed == {}

    def test_completion_after_torn_tail_survives_restart(self,
                                                         tmp_path):
        """A restarted server's first transition is appended after the
        torn line is cut off, not glued onto it: completed after one
        restart, the point stays completed after the next."""
        path = str(tmp_path / "queue.journal")
        q1 = WorkQueue(journal_path=path)
        q1.enqueue(WIRE_A)
        q1.close()
        with open(path, "ab") as fh:        # crash mid-append
            fh.write(b'{"op": "enqueue", "qk')
        q2 = WorkQueue(journal_path=path)
        assert qkey_of(WIRE_A) in q2.entries
        q2.complete(q2.take().qkey)
        q2.close()
        q3 = WorkQueue(journal_path=path)
        assert qkey_of(WIRE_A) in Journal(path).replay()[1]
        assert not q3.entries and q3.queued == 0
        q3.close()

    def test_unwritable_journal_fails_at_construction(self, tmp_path):
        """A journal that cannot be opened stops the server at startup
        instead of running a whole campaign without durability."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.raises(OSError):
            WorkQueue(journal_path=str(blocker / "queue.journal"))

    def test_failed_append_is_counted_not_raised(self, tmp_path,
                                                 monkeypatch):
        """A journal that fails later (a full disk) costs durability,
        never the work: every transition still happens, and each lost
        line counts."""
        q = WorkQueue(journal_path=str(tmp_path / "queue.journal"))

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(journal_mod.os, "fsync", full_disk)
        entry, created = q.enqueue(WIRE_A)
        assert created and q.take() is entry
        assert q.complete(entry.qkey) is entry
        assert q.counters["journal_errors"] == 2
        q.close()

    def test_replay_tolerates_garbage_lines(self, tmp_path):
        path = tmp_path / "queue.journal"
        path.write_bytes(
            b"\x00\xff garbage\n"
            + json.dumps({"op": "enqueue", "qkey": qkey_of(WIRE_A),
                          "wire": WIRE_A}).encode() + b"\n"
            + b'["not", "an", "object"]\n'
            + b'{"op": "mystery", "qkey": "x"}\n')
        pending, completed, failed = Journal(str(path)).replay()
        assert set(pending) == {qkey_of(WIRE_A)}

    def test_missing_journal_is_empty_not_an_error(self, tmp_path):
        pending, completed, failed = Journal(
            str(tmp_path / "nope.journal")).replay()
        assert (pending, completed, failed) == ({}, set(), {})

    def test_resubmit_after_failure_gets_fresh_budget(self, tmp_path):
        path = str(tmp_path / "queue.journal")
        q1 = WorkQueue(journal_path=path)
        q1.enqueue(WIRE_A)
        q1.take()
        q1.fail(qkey_of(WIRE_A), "crash", "boom", attempts=2)
        # a fresh submission of a quarantined point re-enqueues it
        entry, created = q1.enqueue(WIRE_A)
        assert created and entry.failure is None
        pending, _completed, failed = Journal(path).replay()
        assert qkey_of(WIRE_A) in pending
        assert qkey_of(WIRE_A) not in failed
        q1.close()
