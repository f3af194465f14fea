"""The distributed work queue's bookkeeping invariants, in isolation:
leases with deadlines, heartbeat extension, expiry requeue, idempotent
first-writer-wins completion, the bounded requeue budget, and the
crash-safe journal replay.  No sockets here -- the queue is pure state
the server drives from its event loop; the end-to-end behaviour is
tests/serve/test_distributed.py."""

import errno
import json

import pytest

from repro.resilience import journal as journal_mod
from repro.resilience.journal import Journal
from repro.serve.queue import (DEFAULT_LEASE_TTL, WorkQueue, label_of,
                               qkey_of)

WIRE_A = {"kernel": "sgemm-uc", "config": "io", "mode": "traditional",
          "binary": "xloops", "xi": True, "scale": "tiny", "seed": 0,
          "schedule_cirs": False}
WIRE_B = dict(WIRE_A, config="io+x", mode="specialized")
WIRE_C = dict(WIRE_A, kernel="dither-or", config="io+x",
              mode="specialized")


class FakeClock:
    """Deterministic stand-in for time.monotonic."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, secs):
        self.now += secs


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(clock):
    return WorkQueue(lease_ttl=10.0, requeue_budget=2, clock=clock)


def _worker(queue):
    return queue.register_worker(name="w", pid=123, jobs=1)


class TestIdentity:
    def test_qkey_is_order_independent(self):
        shuffled = dict(reversed(list(WIRE_A.items())))
        assert qkey_of(WIRE_A) == qkey_of(shuffled)

    def test_distinct_points_get_distinct_qkeys(self):
        assert qkey_of(WIRE_A) != qkey_of(WIRE_B)

    def test_label_mirrors_sweep_point(self):
        assert label_of(WIRE_A) == "sgemm-uc/io/traditional/xloops/tiny"


class TestEnqueueLease:
    def test_enqueue_dedups_pending(self, queue):
        _, created1 = queue.enqueue(WIRE_A)
        _, created2 = queue.enqueue(WIRE_A)
        assert created1 and not created2
        assert queue.counters["enqueued"] == 1
        assert queue.queued == 1

    def test_lease_batches_up_to_max(self, queue):
        for wire in (WIRE_A, WIRE_B, WIRE_C):
            queue.enqueue(wire)
        wid = _worker(queue)
        lease = queue.lease(wid, max_points=2)
        assert len(lease.qkeys) == 2
        assert queue.queued == 1
        # leased entries carry their requeue attempt for chaos keying
        for qkey in lease.qkeys:
            assert queue.entries[qkey].attempts == 0
            assert queue.entries[qkey].lease_id == lease.lease_id

    def test_lease_for_unknown_worker_is_refused(self, queue):
        queue.enqueue(WIRE_A)
        assert queue.lease(999) is None

    def test_empty_queue_leases_nothing(self, queue):
        assert queue.lease(_worker(queue)) is None


class TestCompletion:
    def test_first_writer_wins_and_duplicates_count(self, queue):
        queue.enqueue(WIRE_A)
        wid = _worker(queue)
        lease = queue.lease(wid)
        (qkey,) = lease.qkeys
        entry, credited = queue.complete(qkey)
        assert credited and entry is not None
        # the lease dissolved with its last point
        assert not queue.leases and not queue.workers[wid].leases
        # a late duplicate is discarded, counted, never re-credited
        entry2, credited2 = queue.complete(qkey)
        assert not credited2 and entry2 is None
        assert queue.counters["completed"] == 1
        assert queue.counters["duplicates"] == 1

    def test_worker_failure_quarantines_without_requeue(self, queue):
        queue.enqueue(WIRE_A)
        lease = queue.lease(_worker(queue))
        (qkey,) = lease.qkeys
        entry, failure = queue.fail(qkey, "crash", "boom", attempts=3)
        assert failure.kind == "crash" and failure.attempts == 3
        assert failure.label == label_of(WIRE_A)
        assert entry.failure is failure and qkey not in queue.entries
        assert queue.queued == 0            # no requeue for failures
        assert queue.counters["worker_failures"] == 1


class TestLeaseExpiry:
    def test_heartbeat_extends_the_deadline(self, queue, clock):
        queue.enqueue(WIRE_A)
        wid = _worker(queue)
        lease = queue.lease(wid)
        clock.advance(8.0)
        assert queue.heartbeat(wid, lease.lease_id)
        clock.advance(8.0)                  # 16s total, but extended
        assert queue.reclaim_expired() == []
        assert queue.entries[next(iter(lease.qkeys))].lease_id \
            == lease.lease_id

    def test_missed_heartbeat_requeues(self, queue, clock):
        queue.enqueue(WIRE_A)
        wid = _worker(queue)
        lease = queue.lease(wid)
        clock.advance(10.5)
        assert queue.reclaim_expired() == []   # budget not exhausted
        assert queue.counters["expired_leases"] == 1
        assert queue.counters["requeued"] == 1
        assert queue.queued == 1
        (qkey,) = lease.qkeys
        assert queue.entries[qkey].attempts == 1
        # the zombie's heartbeat is refused, but its eventual
        # completion would still be honoured (or deduped)
        assert not queue.heartbeat(wid, lease.lease_id)

    def test_requeue_budget_turns_killers_into_failures(self, queue,
                                                        clock):
        queue.enqueue(WIRE_A)
        wid = _worker(queue)
        for _ in range(queue.requeue_budget):      # burn the budget
            queue.lease(wid)
            clock.advance(10.5)
            assert queue.reclaim_expired() == []
        queue.lease(wid)
        clock.advance(10.5)
        exhausted = queue.reclaim_expired()
        assert len(exhausted) == 1
        failure = exhausted[0].failure
        assert failure.kind == "requeue-exhausted"
        assert failure.attempts == queue.requeue_budget + 1
        assert queue.counters["exhausted"] == 1
        assert queue.queued == 0
        assert failure.label == label_of(WIRE_A)
        assert qkey_of(WIRE_A) not in queue.entries

    def test_dropped_worker_requeues_immediately(self, queue):
        queue.enqueue(WIRE_A)
        queue.enqueue(WIRE_B)
        wid = _worker(queue)
        queue.lease(wid, max_points=2)
        assert queue.release_worker(wid) == []
        assert queue.counters["worker_losses"] == 1
        assert queue.counters["requeued"] == 2
        assert queue.queued == 2 and not queue.leases
        assert wid not in queue.workers

    def test_completion_races_expiry(self, queue, clock):
        """A slow worker's result lands after its lease expired and
        the point was requeued: the completion is still honoured
        (results are deterministic -- any writer's answer is THE
        answer) and the requeued copy becomes the duplicate."""
        queue.enqueue(WIRE_A)
        wid = _worker(queue)
        lease = queue.lease(wid)
        (qkey,) = lease.qkeys
        clock.advance(10.5)
        queue.reclaim_expired()             # requeued, pending again
        entry, credited = queue.complete(qkey)   # slow writer arrives
        assert credited
        # the requeued pending copy is skipped at the next lease
        assert queue.lease(wid) is None
        assert queue.counters["completed"] == 1

    def test_leased_to_names_every_worker_ever_leased(self, queue,
                                                      clock):
        """The server reads a worker's completion only for a point it
        was leased -- by a live lease, or one that expired under it."""
        queue.enqueue(WIRE_A)
        qkey = qkey_of(WIRE_A)
        slow, other = _worker(queue), _worker(queue)
        assert not queue.leased_to(qkey, slow)    # pending, never leased
        queue.lease(slow)
        assert queue.leased_to(qkey, slow)
        assert not queue.leased_to(qkey, other)
        clock.advance(10.5)
        queue.reclaim_expired()
        assert queue.leased_to(qkey, slow)        # expired, still its
        queue.lease(other)
        assert queue.leased_to(qkey, other)
        queue.complete(qkey)
        assert not queue.leased_to(qkey, slow)    # resolved


class TestIdle:
    def test_idle_accounts_for_workers_and_leases(self, queue, clock):
        assert queue.idle
        wid = _worker(queue)
        assert not queue.idle               # a connected worker
        queue.enqueue(WIRE_A)
        queue.lease(wid)
        assert not queue.idle               # an unexpired lease
        queue.complete(qkey_of(WIRE_A))
        assert not queue.idle               # still the worker
        queue.release_worker(wid)
        assert queue.idle


class TestJournal:
    def test_replay_resumes_pending_only(self, tmp_path):
        path = str(tmp_path / "queue.journal")
        q1 = WorkQueue(journal_path=path)
        q1.enqueue(WIRE_A)
        q1.enqueue(WIRE_B)
        q1.enqueue(WIRE_C)
        wid = q1.register_worker()
        q1.lease(wid, max_points=3)
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
        # and it is leasable immediately, attempts reset
        lease = q2.lease(q2.register_worker())
        assert lease.qkeys == {qkey_of(WIRE_C)}
        q2.close()

    def test_replay_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "queue.journal")
        q1 = WorkQueue(journal_path=path)
        q1.enqueue(WIRE_A)
        q1.enqueue(WIRE_B)
        q1.complete(qkey_of(WIRE_A))
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
        q2.complete(qkey_of(WIRE_A))
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
        assert q.complete(entry.qkey) == (entry, True)
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
        wid = q1.register_worker()
        q1.lease(wid)
        q1.fail(qkey_of(WIRE_A), "crash", "boom", attempts=2)
        # a fresh submission of a quarantined point re-enqueues it
        entry, created = q1.enqueue(WIRE_A)
        assert created and entry.attempts == 0
        pending, _completed, failed = Journal(path).replay()
        assert qkey_of(WIRE_A) in pending
        assert qkey_of(WIRE_A) not in failed
        q1.close()


def test_default_ttl_is_sane():
    assert 0 < DEFAULT_LEASE_TTL <= 300
