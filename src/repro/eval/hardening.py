"""Hardened point execution: watchdogs, retry, quarantine, resume.

Every point that needs a process of its own runs on a
:class:`WorkerPool` of persistent forked workers, each fed one point
at a time over a pipe.  A parallel sweep holds a pool until its queue
drains; the sweep server and ``repro worker`` each hold one for their
lifetime and run every miss through :func:`execute_one` on it.  A
worker keeps what it has built warm from one point to the next -- the
compiled kernel (``runner._compiled``), the generated GPP block and
LPSU code of :mod:`repro.sim.fusion` and the cache's code fingerprint
-- so repeated points of a kernel pay for them once per worker, not
once per point.  It keeps *one* kernel warm: before a point of another
kernel it drops the previous kernel's state, which bounds a
long-lived worker's memory.  Isolation stays per point:

* a worker holds only one point in flight, so a *crashed* worker (hard
  exit, OOM kill, corrupted interpreter) is attributable to exactly
  one point, and is detected from its exit sentinel instead of
  deadlocking the parent,
* a *hung* worker is killed at the point's wall-clock deadline
  without poisoning its siblings, and
* any failed attempt retires its worker -- an error reply, an exit or
  a watchdog kill alike -- so a retry, and every later point, never
  runs in a process that saw a failure.

A forked worker's first act is to give up every socket it inherited
(listening sockets, client connections, other workers' pipe ends), so
a peer the parent hangs up on sees EOF at once and a worker sees EOF
on its own pipe when the parent dies.

The scheduler blocks in :func:`multiprocessing.connection.wait` on its
workers' pipes and exit sentinels until the nearest kill deadline or
backoff expiry.  Closing a pool joins every worker; a point in flight
when its pool closes fails.

Failures are retried with exponential backoff up to a bounded attempt
count; the final attempt runs on the ``interp`` reference rung (the
most likely software cause of a crash is a faster rung itself).  Its
result is cached under the same key as any other rung's, so a warm
re-sweep serves it.
A point that exhausts its attempts is *quarantined*: the sweep
completes without it and the summary carries a structured
:class:`PointFailure` record instead of the whole run aborting.

When worker processes cannot be created at all the engine degrades to
serial in-process execution (recorded as an incident), which is also
the ``jobs <= 1`` path.  Long sweeps can checkpoint completed points
to disk (:class:`SweepCheckpoint`) and resume after an interruption.

Deterministic failure injection for tests and drills: set
``$REPRO_CHAOS`` to a JSON object mapping a point-label substring to
the attempts to sabotage, e.g.::

    {"sgemm-uc/io/": {"crash": [0]}, "dither-or": {"hang": [0, 1]}}

Chaos is consulted *only inside worker children* (never in the parent
or the serial path), so it exercises exactly the crash/hang recovery
machinery.

The distributed serve tier (:mod:`repro.serve.worker`) reads the same
plan for three additional modes keyed by the *server-assigned requeue
attempt* rather than the in-process retry attempt: ``kill_worker``
(the worker process dies before touching the point), ``hang_worker``
(the worker wedges -- heartbeats stop, the lease expires) and
``sever`` (the worker's socket is cut mid-frame).  All three strike
*before* the point simulates, so the requeued attempt is the first
and only simulation -- the accounting invariant the chaos acceptance
test pins down.
"""

from __future__ import annotations

import json
import os
import stat
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass

from ..resilience.journal import Journal, pack_record, qkey_of, \
    unpack_record
from ..resilience.watchdog import DeadlineExceeded, deadline
from ..sim import fusion
from . import runner

#: env var holding the JSON chaos plan (worker-side fault injection)
CHAOS_ENV = "REPRO_CHAOS"

#: exit code a chaos-crashed worker dies with
CHAOS_EXIT = 13


@dataclass
class HardeningPolicy:
    """Knobs for the hardened engine (defaults are production-safe)."""

    timeout: float = 0.0      # per-point wall-clock bound, 0 = none
    retries: int = 3          # max attempts per point
    backoff: float = 0.25     # base backoff (doubles per attempt)
    checkpoint: str = ""      # checkpoint file path, "" = disabled


@dataclass
class RetryEvent:
    """One failed attempt that will be retried."""

    label: str
    attempt: int     # the attempt that failed (0-based)
    kind: str        # "crash" | "hang" | "error"
    error: str
    backoff: float   # seconds until the next attempt is eligible


@dataclass
class PointFailure:
    """A quarantined point: every attempt failed."""

    label: str
    attempts: int
    kind: str        # classification of the *last* failure
    error: str

    def line(self, qkey):
        """This failure as a journal ``fail`` line."""
        return dict(op="fail", qkey=qkey, **asdict(self))

    @classmethod
    def from_line(cls, rec):
        """Inverse of :meth:`line`, tolerant of missing fields."""
        return cls(str(rec.get("label", rec["qkey"])),
                   int(rec.get("attempts", 0)),
                   str(rec.get("kind", "error")), str(rec.get("error", "")))


# ---------------------------------------------------------------------------
# chaos (worker-side deterministic failure injection)
# ---------------------------------------------------------------------------


def chaos_plan():
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return {}
    try:
        plan = json.loads(raw)
    except ValueError:
        return {}
    return plan if isinstance(plan, dict) else {}


def chaos_modes(label):
    """Every chaos mode whose pattern matches *label*, merged into one
    ``{mode: [attempts]}`` map -- the shared lookup for the in-process
    ladder here and the distributed worker's fault injection."""
    merged = {}
    for pattern, modes in chaos_plan().items():
        if pattern in label and isinstance(modes, dict):
            for mode, attempts in modes.items():
                merged.setdefault(mode, []).extend(attempts or ())
    return merged


def _apply_chaos(label, attempt):
    """Sabotage this attempt if the plan says so.  Only ever acts
    inside a worker child: the parent and the serial path must stay
    healthy so recovery itself can be tested."""
    import multiprocessing
    if multiprocessing.parent_process() is None:
        return
    modes = chaos_modes(label)
    if attempt in modes.get("crash", ()):
        os._exit(CHAOS_EXIT)
    if attempt in modes.get("hang", ()):
        time.sleep(3600)


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


class SweepCheckpoint:
    """A resumable sweep's finished points in a
    :class:`~repro.resilience.journal.Journal`, keyed on each point's
    wire image (so named configurations only): a ``complete`` line
    carries the result and wall time, a ``fail`` line the failure.
    An unreadable line or file (a torn tail, the pickle frames of
    older versions) is ignored, and a failed append dropped."""

    def __init__(self, path):
        self.journal = Journal(path)
        self.completed = {}   # qkey -> (result, wall)
        self.failed = {}      # qkey -> PointFailure
        for rec in self.journal.records():
            try:
                if rec.get("op") == "complete":
                    self.completed[rec["qkey"]] = (
                        unpack_record(rec["record"]), float(rec["wall"]))
                elif rec.get("op") == "fail":
                    self.failed[rec["qkey"]] = PointFailure.from_line(rec)
            except Exception:  # noqa: BLE001 - a damaged record, whose
                continue       # unpickling can raise almost anything

    def record_result(self, point, result, wall):
        self.journal.append({"op": "complete",
                             "qkey": qkey_of(point.to_wire()),
                             "record": pack_record(result), "wall": wall})

    def record_failure(self, point, failure):
        self.journal.append(failure.line(qkey_of(point.to_wire())))

    def close(self):
        self.journal.close()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _release_inherited_sockets(keep):
    """Point every socket fd this fork inherited, except *keep*, at
    ``/dev/null``.  A copy of the parent's listening socket, of its
    client connections or of another worker's pipe end would keep
    that socket open for as long as this worker lives: a client the
    parent hangs up on would see no EOF, and no worker would see EOF
    on its pipe when the parent dies.  ``dup2`` rather than
    ``close``, so the fd number stays taken and a finalizer that
    closes it later cannot close a reused fd; never ``shutdown``,
    which would cut the parent's connection too.  Pipes and files
    stay open."""
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") \
        else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd, inheritable=False)
            except OSError:
                pass    # the listing's own fd, closed since
    finally:
        os.close(devnull)


def _keep_warm(kernel, warm):
    """The one-warm-kernel rule: before a point of another *kernel*
    than the *warm* one, drop what that kernel left behind -- its
    compiled binaries, the result memo, and the generated GPP block
    and LPSU code -- so a long-lived worker holds one kernel's state,
    not that of every kernel it has met.  Returns the kernel now
    warm."""
    if warm is not None and kernel != warm:
        runner.clear_cache(keep_disk=True)
        fusion.clear()
    return kernel


def _worker_main(conn):
    """Persistent worker entry: run the ``(point, attempt, backend)``
    tasks arriving on *conn* one at a time, replying with each
    outcome, until a ``None`` task or EOF.  The first failure is
    reported and then ends the process, so no later point runs where
    one failed."""
    _release_inherited_sockets(conn.fileno())
    warm = None
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        point, attempt, backend = task
        try:
            warm = _keep_warm(point.kernel, warm)
            _apply_chaos(point.label(), attempt)
            t0 = time.perf_counter()
            before = runner.simulations
            result = runner.run(point.kernel, point.config,
                                backend=backend, **point.run_kwargs())
            wall = time.perf_counter() - t0
            conn.send(("ok", result, wall, runner.simulations > before,
                       runner.drain_incidents()))
        except BaseException as exc:  # noqa: BLE001 - full report, then die
            try:
                conn.send(("error", "%s: %s" % (type(exc).__name__, exc)))
            except Exception:
                pass
            conn.close()
            os._exit(1)
    conn.close()


def _mp_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context("spawn")


class _Worker:
    """One persistent worker process, its pipe, and its point."""

    __slots__ = ("proc", "conn", "task", "kill_at")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task = None      # (point, attempt) in flight, None = idle
        self.kill_at = 0.0    # monotonic watchdog deadline, 0 = none

    def stop(self, grace):
        """Close the pipe and reap the process, terminating (then
        killing) it if it has not exited within *grace* seconds."""
        self.conn.close()
        self.proc.join(grace)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(2)
        if self.proc.is_alive():  # pragma: no cover - stubborn child
            self.proc.kill()
            self.proc.join(2)


class PoolClosed(RuntimeError):
    """A worker was asked of a closed :class:`WorkerPool`."""


class WorkerPool:
    """The forked workers that points needing a process run on.

    A sweep holds one for its parallel part; the sweep server and
    ``repro worker`` hold one each for their lifetime.  A caller holds
    a worker for one point at a time and bounds its own concurrency,
    so the pool forks lazily, and never more workers than its callers
    have held at once plus one per failed attempt.
    :meth:`acquire` hands out an idle worker or forks one,
    :meth:`release` takes a healthy one back and :meth:`retire` reaps
    one whose attempt failed.  Thread-safe: the server's executor
    threads share one pool.

    :meth:`close` returns once every worker is joined: idle workers
    are told to exit and busy ones are killed, which fails the point
    each holds; their holders reap them.  A closed pool refuses
    :meth:`acquire` with :class:`PoolClosed`.
    """

    def __init__(self):
        self.spawned = 0      # worker processes forked so far
        self.closed = False
        self._idle = []
        self._busy = set()
        self._cond = threading.Condition()

    @property
    def live(self):
        """Worker processes alive now, idle or holding a point."""
        with self._cond:
            return len(self._idle) + len(self._busy)

    def acquire(self):
        """An idle worker, or a freshly forked one when none is idle;
        raises :class:`PoolClosed`, or ``OSError`` when the fork
        fails."""
        with self._cond:
            if self.closed:
                raise PoolClosed("worker pool closed")
            while self._idle:
                worker = self._idle.pop()
                if worker.proc.is_alive():
                    break
                worker.stop(0)     # died while idle: reap it
            else:
                worker = self._fork()
            self._busy.add(worker)
            return worker

    def _fork(self):
        # resolve the default rung before forking: a bad
        # $REPRO_BACKEND fails here, once, and every worker inherits
        # the choice
        runner.default_backend()
        ctx = _mp_context()
        parent_conn = child_conn = None
        try:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child_conn,))
            proc.start()
        except OSError:
            for conn in (parent_conn, child_conn):
                if conn is not None:
                    conn.close()
            raise
        child_conn.close()
        self.spawned += 1
        return _Worker(proc, parent_conn)

    def release(self, worker):
        """Take back a healthy idle *worker*; reaped instead when the
        pool closed meanwhile."""
        with self._cond:
            if not self.closed:
                self._busy.discard(worker)
                self._idle.append(worker)
                return
        self.retire(worker, 0)

    def retire(self, worker, grace=2.0):
        """Reap *worker* (see :meth:`_Worker.stop`) and forget it."""
        worker.stop(grace)
        with self._cond:
            self._busy.discard(worker)
            self._cond.notify_all()

    def close(self):
        """Join every worker (see the class docstring); idempotent."""
        with self._cond:
            self.closed = True
            idle, self._idle = self._idle, []
            for worker in self._busy:
                worker.proc.kill()
        for worker in idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in idle:
            worker.stop(2.0)
        with self._cond:
            self._cond.wait_for(lambda: not self._busy, timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class OneOutcome:
    """What hardened execution of a single point produced."""

    result: object           # KernelRun, or None when quarantined
    failure: object          # PointFailure, or None on success
    wall: float              # last attempt's wall time (seconds)
    simulated: bool          # False -> a cache served it after all
    retries: int = 0         # failed attempts that were retried


def execute_one(point, policy, pool):
    """Run one point under the full hardened ladder on a worker of
    *pool* -- the wall-clock watchdog, retry with backoff in a worker
    that saw no failure, the ``interp`` final retry, and quarantine on
    exhaustion -- and return a :class:`OneOutcome`.

    This is the executor of the sweep server and ``repro worker``:
    each cache miss goes through exactly the isolation a parallel
    sweep gives it, one point at a time (the caller bounds concurrency
    itself).  The finished result is seeded into the runner memo, so
    subsequent submissions of the same point are cache-served.  Never
    raises: an engine-level surprise becomes a quarantine record like
    any other failure."""
    from .parallel import SweepSummary
    summary = SweepSummary(jobs=1)
    try:
        _run_parallel([point], 1, policy, summary, None, pool)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - report, don't kill the server
        return OneOutcome(None, PointFailure(
            point.label(), 0, "error",
            "engine: %s: %s" % (type(exc).__name__, exc)),
            0.0, False, len(summary.retries))
    if summary.failures:
        return OneOutcome(None, summary.failures[0], 0.0, False,
                          len(summary.retries))
    if not summary.outcomes:   # pragma: no cover - engine invariant
        return OneOutcome(None, PointFailure(
            point.label(), 0, "error", "engine produced no outcome"),
            0.0, False, len(summary.retries))
    out = summary.outcomes[0]
    result = runner._RESULTS.get(point.memo_key())
    return OneOutcome(result, None, out.wall_time, out.simulated,
                      len(summary.retries))


def execute_points(points, jobs, policy, summary):
    """Run *points* under *policy*, appending outcomes, retries,
    failures and incidents to *summary* and seeding the runner memo
    with every finished result."""
    from .parallel import PointOutcome

    ckpt = SweepCheckpoint(policy.checkpoint) if policy.checkpoint \
        else None
    pending = []
    for pt in points:
        # to_wire() refuses an ad-hoc configuration before any point runs
        key = qkey_of(pt.to_wire()) if ckpt is not None else None
        if key is not None and key in ckpt.completed:
            result, wall = ckpt.completed[key]
            runner.seed_result(pt.memo_key(), result)
            summary.outcomes.append(PointOutcome(pt, wall, False))
        elif key is not None and key in ckpt.failed:
            summary.failures.append(ckpt.failed[key])
        else:
            pending.append(pt)

    try:
        if jobs <= 1 or len(pending) <= 1:
            _run_serial(pending, policy, summary, ckpt)
        else:
            with WorkerPool() as pool:
                _run_parallel(pending, jobs, policy, summary, ckpt, pool)
    finally:
        if ckpt is not None:
            ckpt.close()
    summary.incidents.extend(runner.drain_incidents())


def _attempt_backend(policy, attempt):
    """The rung for this attempt number: the final retry of several
    runs on ``interp``, the others on the process default."""
    return "interp" if 0 < attempt == policy.retries - 1 else None


def _run_serial(points, policy, summary, ckpt):
    """In-process execution with the same retry/quarantine ladder.
    The wall-clock bound uses the SIGALRM watchdog where available
    (there is no process to kill)."""
    from .parallel import PointOutcome

    for pt in points:
        key, label = pt.memo_key(), pt.label()
        for attempt in range(policy.retries):
            try:
                t0 = time.perf_counter()
                before = runner.simulations
                with deadline(policy.timeout):
                    result = runner.run(
                        pt.kernel, pt.config,
                        backend=_attempt_backend(policy, attempt),
                        **pt.run_kwargs())
                wall = time.perf_counter() - t0
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001
                kind = "hang" if isinstance(exc, DeadlineExceeded) \
                    else "error"
                error = "%s: %s" % (type(exc).__name__, exc)
                if attempt + 1 < policy.retries:
                    delay = policy.backoff * (2 ** attempt)
                    summary.retries.append(
                        RetryEvent(label, attempt, kind, error, delay))
                    time.sleep(delay)
                    continue
                failure = PointFailure(label, attempt + 1, kind, error)
                summary.failures.append(failure)
                if ckpt is not None:
                    ckpt.record_failure(pt, failure)
                break
            else:
                runner.seed_result(key, result)
                summary.outcomes.append(PointOutcome(
                    pt, wall, runner.simulations > before))
                if ckpt is not None:
                    ckpt.record_result(pt, result, wall)
                break


def _run_parallel(points, jobs, policy, summary, ckpt, pool):
    """Run *points* on up to *jobs* workers of *pool*, one point in
    flight per worker."""
    from multiprocessing.connection import wait

    from .parallel import PointOutcome

    #: (point, attempt, not_before) - a retry waits out its backoff
    queue = deque((pt, 0, 0.0) for pt in points)
    workers = []     # the pool's workers this run holds
    degraded = False

    def quarantine(point, attempts, kind, error):
        failure = PointFailure(point.label(), attempts, kind, error)
        summary.failures.append(failure)
        if ckpt is not None:
            ckpt.record_failure(point, failure)

    def fail(point, attempt, kind, error):
        if pool.closed:
            # the pool's owner is shutting down: no retry, and never
            # a fallback to simulating in the owner's process
            quarantine(point, attempt + 1, "error", "worker pool closed")
        elif attempt + 1 < policy.retries:
            delay = policy.backoff * (2 ** attempt)
            summary.retries.append(
                RetryEvent(point.label(), attempt, kind, error, delay))
            queue.append((point, attempt + 1,
                          time.monotonic() + delay))
        else:
            quarantine(point, attempt + 1, kind, error)

    def finish(point, result, wall, simulated, incidents):
        runner.seed_result(point.memo_key(), result)
        summary.outcomes.append(PointOutcome(point, wall, simulated))
        summary.incidents.extend(incidents)
        if ckpt is not None:
            ckpt.record_result(point, result, wall)

    def retire(worker, grace=2.0):
        workers.remove(worker)
        pool.retire(worker, grace)

    try:
        while True:
            # dispatch the entries past their backoff: a worker from
            # the pool while under the bound (so a retired worker's
            # slot is refilled), else an idle one this run holds
            now = time.monotonic()
            for _ in range(len(queue) if not degraded else 0):
                idle = [w for w in workers if w.task is None]
                if not idle and len(workers) >= jobs:
                    break
                pt, attempt, not_before = queue.popleft()
                if now < not_before:
                    queue.append((pt, attempt, not_before))
                    continue
                if len(workers) < jobs:
                    try:
                        worker = pool.acquire()
                    except PoolClosed as exc:
                        quarantine(pt, attempt, "error", str(exc))
                        continue
                    except OSError as exc:
                        # cannot create workers at all: let the ones
                        # in flight finish, then run the rest serially
                        degraded = summary.degraded = True
                        summary.incidents.append(runner.Incident(
                            kind="parallel-to-serial",
                            context=pt.label(),
                            detail="worker spawn failed: %s" % exc))
                        queue.appendleft((pt, attempt, 0.0))
                        break
                    workers.append(worker)
                else:
                    worker = idle[0]
                try:
                    worker.conn.send(
                        (pt, attempt, _attempt_backend(policy, attempt)))
                except OSError:
                    pass   # a dead worker shows on its sentinel below
                worker.task = (pt, attempt)
                worker.kill_at = (now + policy.timeout
                                  if policy.timeout else 0.0)

            busy = [w for w in workers if w.task is not None]
            if not busy and (degraded or not queue):
                break
            # sleep until a worker replies or exits, or until the
            # nearest kill deadline or backoff expiry
            deadlines = [w.kill_at for w in busy if w.kill_at]
            if not degraded:
                deadlines += [nb for _pt, _a, nb in queue if nb > now]
            timeout = (max(0.0, min(deadlines) - time.monotonic())
                       if deadlines else None)
            ready = set(wait([w.conn for w in busy]
                             + [w.proc.sentinel for w in workers],
                             timeout))

            now = time.monotonic()
            for worker in list(workers):
                if worker.conn in ready or worker.proc.sentinel in ready:
                    reply = None
                    try:
                        if worker.conn.poll():
                            reply = worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                    if worker.task is None:   # an idle worker died
                        retire(worker)
                        continue
                    pt, attempt = worker.task
                    worker.task, worker.kill_at = None, 0.0
                    if reply is not None and reply[0] == "ok":
                        finish(pt, *reply[1:])
                        continue
                    retire(worker)
                    if reply is not None:
                        fail(pt, attempt, "error", reply[1])
                    else:
                        fail(pt, attempt, "crash",
                             "worker exited with code %s"
                             % worker.proc.exitcode)
                elif worker.kill_at and now > worker.kill_at:
                    pt, attempt = worker.task
                    retire(worker, grace=0)
                    fail(pt, attempt, "hang",
                         "killed after %.3gs wall-clock" % policy.timeout)
    finally:
        for worker in workers:
            if worker.task is None:
                pool.release(worker)
            else:
                pool.retire(worker, 0)

    if degraded:
        _run_serial([q[0] for q in queue], policy, summary, ckpt)
