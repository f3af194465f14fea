"""Hardened point execution: watchdogs, retry, quarantine, resume.

The sweep executor hands its pending points to this module.  A
parallel sweep runs them on up to ``jobs`` persistent forked worker
processes, each fed one point at a time over a pipe until the sweep's
queue drains.  A worker keeps what it has built warm from one point to
the next -- the compiled kernels (``runner._compiled``), the generated
GPP block and LPSU code of :mod:`repro.sim.fusion` and the cache's
code fingerprint -- so a sweep pays for them once per worker, not once
per point.  Isolation stays per point:

* a worker holds only one point in flight, so a *crashed* worker (hard
  exit, OOM kill, corrupted interpreter) is attributable to exactly
  one point, and is detected from its exit sentinel instead of
  deadlocking the parent,
* a *hung* worker is killed at the point's wall-clock deadline
  without poisoning its siblings, and
* any failed attempt retires its worker -- an error reply, an exit or
  a watchdog kill alike -- and the next dispatch forks a fresh one, so
  a retry, and every later point, never runs in a process that saw a
  failure.

The scheduler blocks in :func:`multiprocessing.connection.wait` on the
workers' pipes and exit sentinels until the nearest kill deadline or
backoff expiry, and joins every worker when the sweep ends, also when
it ends in an exception.

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
The sweep server and ``repro worker`` run each point through
:func:`execute_one`: the same engine with a one-point pool, so every
point they simulate gets a fresh forked worker of its own.

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
import pickle
import time
from collections import deque
from dataclasses import dataclass

from ..resilience.watchdog import DeadlineExceeded, deadline
from ..sim.backends import resolve_backend
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
    """Append-only on-disk record of a sweep in progress.

    Maps point memo-keys to finished results (and quarantined points
    to their failure records) so an interrupted sweep resumes where it
    stopped.  Each completion appends one pickled
    ``(kind, key, value)`` frame to a file opened once, so recording a
    point costs the same however many came before it.  Loading reads
    frames until EOF and drops only a torn or corrupt tail (a crash
    mid-append), which the next append cuts off.  A checkpoint written
    by older versions -- one pickled ``{"completed", "failed"}``
    snapshot -- still loads, and an unreadable file is treated as
    absent, never as an error.
    """

    def __init__(self, path):
        self.path = str(path)
        self.completed = {}   # memo_key -> (result, wall)
        self.failed = {}      # memo_key -> PointFailure
        self._fh = None
        self._good = self._load()   # bytes of readable frames

    def _load(self):
        """Apply every readable frame; returns the length of the file
        prefix they span."""
        tables = {"completed": self.completed, "failed": self.failed}
        good = 0
        try:
            with open(self.path, "rb") as fh:
                while True:
                    frame = pickle.load(fh)
                    if isinstance(frame, dict):   # older snapshot
                        self.completed.update(frame.get("completed", {}))
                        self.failed.update(frame.get("failed", {}))
                    else:
                        kind, key, value = frame
                        tables[kind][key] = value
                    good = fh.tell()
        except Exception:  # noqa: BLE001 - no file, EOF, or a bad tail,
            pass           # whose unpickling can raise almost anything
        return good

    def _append(self, frame):
        """Append one frame, opening the file (and cutting off any
        unreadable tail) on first use; checkpointing must never fail
        the sweep."""
        blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            if self._fh is None:
                self._fh = open(self.path, "ab")
                self._fh.truncate(self._good)
            self._fh.write(blob)
            self._fh.flush()
            self._good += len(blob)
        except OSError:
            self.close()   # reopened, and re-cut, by the next append

    def record_result(self, key, result, wall):
        self.completed[key] = (result, wall)
        self._append(("completed", key, (result, wall)))

    def record_failure(self, key, failure):
        self.failed[key] = failure
        self._append(("failed", key, failure))

    def close(self):
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(conn, inherited):
    """Persistent worker entry: run the ``(point, attempt, backend)``
    tasks arriving on *conn* one at a time, replying with each
    outcome, until a ``None`` task or EOF.  The first failure is
    reported and then ends the process, so no later point runs where
    one failed.  *inherited* are parent-side pipe ends this fork
    copied; closing them lets each worker see EOF when the parent
    dies."""
    for other in inherited:
        other.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        point, attempt, backend = task
        try:
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


def execute_one(point, policy):
    """Run one point under the full hardened ladder -- a one-point
    pool of the parallel engine, so a forked worker of its own, with
    the wall-clock watchdog, retry with backoff in a fresh worker, and
    quarantine on exhaustion -- and return a :class:`OneOutcome`.

    This is the executor of the sweep server and ``repro worker``:
    each cache miss goes through exactly the isolation a parallel
    sweep gives it, one point at a time (the caller bounds concurrency
    itself).  The finished result
    is seeded into the runner memo, so subsequent submissions of the
    same point are cache-served.  Never raises: an engine-level
    surprise becomes a quarantine record like any other failure."""
    from .parallel import SweepSummary
    summary = SweepSummary(jobs=1)
    try:
        _run_parallel([point], 1, policy, summary, None)
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
        key = pt.memo_key()
        if ckpt is not None and key in ckpt.completed:
            result, wall = ckpt.completed[key]
            runner.seed_result(key, result)
            summary.outcomes.append(PointOutcome(pt, wall, False))
        elif ckpt is not None and key in ckpt.failed:
            summary.failures.append(ckpt.failed[key])
        else:
            pending.append(pt)

    try:
        if jobs <= 1 or len(pending) <= 1:
            _run_serial(pending, policy, summary, ckpt)
        else:
            _run_parallel(pending, jobs, policy, summary, ckpt)
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
                    ckpt.record_failure(key, failure)
                break
            else:
                runner.seed_result(key, result)
                summary.outcomes.append(PointOutcome(
                    pt, wall, runner.simulations > before))
                if ckpt is not None:
                    ckpt.record_result(key, result, wall)
                break


def _run_parallel(points, jobs, policy, summary, ckpt):
    """Run *points* on up to *jobs* persistent forked workers, one
    point in flight per worker."""
    from multiprocessing.connection import wait

    from .parallel import PointOutcome

    # resolve the default rung before forking, so every worker inherits
    # its lazy imports (numpy, for vector) instead of paying them anew
    resolve_backend(runner.default_backend())
    ctx = _mp_context()
    #: (point, attempt, not_before) - a retry waits out its backoff
    queue = deque((pt, 0, 0.0) for pt in points)
    workers = []
    degraded = False

    def fail(point, attempt, kind, error):
        label = point.label()
        if attempt + 1 < policy.retries:
            delay = policy.backoff * (2 ** attempt)
            summary.retries.append(
                RetryEvent(label, attempt, kind, error, delay))
            queue.append((point, attempt + 1,
                          time.monotonic() + delay))
        else:
            failure = PointFailure(label, attempt + 1, kind, error)
            summary.failures.append(failure)
            if ckpt is not None:
                ckpt.record_failure(point.memo_key(), failure)

    def finish(point, result, wall, simulated, incidents):
        runner.seed_result(point.memo_key(), result)
        summary.outcomes.append(PointOutcome(point, wall, simulated))
        summary.incidents.extend(incidents)
        if ckpt is not None:
            ckpt.record_result(point.memo_key(), result, wall)

    def spawn():
        parent_conn = child_conn = None
        try:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(
                child_conn, [parent_conn] + [w.conn for w in workers]))
            proc.start()
        except OSError:
            for conn in (parent_conn, child_conn):
                if conn is not None:
                    conn.close()
            raise
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        workers.append(worker)
        return worker

    def retire(worker, grace=2.0):
        workers.remove(worker)
        worker.stop(grace)

    try:
        while True:
            # dispatch the entries past their backoff: a fresh fork
            # while under the bound (so a retired worker's slot is
            # refilled), else an idle worker
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
                        worker = spawn()
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
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in workers:
            worker.stop(0 if worker.task is not None else 2.0)

    if degraded:
        _run_serial([q[0] for q in queue], policy, summary, ckpt)
