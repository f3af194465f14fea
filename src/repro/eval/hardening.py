"""Hardened point execution: watchdogs, retry, quarantine.

Every point that needs a process of its own runs on a
:class:`WorkerPool` of persistent forked workers, each fed one task at
a time over a pipe.  A task is one *unit* of :func:`_host_groups`: a
lone point, or a host group -- points that differ only in a GPP host
they can share, timed in one :func:`runner.run_group` pass
(:func:`_run_unit`).  The serial path runs the same units through the
same helper, so the two cannot drift apart.  A parallel sweep holds a
pool until its queue drains; the sweep server holds one for its
lifetime and runs every miss through :func:`execute_one` on it, one
point per task.  A worker keeps what it builds for its life -- the
compiled binaries (``runner._compiled``), each program's decoded and
fused tables, the generated GPP block and LPSU code of
:mod:`repro.sim.fusion` and the cache's code fingerprint -- so it
compiles each binary and generates each table and engine once,
however often it returns to a kernel.  The kernel registry bounds all
of it.  Results it does not keep: it drops each point's memo entry
once it has replied, since its parent holds the record, so what a
long-lived worker holds grows with the registry, not with its
traffic.  Isolation stays per task:

* a worker holds only one task in flight, so a *crashed* worker (hard
  exit, OOM kill, corrupted interpreter) is attributable to exactly
  one task, and is detected from its exit sentinel instead of
  deadlocking the parent,
* a *hung* worker is killed at the task's wall-clock deadline, the
  per-point timeout times its points, without poisoning its siblings,
* any failed attempt retires its worker -- an error reply, an exit or
  a watchdog kill alike -- so a retry, and every later task, never
  runs in a process that saw a failure, and
* a failed host group is split: one ``group-to-points`` incident, and
  each of its points goes back on the queue alone at the same attempt
  number, so the per-point ladder below decides which point was at
  fault (:func:`_after_failure`).

A forked worker's first act is to give up every socket it inherited
(listening sockets, client connections, other workers' pipe ends), so
a peer the parent hangs up on sees EOF at once and a worker sees EOF
on its own pipe when the parent dies.

The scheduler blocks in :func:`multiprocessing.connection.wait` on its
workers' pipes and exit sentinels until the nearest kill deadline or
backoff expiry.  Closing a pool joins every worker; a task in flight
when its pool closes fails.

Failures of a lone point are retried with exponential backoff up to a
bounded attempt count; the final attempt runs on the ``interp``
reference rung (the most likely software cause of a crash is a faster
rung itself).  Its result is cached under the same key as any other
rung's, so a warm re-sweep serves it.
A point that exhausts its attempts is *quarantined*: the sweep
completes without it and the summary carries a structured
:class:`PointFailure` record instead of the whole run aborting.

When worker processes cannot be created at all a sweep degrades to
serial in-process execution (recorded as an incident), which is also
the ``jobs <= 1`` path.  The server's :func:`execute_one` never does:
a miss that finds no worker fails with the spawn error, since the
server's threads can arm no watchdog and must not simulate in the
server's process.  An interrupted sweep resumes from the disk
cache, where every finished point's record already is: run again, it
serves those points and simulates only the rest, quarantined points
included.

Deterministic failure injection for tests and drills: set
``$REPRO_CHAOS`` to a JSON object mapping a point-label substring to
the attempts to sabotage, e.g.::

    {"sgemm-uc/io/": {"crash": [0]}, "dither-or": {"hang": [0, 1]}}

Chaos is consulted *only inside worker children* (never in the parent
or the serial path), so it exercises exactly the crash/hang recovery
machinery.  A task consults it for each of its points before running
any, so a group task fails whenever one of its points would.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from ..resilience.watchdog import DeadlineExceeded, deadline
from ..uarch.system import host_shared
from . import runner

#: env var holding the JSON chaos plan (worker-side fault injection)
CHAOS_ENV = "REPRO_CHAOS"

#: exit code a chaos-crashed worker dies with
CHAOS_EXIT = 13


@dataclass
class HardeningPolicy:
    """Knobs for the hardened engine (defaults are production-safe),
    clamped on construction: *timeout* to a float >= 0 (None is 0),
    *retries* to at least 1 and *backoff* to >= 0."""

    timeout: float = 0.0      # per-point wall-clock bound, 0 = none
    retries: int = 3          # max attempts per point
    backoff: float = 0.25     # base backoff (doubles per attempt)

    def __post_init__(self):
        self.timeout = max(0.0, float(self.timeout or 0.0))
        self.retries = max(1, int(self.retries))
        self.backoff = max(0.0, float(self.backoff))


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
    ``{mode: [attempts]}`` map."""
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


def _worker_main(conn):
    """Persistent worker entry: run the ``(unit, attempt, backend)``
    tasks arriving on *conn* one at a time (:func:`_run_unit`),
    replying ``("ok", [(result, wall, simulated)] per point,
    incidents)``, until a ``None`` task or EOF.  The compiled binaries
    and generated code stay for the next task; the points' memo
    entries go once the reply is sent.  The first failure is reported
    and then ends the process, so no later task runs where one
    failed."""
    _release_inherited_sockets(conn.fileno())
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        unit, attempt, backend = task
        try:
            for pt in unit:
                _apply_chaos(pt.label(), attempt)
            conn.send(("ok", _run_unit(unit, backend),
                       runner.drain_incidents()))
            for pt in unit:
                runner._RESULTS.pop(pt.memo_key(), None)
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
    """One persistent worker process, its pipe, and its task."""

    __slots__ = ("proc", "conn", "task", "kill_at")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task = None      # (unit, attempt) in flight, None = idle
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

    A sweep holds one for its parallel part; the sweep server holds
    one for its lifetime.  A caller holds
    a worker for one task at a time and bounds its own concurrency,
    so the pool forks lazily, and never more workers than its callers
    have held at once plus one per failed attempt.
    :meth:`acquire` hands out an idle worker or forks one,
    :meth:`release` takes a healthy one back and :meth:`retire` reaps
    one whose attempt failed.  Thread-safe: the server's executor
    threads share one pool.

    :meth:`close` returns once every worker is joined: idle workers
    are told to exit and busy ones are killed, which fails the task
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
        """Worker processes alive now, idle or holding a task."""
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
    incidents: list = field(default_factory=list)   # runner.Incident


def execute_one(point, policy, pool):
    """Run one point under the full hardened ladder on a worker of
    *pool* -- the wall-clock watchdog, retry with backoff in a worker
    that saw no failure, the ``interp`` final retry, and quarantine on
    exhaustion -- and return a :class:`OneOutcome`, with the
    incidents its attempts recorded.

    The sweep server runs each cache miss through it: the miss gets
    exactly the isolation a parallel sweep gives it, one point at a
    time (the caller bounds concurrency itself).  The finished result
    is seeded into the runner memo, so subsequent submissions of the
    same point are cache-served.  A point that finds no worker because
    the fork failed fails with the spawn error: it never runs in the
    caller's process.  Never raises: an engine-level surprise becomes
    a quarantine record like any other failure."""
    from .parallel import SweepSummary
    summary = SweepSummary(jobs=1)

    def failed(failure):
        return OneOutcome(None, failure, 0.0, False,
                          len(summary.retries), summary.incidents)

    try:
        unplaced = _run_parallel([point], 1, policy, summary, pool)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - report, don't kill the server
        return failed(PointFailure(
            point.label(), 0, "error",
            "engine: %s: %s" % (type(exc).__name__, exc)))
    if unplaced:   # its spawn error is the last incident
        summary.failures.append(PointFailure(
            point.label(), len(summary.retries), "error",
            summary.incidents[-1].detail))
    if summary.failures:
        return failed(summary.failures[0])
    if not summary.outcomes:   # pragma: no cover - engine invariant
        return failed(PointFailure(
            point.label(), 0, "error", "engine produced no outcome"))
    out = summary.outcomes[0]
    result = runner._RESULTS.get(point.memo_key())
    return OneOutcome(result, None, out.wall_time, out.simulated,
                      len(summary.retries), summary.incidents)


def execute_points(points, jobs, policy, summary):
    """Run *points* under *policy*, appending outcomes, retries,
    failures and incidents to *summary* and seeding the runner memo
    with every finished result."""
    if jobs > 1 and len(points) > 1:
        with WorkerPool() as pool:
            points = _run_parallel(points, jobs, policy, summary, pool)
    _run_serial(points, policy, summary)
    summary.incidents.extend(runner.drain_incidents())


def _attempt_backend(policy, attempt):
    """The rung for this attempt number: the final retry of several
    runs on ``interp``, the others on the process default."""
    return "interp" if 0 < attempt == policy.retries - 1 else None


def _run_serial(points, policy, summary):
    """In-process execution of *points*' units (:func:`_host_groups`)
    with the same helper (:func:`_run_unit`) and the same
    split/retry/quarantine ladder (:func:`_after_failure`) as the
    workers.  A unit's wall-clock bound, its points' summed timeout,
    uses the SIGALRM watchdog where available (there is no process to
    kill); a retry sleeps out its backoff."""
    queue = deque((unit, 0, 0.0) for unit in _host_groups(points))
    while queue:
        unit, attempt, not_before = queue.popleft()
        wait = not_before - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        try:
            with deadline(policy.timeout * len(unit)):
                outs = _run_unit(unit, _attempt_backend(policy, attempt))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001
            kind = "hang" if isinstance(exc, DeadlineExceeded) else "error"
            queue.extendleft(reversed(_after_failure(
                unit, attempt, kind, "%s: %s" % (type(exc).__name__, exc),
                policy, summary)))
            continue
        for pt, out in zip(unit, outs):
            _finish(pt, *out, summary)


def _host_groups(points):
    """The units both executors run: *points* in order, grouped.
    Within a run of one kernel's points (another kernel's could store
    what a later member is served), the points that differ only in a
    host they can share one :func:`runner.run_group` pass with form
    one unit; every other point is a unit of its own."""
    groups, open_groups, kernel = [], {}, None
    for pt in points:
        if pt.kernel != kernel:
            kernel, open_groups = pt.kernel, {}
        try:
            # an adaptive point's profiling table reads its host's cycles
            key = None if pt.mode == "adaptive" else (
                replace(pt, config=None),
                host_shared(runner._resolve_config(pt.config)))
        except KeyError:
            key = None   # an unknown platform: its own run reports it
        if key in open_groups:
            open_groups[key].append(pt)
        else:
            groups.append([pt])
            if key is not None:
                open_groups[key] = groups[-1]
    return groups


def _run_unit(unit, backend=None):
    """Run one unit of :func:`_host_groups` on rung *backend* and
    return ``[(result, wall, simulated)]``, one per point, in order.
    A lone point is :func:`runner.run`.  A host group serves its memo
    and disk hits, as its points would be served one by one, then
    times its misses in one :func:`runner.run_group` pass, each taking
    an equal share of the pass's wall time.  Raises what a run raises;
    the caller decides what follows (:func:`_after_failure`)."""
    if len(unit) == 1:
        [pt] = unit
        t0, before = time.perf_counter(), runner.simulations
        result = runner.run(pt.kernel, pt.config, backend=backend,
                            **pt.run_kwargs())
        return [(result, time.perf_counter() - t0,
                 runner.simulations > before)]
    outs, misses = [None] * len(unit), []
    for i, pt in enumerate(unit):
        t0, hit = time.perf_counter(), None
        with contextlib.suppress(KeyError):  # an unknown kernel fails later
            hit = runner.cached_result(pt.kernel, pt.config,
                                       **pt.run_kwargs())
        if hit is None:
            misses.append(i)
        else:
            outs[i] = (hit, time.perf_counter() - t0, False)
    if misses:
        t0 = time.perf_counter()
        results = runner.run_group(
            unit[0].kernel, [unit[i].config for i in misses],
            backend=backend, **unit[0].run_kwargs())
        wall = (time.perf_counter() - t0) / len(misses)
        for i, result in zip(misses, results):
            outs[i] = (result, wall, True)
    return outs


def _after_failure(unit, attempt, kind, error, policy, summary):
    """The queue entries ``(unit, attempt, not_before)`` that follow a
    failed *attempt* at *unit*, recording it in *summary*.  A host
    group is split: one ``group-to-points`` incident, and each of its
    points goes back alone at the same attempt, as if never grouped.
    A lone point retries after its backoff, or is quarantined once its
    attempts are spent."""
    if len(unit) > 1:
        summary.incidents.append(runner.Incident(
            kind="group-to-points",
            context=" ".join(pt.label() for pt in unit), detail=error))
        return [([pt], attempt, 0.0) for pt in unit]
    label = unit[0].label()
    if attempt + 1 < policy.retries:
        delay = policy.backoff * (2 ** attempt)
        summary.retries.append(
            RetryEvent(label, attempt, kind, error, delay))
        return [(unit, attempt + 1, time.monotonic() + delay)]
    summary.failures.append(PointFailure(label, attempt + 1, kind, error))
    return []


def _finish(pt, result, wall, simulated, summary):
    from .parallel import PointOutcome
    runner.seed_result(pt.memo_key(), result)
    summary.outcomes.append(PointOutcome(pt, wall, simulated))


def _run_parallel(points, jobs, policy, summary, pool):
    """Run *points*' units (:func:`_host_groups`) on up to *jobs*
    workers of *pool*, one task in flight per worker, each killed at
    its points' summed timeout.  Returns the points it could not place
    because a worker fork failed (a ``parallel-to-serial`` incident),
    once the tasks in flight have finished; the caller decides where
    they run."""
    from multiprocessing.connection import wait

    #: (unit, attempt, not_before) - a retry waits out its backoff
    queue = deque((unit, 0, 0.0) for unit in _host_groups(points))
    workers = []     # the pool's workers this run holds
    degraded = False

    def quarantine(unit, attempts, error):
        for pt in unit:
            summary.failures.append(
                PointFailure(pt.label(), attempts, "error", error))

    def fail(unit, attempt, kind, error):
        if pool.closed:
            # the pool's owner is shutting down: no retry, and never
            # a fallback to simulating in the owner's process
            quarantine(unit, attempt + 1, "worker pool closed")
        else:
            queue.extend(_after_failure(unit, attempt, kind, error,
                                        policy, summary))

    def finish(unit, outs, incidents):
        for pt, out in zip(unit, outs):
            _finish(pt, *out, summary)
        summary.incidents.extend(incidents)

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
                unit, attempt, not_before = queue.popleft()
                if now < not_before:
                    queue.append((unit, attempt, not_before))
                    continue
                if len(workers) < jobs:
                    try:
                        worker = pool.acquire()
                    except PoolClosed as exc:
                        quarantine(unit, attempt, str(exc))
                        continue
                    except OSError as exc:
                        # cannot create workers at all: let the ones
                        # in flight finish, then hand the rest back
                        degraded = summary.degraded = True
                        summary.incidents.append(runner.Incident(
                            kind="parallel-to-serial",
                            context=" ".join(pt.label() for pt in unit),
                            detail="worker spawn failed: %s" % exc))
                        queue.appendleft((unit, attempt, 0.0))
                        break
                    workers.append(worker)
                else:
                    worker = idle[0]
                try:
                    worker.conn.send(
                        (unit, attempt, _attempt_backend(policy, attempt)))
                except OSError:
                    pass   # a dead worker shows on its sentinel below
                worker.task = (unit, attempt)
                worker.kill_at = (now + policy.timeout * len(unit)
                                  if policy.timeout else 0.0)

            busy = [w for w in workers if w.task is not None]
            if not busy and (degraded or not queue):
                break
            # sleep until a worker replies or exits, or until the
            # nearest kill deadline or backoff expiry
            deadlines = [w.kill_at for w in busy if w.kill_at]
            if not degraded:
                deadlines += [nb for _unit, _a, nb in queue if nb > now]
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
                    unit, attempt = worker.task
                    worker.task, worker.kill_at = None, 0.0
                    if reply is not None and reply[0] == "ok":
                        finish(unit, *reply[1:])
                        continue
                    retire(worker)
                    if reply is not None:
                        fail(unit, attempt, "error", reply[1])
                    else:
                        fail(unit, attempt, "crash",
                             "worker exited with code %s"
                             % worker.proc.exitcode)
                elif worker.kill_at and now > worker.kill_at:
                    unit, attempt = worker.task
                    retire(worker, grace=0)
                    fail(unit, attempt, "hang",
                         "killed after %.3gs wall-clock"
                         % (policy.timeout * len(unit)))
    finally:
        for worker in workers:
            if worker.task is None:
                pool.release(worker)
            else:
                pool.retire(worker, 0)
    return [pt for unit, _attempt, _not_before in queue for pt in unit]
