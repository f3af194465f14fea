"""Bounded exponential backoff for reconnect/retry loops.

The sweep service's client reconnects and resubmits after a server
restart (:meth:`repro.serve.client.ServeClient.submit`), and that
loop wants exponential delays from a small base, capped, with a
bounded attempt budget so a dead server becomes an error instead of
an infinite stall, and a *reset on progress* so one long-lived
connection does not slowly exhaust its budget across unrelated
hiccups.
"""

from __future__ import annotations

import time


class BackoffExhausted(Exception):
    """The retry budget ran out without the operation succeeding."""


class Backoff:
    """One retry loop's delay schedule.

    >>> bo = Backoff(base=0.05, cap=2.0, attempts=8)
    >>> bo.next_delay()   # 0.05, then 0.1, 0.2, ... capped at 2.0
    0.05

    ``sleep()`` is ``next_delay()`` + ``time.sleep`` (the common
    case); ``reset()`` restores the full budget after any progress.
    Raises :class:`BackoffExhausted` once *attempts* delays have been
    handed out without a reset.
    """

    def __init__(self, base=0.05, factor=2.0, cap=2.0, attempts=8,
                 sleep=time.sleep):
        self.base = max(0.0, float(base))
        self.factor = max(1.0, float(factor))
        self.cap = max(self.base, float(cap))
        self.attempts = max(1, int(attempts))
        self._sleep = sleep
        self.used = 0

    def next_delay(self):
        """The next delay in seconds, consuming one attempt."""
        if self.used >= self.attempts:
            raise BackoffExhausted(
                "retry budget exhausted after %d attempts"
                % self.attempts)
        delay = min(self.cap, self.base * (self.factor ** self.used))
        self.used += 1
        return delay

    def sleep(self):
        """Consume one attempt and sleep out its delay; the delay."""
        delay = self.next_delay()
        if delay > 0:
            self._sleep(delay)
        return delay

    @property
    def exhausted(self):
        return self.used >= self.attempts

    def reset(self):
        """Progress happened: restore the full attempt budget."""
        self.used = 0
