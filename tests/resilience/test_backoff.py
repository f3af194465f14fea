"""The bounded exponential backoff the sweep service's client
reconnects with."""

import pytest

from repro.resilience.backoff import Backoff, BackoffExhausted


def test_exponential_then_capped():
    bo = Backoff(base=0.05, factor=2.0, cap=0.3, attempts=6,
                 sleep=lambda s: None)
    assert [round(bo.next_delay(), 3) for _ in range(6)] \
        == [0.05, 0.1, 0.2, 0.3, 0.3, 0.3]


def test_budget_exhaustion_raises():
    bo = Backoff(attempts=2, sleep=lambda s: None)
    bo.next_delay()
    bo.next_delay()
    assert bo.exhausted
    with pytest.raises(BackoffExhausted):
        bo.next_delay()


def test_reset_restores_the_full_budget():
    bo = Backoff(base=0.01, attempts=2, sleep=lambda s: None)
    bo.next_delay()
    bo.next_delay()
    bo.reset()
    assert not bo.exhausted
    assert bo.next_delay() == 0.01      # schedule restarts from base


def test_sleep_uses_the_injected_sleeper():
    slept = []
    bo = Backoff(base=0.25, attempts=3, sleep=slept.append)
    assert bo.sleep() == 0.25
    assert slept == [0.25]
