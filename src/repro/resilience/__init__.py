"""Resilience tooling: fault injection and execution watchdogs.

Two halves, mirroring how real architecture groups qualify a design:

* :mod:`repro.resilience.faults` / :mod:`repro.resilience.campaign` --
  a deterministic, seeded fault-injection campaign that corrupts
  architectural state (registers, CIB channels, LSQ entries, MIVT
  rows, memory pages) mid-run through the LPSU's observer hooks and
  classifies each outcome against the :mod:`repro.verify` runtime
  invariant monitor.

* :mod:`repro.resilience.watchdog` -- wall-clock deadlines for the
  hardened evaluation runtime (:mod:`repro.eval.hardening`), and
  :mod:`repro.resilience.backoff` -- the bounded exponential retry
  schedule the sweep service's client reconnects with.

Recovery from an interrupted sweep or server needs nothing here: the
disk cache (:mod:`repro.eval.diskcache`) keeps every finished point,
so a re-run simulates only the rest.
"""

from .backoff import Backoff, BackoffExhausted
from .watchdog import DeadlineExceeded, deadline
from .faults import (FAULT_TARGETS, FaultInjector, FaultSpec,
                     InjectionRecord)
from .campaign import (CampaignConfig, CampaignError, CampaignReport,
                       InjectionOutcome, KernelProfile, OUTCOMES,
                       profile_kernel, run_campaign)

__all__ = [
    "Backoff", "BackoffExhausted",
    "DeadlineExceeded", "deadline",
    "FAULT_TARGETS", "FaultInjector", "FaultSpec", "InjectionRecord",
    "CampaignConfig", "CampaignError", "CampaignReport",
    "InjectionOutcome", "KernelProfile", "OUTCOMES",
    "profile_kernel", "run_campaign",
]
