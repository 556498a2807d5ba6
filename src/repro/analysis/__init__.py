"""Repo-specific static invariant analysis (and its runtime sibling, lockwatch).

Three PRs' worth of correctness guarantees in this codebase are promised
in prose but were, until this package, enforced by nothing:

* the zero-copy wire path's *retain audit* — "every attachment view
  stored past request lifetime goes through
  :func:`repro.net.messages.retain`" (PR 8);
* the observability plane's *leakage stance* — "telemetry records op
  names, byte sizes, and timings; never keys, seeds, or plaintext"
  (PR 9);
* the *lock discipline* spread across ~19 ``Lock``/``RLock`` sites in
  four threaded tiers (selector server, outbound connection slots,
  cluster replication pool, dispatcher engine locks).

This package machine-checks them.  ``python -m repro.analysis`` walks the
repo, parses every module once, and runs a registry of AST rules over the
parsed project:

========  ==============================================================
REPRO001  retain audit: attachment-derived buffers stored past request
          lifetime must go through ``retain()``
REPRO002  telemetry leakage: logging/span calls must not reference
          key-/seed-/plaintext-named bindings
REPRO003  typed wire errors: ``_op_*`` handlers raise
          :mod:`repro.exceptions` errors, never builtins (the op inventory
          itself is one table, ``repro.net.messages.OP_TABLE``, checked by
          a tier-1 test)
REPRO004  lock discipline: global lock-acquisition order is acyclic and
          no blocking call (socket I/O, ``Future.result``, dials) runs
          while a lock is held
REPRO005  stats registration: metrics-registry keys are kept and
          unregistered on close/stop; stats structs stay reachable
REPRO006  leader discipline: a wait reachable from a request handler
          (``Future.result``, ``Condition``/``Event.wait``,
          ``time.sleep``) is announced with ``before_blocking()``
========  ==============================================================

Findings are suppressed per line with a justified waiver comment::

    some_code()  # repro: allow[REPRO004] why this is safe

(an empty justification is itself a finding), or per fingerprint through
the committed ``ANALYSIS_BASELINE.json``.  ``--strict`` — the CI mode —
additionally fails on unused waivers and stale baseline entries, so the
suppression surface can only shrink.

The runtime half lives in :mod:`repro.analysis.lockwatch`: an
instrumented lock wrapper that watches real executions of the worker
pools for lock-order inversions and blocking-while-locked, enabled in
tests via the ``REPRO_LOCKWATCH`` environment variable.
"""

from repro.analysis.core import (
    AnalysisResult,
    Finding,
    Project,
    Waiver,
    default_paths,
    load_baseline,
    run_analysis,
)
from repro.analysis.rules import all_rules

__all__ = [
    "AnalysisResult",
    "Finding",
    "Project",
    "Waiver",
    "all_rules",
    "default_paths",
    "load_baseline",
    "run_analysis",
]
