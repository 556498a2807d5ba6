"""The rule registry.

Each rule module exposes a ``RULE`` object with ``rule_id``, ``summary``
and ``run(project) -> Iterable[Finding]``.  Adding a rule is: write the
module, append it here, add a good/bad fixture pair under
``tests/fixtures/analysis/``.
"""

from __future__ import annotations

from typing import List

from repro.analysis.rules import blocking, locks, retain, stats, telemetry, wireops


def all_rules() -> List[object]:
    """The registry, in rule-id order."""
    return [
        retain.RULE,       # REPRO001
        telemetry.RULE,    # REPRO002
        wireops.RULE,      # REPRO003
        locks.RULE,        # REPRO004
        stats.RULE,        # REPRO005
        blocking.RULE,     # REPRO006
    ]


__all__ = ["all_rules"]
