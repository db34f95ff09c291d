"""Output checks: every unit on every pass must reproduce its first record.

A unit fails a pass when the workload's own ground-truth checks report a
problem, when its record differs from the one the first pass of this
process produced (traced and untraced passes alike, so tracing must leave
the simulation byte-identical), or, when the run uses the reference seed,
when it differs from the committed reference in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional


def digest(record: Any) -> str:
    """SHA-256 of a record's canonical JSON form."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class OutputCheck:
    """Counts attempted and failed units across the passes of one run."""

    def __init__(self, reference: Optional[Dict[str, str]] = None) -> None:
        self.reference = reference
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def observe(self, unit_id: str, record: Any, problems: List[str]) -> bool:
        """Check one unit's record from one pass; True when it passes."""
        found = digest(record)
        problems = list(problems)
        first = self.first.setdefault(unit_id, found)
        if first != found:
            problems.append("output differs from the first pass")
        if self.reference is not None and \
                self.reference.get(unit_id) != found:
            problems.append("output differs from reference.json")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{unit_id}: {'; '.join(problems)}")
        return not problems
