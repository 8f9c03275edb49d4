"""Shared linter core: findings, the code registry, suppressions.

Every rule module reports through :class:`Finding`; every code is
registered in :data:`CODES` (severity + short title), which the
PROTOCOLS.md "Linter codes" table is doc-synced against, the same
discipline as ``repro.analysis.findings.CODES``.

Suppression: a comment ``# lint: allow=CODE[,CODE]`` on the flagged
line or the line directly above skips those codes for that line.  By
convention the comment carries a justification after the codes
(``# lint: allow=L011 -- channel round trips are deadline-bounded``).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, NamedTuple, Sequence, Set

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow=([A-Z0-9,\s]+)")


class CodeInfo(NamedTuple):
    severity: str  # "error" | "warning"
    title: str


#: The stable diagnostic vocabulary of the repo linter.  Codes are
#: append-only: tools and suppression comments key off them.
CODES: Dict[str, CodeInfo] = {
    "L001": CodeInfo("warning", "lock-consistency"),
    "L002": CodeInfo("error", "interprocedural-lock-consistency"),
    "L010": CodeInfo("error", "lock-order-cycle"),
    "L011": CodeInfo("warning", "blocking-call-under-lock"),
    "L012": CodeInfo("warning", "callback-under-lock"),
    "E001": CodeInfo("error", "unknown-event-name"),
    "E002": CodeInfo("warning", "non-literal-event-name"),
    "E003": CodeInfo("error", "unbounded-metric-label"),
    "X100": CodeInfo("warning", "bare-except"),
    "X101": CodeInfo("warning", "real-sleep"),
    "X102": CodeInfo("warning", "unbounded-socket"),
    "X103": CodeInfo("error", "raw-frame-io"),
    "X104": CodeInfo("warning", "unused-import"),
}


class Finding:
    def __init__(self, path: Path, line: int, code: str,
                 message: str) -> None:
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def render(self) -> str:
        return "%s:%d: %s %s" % (self.path, self.line, self.code,
                                 self.message)

    def __repr__(self) -> str:
        return "Finding(%r)" % self.render()


def suppressions(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Line number -> codes allowed there (by same-line or
    line-above ``# lint: allow=`` comments)."""
    allowed: Dict[int, Set[str]] = {}
    for idx, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",")
                     if c.strip()}
            allowed.setdefault(idx, set()).update(codes)
            allowed.setdefault(idx + 1, set()).update(codes)
    return allowed


def apply_suppressions(findings: Sequence[Finding],
                       source_lines: Sequence[str]) -> list:
    """Drop findings silenced by inline ``# lint: allow=`` comments."""
    allowed = suppressions(source_lines)
    return [f for f in findings
            if f.code not in allowed.get(f.line, set())]
