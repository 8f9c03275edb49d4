"""The repo linter (``python -m tools.lint``).

Modules:

* :mod:`tools.lint.findings` -- Finding, the CODES registry, and the
  ``# lint: allow=`` suppression engine (shared by every rule).
* :mod:`tools.lint.rules` -- the per-file rules (L001, E001/E002,
  E003, X100-X103).
* :mod:`tools.lint.symbols` -- the whole-program symbol/type model
  (classes, methods, lock declarations, annotation-driven type
  inference) the interprocedural pass runs on.
* :mod:`tools.lint.lockgraph` -- the interprocedural lock-order
  analysis (L002, L010, L011, L012) and the lock-graph dump.
* :mod:`tools.lint.cli` -- the driver (``python -m tools.lint``).
"""

from .cli import main
from .findings import CODES, Finding, apply_suppressions, suppressions
from .lockgraph import Analyzer, LockGraph, analyze, assert_contains
from .rules import lint_file, lint_file_hygiene, load_event_names
from .symbols import Program

__all__ = [
    "CODES", "Finding", "Program", "Analyzer", "LockGraph",
    "analyze", "assert_contains", "apply_suppressions",
    "suppressions", "lint_file", "lint_file_hygiene",
    "load_event_names", "main",
]
