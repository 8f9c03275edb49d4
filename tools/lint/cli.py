"""Linter driver: per-file rules plus the whole-program lock pass.

Scoping: files under a ``src`` tree get the full rule set (L/E/X
codes plus the interprocedural lock-order analysis); other roots
(``benchmarks/``, ``tools/``, ``examples/``) get the hygiene rules
only (X100-X103) -- bench and example code has no lock
discipline or event-name contract to enforce, but a bare except or
an untimed socket is just as wrong there.

Flags::

    --lock-graph PATH     dump the lock-order graph as JSON (and a
                          Graphviz .dot next to it)
    --assert-contains P   read sanitizer-observed edges (JSONL, as
                          written by REPRO_LOCK_SANITIZER_DUMP) and
                          fail unless every observed edge is in the
                          static graph (dynamic must be a subset of
                          static)

Exit status: 0 when clean, 1 when any finding survives suppression
or the containment check misses, 2 on a usage error (a flag missing
its value).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .findings import Finding, apply_suppressions
from .lockgraph import analyze, assert_contains
from .rules import lint_file, lint_file_hygiene, load_event_names


def _full_rules(path: Path) -> bool:
    return "src" in path.parts


def _collect(root: Path) -> List[Path]:
    return sorted(root.rglob("*.py")) if root.is_dir() else [root]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="Lint the repro tree (default: src/repro, "
                    "benchmarks, tools and examples).")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint")
    parser.add_argument("--lock-graph", type=Path, metavar="PATH",
                        help="dump the lock-order graph as JSON (and "
                             "a Graphviz .dot next to it)")
    parser.add_argument("--assert-contains", type=Path, metavar="P",
                        help="fail unless every sanitizer-observed "
                             "edge in this JSONL dump is in the "
                             "static graph")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    repo_root = Path(__file__).resolve().parents[2]

    args = _parser().parse_args(argv)
    graph_out: Optional[Path] = args.lock_graph
    observed_in: Optional[Path] = args.assert_contains
    roots: List[Path] = args.paths
    if not roots:
        roots = [repo_root / "src" / "repro"]
        for extra in ("benchmarks", "tools", "examples"):
            candidate = repo_root / extra
            if candidate.is_dir():
                roots.append(candidate)

    event_names = load_event_names(repo_root)
    findings: List[Finding] = []
    count = 0
    src_files: List[Path] = []
    for root in roots:
        for path in _collect(root):
            count += 1
            if _full_rules(path):
                findings.extend(lint_file(path, event_names))
                src_files.append(path)
            else:
                findings.extend(lint_file_hygiene(path))

    status = 0
    if src_files or graph_out or observed_in:
        graph_files = src_files or _collect(
            repo_root / "src" / "repro")
        graph = analyze(graph_files)
        sources: Dict[Path, List[str]] = {}
        for finding in graph.findings:
            lines = sources.get(finding.path)
            if lines is None:
                lines = finding.path.read_text().splitlines()
                sources[finding.path] = lines
        by_file: Dict[Path, List[Finding]] = {}
        for finding in graph.findings:
            by_file.setdefault(finding.path, []).append(finding)
        for path, file_findings in by_file.items():
            findings.extend(
                apply_suppressions(file_findings, sources[path]))
        if graph_out is not None:
            payload = graph.to_json()
            graph_out.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
            graph_out.with_suffix(".dot").write_text(graph.to_dot())
        if observed_in is not None:
            misses = assert_contains(
                graph.to_json(),
                observed_in.read_text().splitlines())
            for miss in misses:
                print(miss)
            if misses:
                status = 1

    findings.sort(key=lambda f: (str(f.path), f.line, f.code))
    for finding in findings:
        print(finding.render())
    print("lint_repro: %d file(s), %d finding(s)"
          % (count, len(findings)), file=sys.stderr)
    return 1 if findings else status
