"""The feature census in DESIGN.md is complete and every row names a
consumer.

DESIGN.md's "Feature census" opens with one table: a row per
``EngineConfig`` field and per ``repro`` subcommand, each naming the
rig workload, the experiment (E-number) or the paper section that
needs it.  This guard parses that table, so a field or a command
cannot land -- or linger -- without naming who needs it.
"""

import argparse
import dataclasses
import json
import re
from pathlib import Path

from repro import cli
from repro.runtime.config import EngineConfig

ROOT = Path(__file__).resolve().parents[1]

#: an experiment, or a paper section / figure / example / definition /
#: appendix
PAPER_OR_EXPERIMENT = re.compile(
    r"\bE\d+\b|\b(?:Sec|Fig|Def)\. \d|\bExample \d|\bAppendix A\b")


def _census_rows():
    """``feature -> needed by`` from the first table under the
    census heading (a row's feature cell is one backticked name)."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## Feature census\n", 1)[1]
    rows, in_table = {}, False
    for line in section.splitlines():
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in ("feature", "---"):
            continue
        name = cells[0].strip("`")
        assert name not in rows, "duplicate census row %r" % name
        rows[name] = cells[1]
    return rows


def _subcommands(parser, prefix="repro"):
    """Every runnable ``repro`` command, nested ones spelled out
    (``repro trace merge``)."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = _subcommands(sub, "%s %s" % (prefix, name))
                names.extend(nested or ["%s %s" % (prefix, name)])
    return names


def _workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {workload["name"] for workload in declared["workloads"]}


def test_census_rows_are_exactly_the_fields_and_commands():
    expected = ([field.name for field in dataclasses.fields(EngineConfig)]
                + _subcommands(cli._build_parser()))
    assert sorted(_census_rows()) == sorted(expected)


def test_every_census_row_names_a_consumer():
    workloads = _workloads()
    nameless = [
        name for name, needed_by in _census_rows().items()
        if not PAPER_OR_EXPERIMENT.search(needed_by)
        and not any("`%s`" % workload in needed_by
                    for workload in workloads)]
    assert nameless == []
