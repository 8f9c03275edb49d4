"""The CLI surface golden: every flag, and what the flags hand on.

``tests/golden/cli_surface.json`` pins two things about ``repro``'s
command line, so the plumbing behind it can be rewritten without
moving the surface:

* ``"parser"`` -- per subcommand, a *version-independent* dump of the
  argparse parser: option strings, the metavar ``--help`` would show,
  type, default, choices, ``required`` and the help string.  Not the
  formatted ``--help`` text: argparse prints ``options:`` or
  ``optional arguments:`` depending on the Python version.  ``dest``
  is left out on purpose (it is plumbing, not surface), and so is the
  default of a flag that takes no value -- what such a flag *does* is
  pinned by the second section.
* ``"configs"`` -- for ``query``, ``profile``, ``lint`` and ``serve``,
  the ``EngineConfig.as_dict()`` the command hands on, once for a
  minimal argv and once with every flag set.  The config is captured
  by substituting the constructor (or analyzer) it is handed to.

Regenerate (only for an *intentional* CLI change) with
``REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_surface.py``.
"""

import argparse
import json
import os
import pathlib

import pytest

from repro import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_surface.json"
REGEN = os.environ.get("REGEN_GOLDEN") == "1"

QUERY = "CONSTRUCT <zips> $V {$V} </zips> {} " \
        "WHERE homesSrc homes.home $H AND $H zip._ $V"


def _effective_metavar(parser, action):
    """The placeholder ``--help`` prints for ``action``'s value."""
    formatter = parser._get_formatter()
    default = (formatter._get_default_metavar_for_optional(action)
               if action.option_strings
               else formatter._get_default_metavar_for_positional(action))
    return formatter._metavar_formatter(action, default)(1)[0]


def _dump_parser(parser):
    arguments, commands = [], {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help
                     for choice in action._choices_actions}
            for name, sub in action.choices.items():
                commands[name] = dict(_dump_parser(sub),
                                      help=helps.get(name))
            continue
        entry = {"flags": list(action.option_strings),
                 "required": action.required,
                 "help": action.help}
        if action.nargs == 0:
            entry["takes_value"] = False
        else:
            entry.update(
                takes_value=True,
                metavar=_effective_metavar(parser, action),
                type=getattr(action.type, "__name__", None),
                default=action.default,
                choices=(list(action.choices)
                         if action.choices is not None else None),
                repeatable=isinstance(action, argparse._AppendAction))
        arguments.append(entry)
    dump = {"prog": parser.prog,
            "description": parser.description,
            "arguments": arguments,
            "exclusive_groups": [
                {"required": group.required,
                 "flags": [a.option_strings[0]
                           for a in group._group_actions]}
                for group in parser._mutually_exclusive_groups]}
    if commands:
        dump["commands"] = commands
    return dump


class _Captured(Exception):
    """Raised by the substituted constructor to stop the command."""


def _handed_on(monkeypatch, argv):
    """The ``EngineConfig`` ``repro <argv>`` hands to the mediator (or,
    for ``lint``, to the analyzer), as a dict."""
    seen = []

    def capture_mediator(config, **_kwargs):
        seen.append(config)
        raise _Captured

    def capture_analyzer(_text, config=None, **_kwargs):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(cli, "MIXMediator", capture_mediator)
    monkeypatch.setattr("repro.analysis.analyze_query", capture_analyzer)
    with pytest.raises(_Captured):
        cli.main(argv)
    assert len(seen) == 1
    return seen[0].as_dict()


def _argvs(tmp_path):
    """Per config-building command: a minimal argv, and the flags that
    complete it to one with every flag set."""
    homes = tmp_path / "homes.xml"
    homes.write_text("<homes><home><zip>91220</zip></home></homes>")
    source = ["-s", "homesSrc=%s" % homes]
    query = ["-q", QUERY]
    return {
        "query": (
            ["query"] + source + query,
            ["--eager", "--pretty", "--stats", "--chunk-size", "7",
             "--no-optimize", "--no-cache", "--cache-budget", "5",
             "--sigma", "--hybrid", "--pushdown", "--fragment-cache",
             "--retries", "3", "--retry-deadline", "250", "--degrade",
             "--prefetch", "4",
             "--batch-navigations",
             "--trace-out", str(tmp_path / "t.jsonl"),
             "--trace-format", "chrome",
             "--metrics-out", str(tmp_path / "m.prom")]),
        "profile": (
            ["profile"] + source + query,
            ["--chunk-size", "7", "--no-optimize", "--sigma"]),
        "lint": (
            ["lint"] + query,
            source + ["--sigma", "--hybrid", "--no-optimize",
                      "--cache-budget", "5", "--json", "-",
                      "--fail-on", "error", "--suppress", "B010"]),
        "serve": (
            ["serve"] + source,
            ["--workload", "homes:3", "--host", "0.0.0.0",
             "--port", "4242", "--max-sessions", "8",
             "--idle-timeout", "1500", "--send-timeout", "700",
             "--request-deadline", "900",
             "--session-max-fills", "11",
             "--session-max-bytes", "4096", "--drain-timeout", "300",
             "--chunk-size", "3", "--fragment-cache",
             "--metrics-out", str(tmp_path / "m.prom"),
             "--trace-out", str(tmp_path / "t.jsonl"),
             "--trace-sample-rate", "0.5", "--slow-request", "40",
             "--flight-recorder", "32",
             "--incident-dir", "incidents"]),
    }


def test_cli_surface_matches_golden(monkeypatch, tmp_path):
    observed = {
        "parser": _dump_parser(cli._build_parser()),
        "configs": {
            command: {
                "minimal": _handed_on(monkeypatch, minimal),
                "all_flags": _handed_on(monkeypatch, minimal + flags)}
            for command, (minimal, flags) in _argvs(tmp_path).items()},
    }
    observed = json.dumps(observed, sort_keys=True, indent=1) + "\n"
    if REGEN:
        GOLDEN.write_text(observed)
    assert observed == GOLDEN.read_text()


def test_all_flags_argvs_set_every_flag(tmp_path):
    """Keeps the ``all_flags`` argvs honest: a flag added to one of the
    four config-building commands must be added to its argv above."""
    commands = _dump_parser(cli._build_parser())["commands"]
    # -q, -f and --examples exclude each other: -q stands for all.
    exempt = {"--query-file", "--examples"}
    for command, (minimal, flags) in _argvs(tmp_path).items():
        unset = [entry["flags"] for entry in commands[command]["arguments"]
                 if not set(entry["flags"]) & (set(minimal + flags) | exempt)]
        assert not unset, (command, unset)
