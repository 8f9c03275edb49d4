"""A size ratchet for the shell around the paper's core, and for the
whole package.

ROADMAP's design aim is "same behaviour and speed from the simplest
design and the least code", with a -25 % target for the four shell
packages.  This turns that target into tracked numbers: the code
lines of ``runtime/ + buffer/ + server/ + client/``, and of all of
``src/repro``, may shrink, never grow past their bounds without
someone editing them on purpose.

Only code counts.  Docstrings, comments and blank lines are excluded
(``ast`` finds the docstrings, ``tokenize`` the rest), so
documentation is never the thing that gets cut to make room.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
SHELL_PACKAGES = ("runtime", "buffer", "server", "client")

#: measured when the daemon's request telemetry became per-op counters
#: and ``MetricsRegistry``, its instruments and ``export_prometheus``
#: were deleted, every series printed by one renderer from families
#: read at scrape time: runtime 1811 -> 1689, server 1138 -> 1167.
#: Before: 3859, measured when metrics became reads of the counters at
#: scrape time (the ``metrics`` parameter of eleven seams, the push
#: halves, the byte histograms and ``metrics_enabled`` deleted):
#: runtime 1818 -> 1811, buffer 574 -> 560, server 1141 -> 1138,
#: client 361 -> 350.
#: Before: 3894, measured when the fragment store became one lock
#: domain (its shards and the shared store's own lock deleted: runtime
#: 1856 -> 1818) and ``MediatorServer`` lost its ``config`` parameter
#: (server 1144 -> 1141).
#: Before: 3935, measured when the buffer's look-ahead pool was deleted
#: (``runtime/parallel.py``, the buffer's in-flight futures and
#: ``close()``, ``Tracer.capture``/``attach``, the config field, and
#: ``RemoteSession.buffer``, kept only to close it): buffer 612 -> 574,
#: runtime 1915 -> 1856, server 1151 -> 1144.
#: Before: 4039, measured when a fill reply became one flat record from
#: wrapper to buffer, raised on purpose from 4029: buffer 617 -> 612 and runtime
#: 1919 -> 1915, but server 1137 -> 1151 and client 356 -> 361, the
#: wire codec and the exporter's walk written as loops where they
#: were recursive helpers one frame per node.
#: Before: 4029, when connect_remote began speaking the daemon's session
#: dialogue (the simulated channel class and the exporter's lock
#: deleted; client 397 -> 356, server 1096 -> 1137; runtime 1919,
#: buffer 617).  The same count as when the buffer's open tree became
#: node tables.
#: Before: 4050, when the cache registry stopped holding the caches
#: and a mediator's contexts began sharing serial names (before that:
#: 4051, after the query caches lost their lock)
SHELL_CODE_LINES = 3766

#: all of ``src/repro``, measured when the metrics registry was
#: deleted (the shell -93 code lines) while ``lazy/build.py`` became an
#: explicit-stack walk (``lazy/`` +14) and ``translate`` began refusing
#: a head whose plan would pass ``MAX_PLAN_DEPTH`` (``xmas/`` +9,
#: ``algebra/`` +1).
#: Before: 13135, measured when metrics became reads of the
#: counters at scrape time (the shell -35 code lines, ``lazy/`` -5)
#: and the 20 unused imports ``tools.lint`` X104 found were deleted
#: (most shared a line with a used name), while plans got an
#: explicit-stack walk and a depth bound (``algebra/`` +9, ``xmas/``
#: +2).
#: Before: 13168, measured when the census of exported names
#: and parameters deleted plan JSON (``algebra/`` 1079 -> 884), ten
#: helpers nothing but their tests called, the store's shards and nine
#: parameters every caller left at one value, and the mediator began
#: bounding the plan view inlining composes (``mediator/`` +6).
#: Before: 13495, measured when the buffer's look-ahead pool
#: was deleted (the shell -104 code lines, ``cli.py`` -5,
#: ``wrappers/`` -2, the sanitizer's ``Future.result`` patch -6) and
#: the XMAS parser began bounding a WHERE clause's conditions
#: (``xmas/`` and ``xtree/`` +6).  Before: 13606, raised
#: on purpose from 13577 when the
#: mediator began keeping prepared plans per query text
#: (``mediator/mix.py`` 395 -> 412 code lines) and the parsers began
#: refusing deep nesting (``xmas/`` and ``xtree/`` +12).  Before:
#: 13577, measured when a fill reply became one flat
#: record from wrapper to buffer (``wrappers/`` 484 -> 469 code lines:
#: a pushed export is a record too, so no wrapper builds trees per
#: node).  Before: 13582, when binding attributes began to go
#: straight to the operator that binds them (``lazy/`` 1321 -> 1264
#: code lines: project and rename became the pass-through shape with
#: a route map, filters stopped wrapping binding ids, and the lazy
#: copies of the algebra's schema checks were deleted).  Before:
#: 13639, raised on purpose when values began to be
#: walked by their owner (``lazy/`` 1238 -> 1321 code lines: the
#: generic text and key walks as loops, and the source's own walks
#: over its document, which the generic walk backs while a tracer or
#: metrics listen) and the materialized source became node tables
#: (``navigation/`` 666 -> 664).  Before: 13554, when connect_remote
#: began speaking the daemon's session dialogue; 13555, when the buffer's
#: open tree became node tables; 13581, when value ids began naming
#: their owner (``lazy/`` 1314 -> 1238 code lines); 13658, when each
#: query began counting its own source navigations, raised on purpose
#: from 13635, the count after operator fan-out, the URI registries
#: and the lock-creation census were deleted (before that: 13816)
PACKAGE_CODE_LINES = 13066

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` carrying code: at least one token that is
    neither a comment nor layout, and not part of a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(
                range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def test_counting_rule():
    source = '''"""Module docstring,
two lines."""

import os  # a trailing comment does not hide the code

# a comment line


def f(x):
    """Docstring."""
    text = """a string that is data,
    not documentation"""
    return (x,
            text)
'''
    assert code_lines(source) == 6


def test_shell_size_ratchet():
    """The shell may shrink, never grow past its current size without
    someone editing this bound on purpose."""
    sizes = {
        package: sum(code_lines(path.read_text()) for path in
                     sorted((SRC_ROOT / package).rglob("*.py")))
        for package in SHELL_PACKAGES}
    assert sum(sizes.values()) <= SHELL_CODE_LINES, sizes


def test_package_size_ratchet():
    """All of ``src/repro`` may shrink, never grow past its current
    size without someone editing this bound on purpose."""
    sizes = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        top = path.relative_to(SRC_ROOT).parts[0]
        sizes[top] = sizes.get(top, 0) + code_lines(path.read_text())
    assert sum(sizes.values()) <= PACKAGE_CODE_LINES, sizes
