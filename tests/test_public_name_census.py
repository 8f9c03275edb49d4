"""Every exported name has a production consumer, or a stated reason.

DESIGN.md's "Feature census" extends to every name in a module's
``__all__`` under ``src/repro``: each one must be used by production
code, or be listed in the census's table of names kept without a
production consumer, with the reason.  Production use is any of:

* the name's own module, beyond its definition and ``__all__`` entry;
* another module under ``src/repro`` -- a package ``__init__`` that
  imports the name to re-export it does not count;
* ``benchmarks/``, ``examples/`` or ``tools/``.

Tests are not production: a name only a test calls is deleted, or, if
it exists for the tests (a fault harness, an oracle), listed with that
reason.  Uses are read with ``ast``: a loaded name, an attribute of
that name, an ``import ... as`` alias of it that is then loaded, or a
string annotation naming it.  A docstring that mentions a name does
not use it.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PRODUCTION_ROOTS = ("benchmarks", "examples", "tools")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree):
    """The string entries of a module-level ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            return [elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)]
    return []


def _definitions(tree, name):
    """The module-level statements that define ``name``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            found.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(target, ast.Name) and target.id == name
                   for target in targets):
                found.append(node)
    return found


def _annotation_names(node):
    """The names a string annotation (``List["HeadItem"]``) reads."""
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                parsed = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def _reads(tree):
    """How often each name is read in ``tree``: a loaded name, an
    ``x.name`` attribute, a string annotation naming it, or a load of
    an alias it was imported under (counted for the imported name)."""
    reads = Counter()
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            reads[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name.rsplit(".", 1)[-1]
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if annotation is not None:
                reads.update(_annotation_names(annotation))
    for alias, name in aliases.items():
        reads[name] += reads[alias]
    return reads


def _production_files():
    files = sorted(PACKAGE.rglob("*.py"))
    for root in PRODUCTION_ROOTS:
        files.extend(sorted((ROOT / root).rglob("*.py")))
    return files


@functools.lru_cache(maxsize=None)
def unused_exports():
    """``module:name`` for every exported name with no production
    use, by the rule in this module's docstring."""
    trees = {path: _parse(path) for path in _production_files()}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    flagged = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = trees[path]
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts)
        for name in _exports(tree):
            definitions = _definitions(tree, name)
            if name.startswith("__") or not definitions:
                # a dunder, or a re-export: the census row of a name
                # is its defining module's
                continue
            own = reads[path][name] - sum(
                _reads(definition)[name] for definition in definitions)
            if own or any(counts[name] for other, counts in reads.items()
                          if other != path):
                continue
            flagged.append("%s:%s" % (module, name))
    return tuple(flagged)


def _kept_rows():
    """``row -> reason`` from the census's kept-names table; a row is
    ``module:name``, or a package that keeps every name under it."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## Feature census\n", 1)[1]
    section = section.split("\n| exported name | kept because |\n", 1)[1]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == "---":
            continue
        rows[cells[0].strip("`")] = cells[1]
    return rows


def _kept_by(row, flagged):
    module = flagged.split(":", 1)[0]
    return flagged == row or module == row or module.startswith(row + ".")


def test_every_exported_name_has_a_production_consumer():
    kept = _kept_rows()
    assert [name for name in unused_exports()
            if not any(_kept_by(row, name) for row in kept)] == []


def test_every_kept_row_covers_an_unused_name_and_gives_a_reason():
    kept = _kept_rows()
    unused = unused_exports()
    assert [row for row in kept
            if not any(_kept_by(row, name) for name in unused)] == []
    assert [row for row, reason in kept.items()
            if not re.search(r"[a-z]{3}", reason)] == []


def test_the_census_sees_each_kind_of_use():
    assert "repro.algebra.eager:evaluate" not in unused_exports()
    for text in ("from repro.x import helper as h\nh()\n",
                 "import repro.x as m\nm.helper()\n",
                 "items: List['helper'] = []\n"):
        assert _reads(ast.parse(text))["helper"] == 1
    # a recursive call is part of the definition, not a use
    definition = ast.parse("def helper():\n    return helper()\n").body[0]
    assert _reads(definition)["helper"] == 1
    # neither is a re-export or a docstring mention
    tree = ast.parse('"""See helper."""\nfrom .x import helper\n'
                     '__all__ = ["helper"]\n')
    assert _reads(tree)["helper"] == 0
