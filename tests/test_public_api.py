"""The public API surface: everything advertised imports and is
documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro", "repro.core", "repro.runtime", "repro.xtree",
    "repro.navigation",
    "repro.algebra", "repro.lazy", "repro.xmas", "repro.rewriter",
    "repro.buffer", "repro.wrappers", "repro.relational", "repro.oodb",
    "repro.webstore", "repro.client", "repro.mediator", "repro.bench",
    "repro.testing", "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, "%s lacks a module docstring" % name


@pytest.mark.parametrize("name", [p for p in PACKAGES
                                  if p not in ("repro.cli",)])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, "%s exports nothing" % name
    for symbol in exported:
        assert hasattr(module, symbol), \
            "%s.__all__ lists missing %s" % (name, symbol)


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, \
                "%s.%s lacks a docstring" % (name, symbol)


def test_version():
    import repro
    assert repro.__version__


def test_core_facade_matches_primary_contribution():
    from repro import core
    for needed in ("MIXMediator", "VirtualDocument", "Browsability",
                   "classify_plan", "build_virtual_document"):
        assert hasattr(core, needed)


def test_unified_error_hierarchy():
    """Every expected-failure exception derives from ReproError."""
    from repro import ReproError
    from repro.algebra import PlanError
    from repro.buffer import LXPProtocolError
    from repro.client import BBQError  # noqa: F401  (re-export check)
    from repro.client.bbq import BBQError as BBQError2
    from repro.lazy import LazyError
    from repro.mediator import MediatorError
    from repro.oodb import OODBError
    from repro.relational import SchemaError, SQLError
    from repro.webstore import WebError
    from repro.xmas import XMASSyntaxError, XMASTranslationError
    from repro.xtree import XMLParseError, PathSyntaxError

    for exc in (PlanError, LXPProtocolError,
                BBQError2, LazyError, MediatorError, OODBError,
                SchemaError, SQLError, WebError, XMASSyntaxError,
                XMASTranslationError, XMLParseError, PathSyntaxError):
        assert issubclass(exc, ReproError), exc
