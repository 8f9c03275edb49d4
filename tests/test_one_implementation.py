"""Structural guards: the copies PR 20 folded must not grow back.

Behaviour is pinned elsewhere (lazy == eager, the goldens, the CLI
surface); these tests read the *source* with ``ast`` and fail when a
job that has one implementation acquires a second.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
VALUE_METHODS = ("v_down", "v_right", "v_fetch", "v_select")


def _body(function):
    """A function's statements, docstring aside."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(getattr(body[0], "value", None), ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return body


def _is_self_attribute(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name \
        and isinstance(node.value, ast.Name) and node.value.id == "self"


def _is_child_forward(function):
    """``def v_x(self, a, ...): return self.child.v_x(a, ...)``."""
    body = _body(function)
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    return isinstance(call, ast.Call) and not call.keywords \
        and isinstance(call.func, ast.Attribute) \
        and call.func.attr == function.name \
        and _is_self_attribute(call.func.value, "child") \
        and [ast.dump(arg) for arg in call.args] \
        == [ast.dump(ast.Name(arg.arg, ast.Load()))
            for arg in function.args.args[1:]]


def _picks_a_side(function):
    """Mentions both ``self.left`` and ``self.right`` (directly or
    through a ``self._side(...)`` helper): the ``(side, inner)`` value
    plumbing of a two-input operator."""
    names = {node.attr for node in ast.walk(function)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "self"}
    return {"left", "right"} <= names or "_side" in names


def _value_methods():
    """``(module name, class name, method node)`` for every ``v_*``
    method defined under ``src/repro/lazy/``."""
    for path in sorted((SRC_ROOT / "lazy").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) \
                            and node.name in VALUE_METHODS:
                        yield path.stem, cls.name, node


def test_the_guards_recognise_what_they_guard():
    forward, rewrapped, sided = ast.parse('''
def v_down(self, value):
    """Docstring."""
    return self.child.v_down(value)

def v_down(self, value):
    return self.child.v_down(value[1])

def v_fetch(self, value):
    return (self.left if value[0] == "L" else self.right).v_fetch(value[1])
''').body
    assert _is_child_forward(forward)
    assert not _is_child_forward(rewrapped)
    assert _picks_a_side(sided) and not _picks_a_side(forward)


def test_value_pass_through_is_written_once():
    """Only ``lazy/base.py`` forwards a ``v_*`` call to ``self.child``
    unchanged; an operator whose values pass through inherits that
    (``UnaryOperator``) instead of restating it."""
    forwards = {(module, cls) for module, cls, method in _value_methods()
                if _is_child_forward(method)}
    assert forwards == {("base", "UnaryOperator")}, sorted(forwards)


def test_two_sided_value_plumbing_is_written_once():
    """The ``(side, inner)`` value level of two-input operators lives
    in ``TwoSidedValues`` alone."""
    sided = {(module, cls) for module, cls, method in _value_methods()
             if _picks_a_side(method)}
    assert sided == {("base", "TwoSidedValues")}, sorted(sided)


def test_cli_builds_its_config_and_dispatches_in_one_place():
    tree = ast.parse((SRC_ROOT / "cli.py").read_text())
    config_calls = [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "EngineConfig"]
    assert len(config_calls) == 1
    command_tests = [node for node in ast.walk(tree)
                     if isinstance(node, ast.Compare)
                     and isinstance(node.left, ast.Attribute)
                     and node.left.attr == "command"]
    assert command_tests == []
    file_writers = {function.name for function in ast.walk(tree)
                    if isinstance(function, ast.FunctionDef)
                    for node in ast.walk(function)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "write"}
    # one JSON-to-sink helper, one Prometheus-text writer
    assert file_writers == {"_emit", "_write_metrics"}, file_writers


def test_runtime_defines_one_trace_event_record():
    """One class in ``runtime/`` has the trace-event shape:
    ``TraceEvent`` (the tracer emits it, ``load_jsonl`` reads it back,
    ``merge_traces`` returns it)."""
    shape = {"layer", "event", "data", "span_id", "parent_id", "ts_ms",
             "thread"}
    records = []
    for path in sorted((SRC_ROOT / "runtime").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and shape \
                    <= {node.target.id for node in cls.body
                        if isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)}:
                records.append((path.stem, cls.name))
    assert records == [("observability", "TraceEvent")]
