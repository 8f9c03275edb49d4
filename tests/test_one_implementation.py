"""Structural guards: jobs with one implementation must not grow a
second.

Behaviour is pinned elsewhere (lazy == eager, the goldens, the CLI
surface); these tests read the *source* with ``ast`` and fail when a
job that has one implementation acquires a second.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
VALUE_METHODS = ("v_down", "v_right", "v_fetch", "v_select")
INPUTS = ("child", "left", "right")


def _is_self_attribute(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name \
        and isinstance(node.value, ast.Name) and node.value.id == "self"


def _input_aliases(function, inputs):
    """Local names bound straight to one of ``inputs`` on ``self``
    (``child = self.child``, ``nfa, child = self.nfa, self.child``)."""
    aliases = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) \
                    and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name) and any(
                        _is_self_attribute(value, attr) for attr in inputs):
                    aliases.add(name.id)
    return aliases


def _is_input(node, aliases, inputs):
    """``self.<input>``, a local alias of one, or a pick between them
    (``self.left if ... else self.right``)."""
    if isinstance(node, ast.IfExp):
        return _is_input(node.body, aliases, inputs) \
            or _is_input(node.orelse, aliases, inputs)
    if isinstance(node, ast.Name):
        return node.id in aliases
    return any(_is_self_attribute(node, attr) for attr in inputs)


def _input_value_navigations(tree, inputs=INPUTS):
    """Every ``v_*`` looked up on one of an operator's ``inputs`` under
    ``tree``: a value navigation that goes through the input instead of
    to the id's owner."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        aliases = _input_aliases(function, inputs)
        found += [(function.name, node.lineno)
                  for node in ast.walk(function)
                  if isinstance(node, ast.Attribute)
                  and node.attr in VALUE_METHODS
                  and _is_input(node.value, aliases, inputs)]
    return found


def _sub_id_literals(tree):
    """``("sub", ...)`` tuples: an input's value id re-wrapped."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and node.elts
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value == "sub"]


def _lazy_offenders(inputs, rewraps):
    """``(module, function or "sub", line)`` for every value navigation
    under ``lazy/`` that goes through one of ``inputs``, plus every
    ``("sub", ...)`` re-wrap when ``rewraps`` is set."""
    offenders = []
    for path in sorted((SRC_ROOT / "lazy").glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [(path.stem, name, line)
                      for name, line in _input_value_navigations(tree, inputs)]
        if rewraps:
            offenders += [(path.stem, "sub", line)
                          for line in _sub_id_literals(tree)]
    return offenders


def test_the_guards_recognise_what_they_guard():
    tree = ast.parse('''
def v_down(self, value):
    """Docstring."""
    return self.child.v_down(value)

def v_fetch(self, value):
    return (self.left if value[0] == "L" else self.right).v_fetch(value[1])

def _scan(self, vid):
    nfa, child = self.nfa, self.child
    fetch = child.v_fetch
    return ("sub", self.right.v_select(vid, None))

def v_right(self, value):
    inner = value[1]
    return inner[0].v_right(inner)
''')
    assert [name for name, _ in _input_value_navigations(tree)] \
        == ["v_down", "v_fetch", "_scan", "_scan"]
    assert [name for name, _ in _input_value_navigations(tree, ("child",))] \
        == ["v_down", "_scan"]
    assert [name for name, _
            in _input_value_navigations(tree, ("left", "right"))] \
        == ["v_fetch", "_scan"]
    assert len(_sub_id_literals(tree)) == 1


def test_value_pass_through_is_written_once():
    """A value an operator does not re-root passes through it once, as
    the input's own id: under ``lazy/`` no code navigates a value
    through ``self.child``, and no input id is re-wrapped as
    ``("sub", ...)``.  The id names its owner and every ``v_*`` call
    goes to it."""
    offenders = _lazy_offenders(("child",), rewraps=True)
    assert offenders == [], offenders


def test_two_sided_value_plumbing_is_written_once():
    """Join and union mint no value ids, so no two-input operator has a
    ``(side, inner)`` value level: under ``lazy/`` no code navigates a
    value through ``self.left`` or ``self.right``."""
    offenders = _lazy_offenders(("left", "right"), rewraps=False)
    assert offenders == [], offenders


def _init_raises(tree):
    """``(class, line)`` for every ``raise`` in an ``__init__``."""
    return [(cls.name, node.lineno)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for init in cls.body
            if isinstance(init, ast.FunctionDef)
            and init.name == "__init__"
            for node in ast.walk(init) if isinstance(node, ast.Raise)]


def test_the_schema_is_checked_once():
    """``Operator.validate()`` in ``algebra/operators.py`` checks a
    plan's variables -- unbound, duplicated, overlapping, differing
    schemas -- before any lazy operator is built.  No lazy
    constructor checks them again: under ``lazy/`` no ``__init__``
    raises."""
    probe = ast.parse('''
class LazyProbe(LazyOperator):
    def __init__(self, child, var):
        if var not in child.variables:
            raise LazyError(var)

    def attribute(self, binding, var):
        raise LazyError(var)
''')
    assert _init_raises(probe) == [("LazyProbe", 5)]
    offenders = [(path.stem,) + found
                 for path in sorted((SRC_ROOT / "lazy").glob("*.py"))
                 for found in _init_raises(ast.parse(path.read_text()))]
    assert offenders == [], offenders


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


#: the modules that start threads: the daemon (its accept thread and
#: one handler thread per connection) and the load generator's clients
THREAD_STARTERS = ["bench/loadgen.py", "server/daemon.py"]


def _thread_uses(tree):
    """Lines that construct or subclass ``threading.Thread``, or
    import ``Thread`` by name (after which a bare call constructs
    one)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading" \
                and any(alias.name == "Thread" for alias in node.names):
            found.append(node.lineno)
        elif isinstance(node, (ast.Call, ast.ClassDef)):
            targets = ([node.func] if isinstance(node, ast.Call)
                       else node.bases)
            found.extend(
                node.lineno for target in targets
                if isinstance(target, ast.Attribute)
                and target.attr == "Thread"
                and isinstance(target.value, ast.Name)
                and target.value.id == "threading")
    return sorted(found)


def _pool_imports(tree):
    """Lines that import ``concurrent.futures``, in any spelling."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for alias in node.names
                         if alias.name.startswith("concurrent"))
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("concurrent"):
            found.append(node.lineno)
    return found


def test_the_thread_guards_recognise_what_they_guard():
    tree = ast.parse('''
import threading
import concurrent.futures
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from threading import Thread

handle: "threading.Thread" = threading.Thread(target=print)
class Worker(threading.Thread):
    pass
lock = threading.Lock()
''')
    assert _thread_uses(tree) == [6, 8, 9]
    assert _pool_imports(tree) == [3, 4, 5]


def test_threads_start_in_one_place():
    """Only the daemon and the load generator start threads, and no
    module keeps a pool: the engine's read-ahead runs on the thread
    that navigates."""
    starters, pools = [], []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = path.relative_to(SRC_ROOT).as_posix()
        if _thread_uses(tree):
            starters.append(name)
        pools.extend("%s:%d" % (name, line)
                     for line in _pool_imports(tree))
    assert starters == THREAD_STARTERS
    assert pools == []
