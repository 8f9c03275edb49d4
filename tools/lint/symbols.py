"""Whole-program symbol model for the lock-order analyzer.

A deliberately small, AST-only view of the repo: modules, classes,
methods, the nominal types of ``self.<attr>`` slots and locals, and
every lock declaration (named ``make_lock``/``make_rlock`` sites plus
anonymous raw ``threading`` locks, which get a derived
``<module>.<Class>.<attr>`` identity).  Precision is "good enough to
resolve the repo's own idioms": constructor assignments, parameter and
return annotations (including ``Optional``/containers), a short table
of conventional receiver names (``tracer``, ``recorder``, ``clock``).
Anything unresolved stays unresolved -- the analyzer reports coverage
rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .rules import is_lock_creation, lock_creation_name

#: Conventional receiver names -> nominal class, used only when no
#: annotation or constructor assignment pins the type.  These mirror
#: repo-wide naming discipline (a ``tracer`` is always the Tracer).
NAME_HINTS: Dict[str, str] = {
    "tracer": "Tracer",
    "recorder": "FlightRecorder",
    "clock": "Clock",
}

#: typing wrappers whose subscript is transparent for our purposes
_TRANSPARENT = {"Optional", "Union", "Final", "ClassVar", "Annotated"}
#: containers whose subscript names the *element* type
_CONTAINERS = {"List", "Tuple", "Set", "FrozenSet", "Sequence",
               "Iterable", "Iterator", "Deque", "Collection", "list",
               "tuple", "set", "frozenset"}


@dataclass
class LockDecl:
    name: str          # dotted identity (derived for anonymous locks)
    reentrant: bool
    anonymous: bool
    module: str
    cls: Optional[str]
    attr: str          # attribute / variable bound at the creation
    line: int


@dataclass
class FuncInfo:
    module: str
    cls: Optional[str]
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef

    @property
    def qname(self) -> str:
        if self.cls:
            return "%s.%s.%s" % (self.module, self.cls, self.name)
        return "%s.%s" % (self.module, self.name)


@dataclass
class ClassInfo:
    module: str
    name: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FuncInfo] = field(default_factory=dict)
    #: self.<attr> -> set of nominal class names
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: self.<attr> -> element class names (for containers)
    elem_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: self.<attr> -> lock declaration
    lock_attrs: Dict[str, LockDecl] = field(default_factory=dict)
    #: class-level op table (a dict literal of the class's own
    #: methods, e.g. ``OPS = {"fill": fill}``) -> its method names
    op_tables: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    path: Path
    modname: str
    tree: ast.Module
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FuncInfo] = field(default_factory=dict)
    #: module-level variable -> lock declaration
    module_locks: Dict[str, LockDecl] = field(default_factory=dict)


def _annotation_names(node: Optional[ast.expr]
                      ) -> Tuple[Set[str], Set[str]]:
    """(direct type names, container element type names) named by an
    annotation expression.  String annotations are re-parsed."""
    direct: Set[str] = set()
    elems: Set[str] = set()
    if node is None:
        return direct, elems
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return direct, elems
    if isinstance(node, ast.Name):
        direct.add(node.id)
    elif isinstance(node, ast.Attribute):
        direct.add(node.attr)
    elif isinstance(node, ast.Subscript):
        head = node.value
        head_name = (head.id if isinstance(head, ast.Name)
                     else head.attr if isinstance(head, ast.Attribute)
                     else "")
        inner = node.slice
        parts = (inner.elts if isinstance(inner, ast.Tuple)
                 else [inner])
        if head_name in _TRANSPARENT:
            for part in parts:
                sub_direct, sub_elems = _annotation_names(part)
                direct |= sub_direct
                elems |= sub_elems
        elif head_name in _CONTAINERS:
            for part in parts:
                sub_direct, _ = _annotation_names(part)
                elems |= sub_direct
        elif head_name in ("Dict", "Mapping", "MutableMapping",
                           "DefaultDict", "dict"):
            # values are what gets iterated/indexed out in practice
            if len(parts) == 2:
                sub_direct, _ = _annotation_names(parts[1])
                elems |= sub_direct
        elif head_name == "Callable":
            direct.add("<callable>")
        else:
            direct.add(head_name)
    elif isinstance(node, ast.BinOp):  # X | None unions
        for side in (node.left, node.right):
            sub_direct, sub_elems = _annotation_names(side)
            direct |= sub_direct
            elems |= sub_elems
    direct.discard("None")
    return direct, elems


def _module_name(path: Path) -> str:
    parts = list(path.parts)
    if "src" in parts:
        rel = parts[parts.index("src") + 1:]
        modname = ".".join(rel)[:-3]  # strip .py
        if modname.endswith(".__init__"):
            modname = modname[: -len(".__init__")]
        return modname
    return path.stem


class Program:
    """Index of every analyzed module, class and function."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self._subclasses: Dict[str, Set[str]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def load(cls, paths: List[Path]) -> "Program":
        program = cls()
        for path in sorted(paths):
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            program._index_module(path, tree)
        program._link()
        return program

    def _index_module(self, path: Path, tree: ast.Module) -> None:
        modname = _module_name(path)
        mod = ModuleInfo(path=path, modname=modname, tree=tree)
        self.modules[modname] = mod
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(mod, node)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                mod.functions[node.name] = FuncInfo(
                    modname, None, node.name, node)
            elif isinstance(node, ast.Assign):
                reentrant = is_lock_creation(node.value)
                if reentrant is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lock_name = lock_creation_name(node.value)
                        mod.module_locks[target.id] = LockDecl(
                            name=lock_name or "%s.%s" % (
                                modname.rsplit(".", 1)[-1], target.id),
                            reentrant=reentrant,
                            anonymous=lock_name is None,
                            module=modname, cls=None,
                            attr=target.id, line=node.lineno)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        info = ClassInfo(module=mod.modname, name=node.name)
        for base in node.bases:
            if isinstance(base, ast.Name):
                info.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                info.bases.append(base.attr)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                info.methods[item.name] = FuncInfo(
                    mod.modname, node.name, item.name, item)
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                direct, elems = _annotation_names(item.annotation)
                if direct:
                    info.attr_types.setdefault(
                        item.target.id, set()).update(direct)
                if elems:
                    info.elem_types.setdefault(
                        item.target.id, set()).update(elems)
        for item in node.body:
            value = getattr(item, "value", None)
            target = (item.targets[0] if isinstance(item, ast.Assign)
                      else getattr(item, "target", None))
            if isinstance(target, ast.Name) \
                    and isinstance(value, ast.Dict) and value.values \
                    and all(isinstance(v, ast.Name)
                            and v.id in info.methods
                            for v in value.values):
                info.op_tables[target.id] = [
                    v.id for v in value.values
                    if isinstance(v, ast.Name)]
        # attribute types + lock declarations from method bodies
        for method in info.methods.values():
            self._harvest_method(mod, info, method)
        mod.classes[node.name] = info

    def _harvest_method(self, mod: ModuleInfo, info: ClassInfo,
                        method: FuncInfo) -> None:
        params = _param_types(method.node)
        for node in ast.walk(method.node):  # type: ignore[arg-type]
            if isinstance(node, ast.AnnAssign):
                attr = _self_attr_of(node.target)
                if attr:
                    direct, elems = _annotation_names(node.annotation)
                    if direct:
                        info.attr_types.setdefault(
                            attr, set()).update(direct)
                    if elems:
                        info.elem_types.setdefault(
                            attr, set()).update(elems)
                continue
            if not isinstance(node, ast.Assign):
                continue
            reentrant = is_lock_creation(node.value)
            for target in node.targets:
                attr = _self_attr_of(target)
                if attr is None:
                    continue
                if reentrant is not None:
                    lock_name = lock_creation_name(node.value)
                    info.lock_attrs[attr] = LockDecl(
                        name=lock_name or "%s.%s.%s" % (
                            mod.modname.rsplit(".", 1)[-1],
                            info.name, attr),
                        reentrant=reentrant,
                        anonymous=lock_name is None,
                        module=mod.modname, cls=info.name,
                        attr=attr, line=node.lineno)
                else:
                    for typ in _rhs_types(node.value, params, info):
                        info.attr_types.setdefault(
                            attr, set()).add(typ)

    def _link(self) -> None:
        for mod in self.modules.values():
            for cls in mod.classes.values():
                self.classes_by_name.setdefault(
                    cls.name, []).append(cls)
        for mod in self.modules.values():
            for cls in mod.classes.values():
                for base in cls.bases:
                    self._subclasses.setdefault(
                        base, set()).add(cls.name)

    # -- queries -------------------------------------------------------

    def subclasses(self, name: str) -> Set[str]:
        """Transitive subclass names of *name* (excluding itself)."""
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for sub in self._subclasses.get(current, ()):
                if sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
        return seen

    def ancestors(self, cls: ClassInfo) -> List[ClassInfo]:
        """Base-class chain (best effort, by name)."""
        out: List[ClassInfo] = []
        seen = {cls.name}
        frontier = list(cls.bases)
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            for info in self.classes_by_name.get(base, []):
                out.append(info)
                frontier.extend(info.bases)
        return out

    def lock_for_attr(self, cls: ClassInfo,
                      attr: str) -> Optional[LockDecl]:
        """Lock declared as ``self.<attr>`` in *cls* or an ancestor."""
        if attr in cls.lock_attrs:
            return cls.lock_attrs[attr]
        for ancestor in self.ancestors(cls):
            if attr in ancestor.lock_attrs:
                return ancestor.lock_attrs[attr]
        return None

    def attr_types(self, cls: ClassInfo, attr: str,
                   _seen: Optional[Set[Tuple[str, str, str]]] = None
                   ) -> Set[str]:
        if _seen is None:
            _seen = set()
        key = (cls.module, cls.name, attr)
        if key in _seen:
            return set()
        _seen.add(key)
        raw = set(cls.attr_types.get(attr, ()))
        for ancestor in self.ancestors(cls):
            raw |= ancestor.attr_types.get(attr, set())
        types: Set[str] = set()
        for entry in raw:
            if entry.startswith("@chain:"):
                # deferred ``self.<a>.<b>`` RHS: resolve a's type
                # first, then b on it (cross-class, so only possible
                # after the whole program is loaded)
                head, _, tail = entry[len("@chain:"):].partition(".")
                for mid in self.attr_types(cls, head, _seen):
                    for owner in self.classes_by_name.get(mid, []):
                        types |= self.attr_types(owner, tail, _seen)
            else:
                types.add(entry)
        if not types:
            hint = _hint_for(attr)
            if hint:
                types.add(hint)
        return types

    def elem_types(self, cls: ClassInfo, attr: str) -> Set[str]:
        types = set(cls.elem_types.get(attr, ()))
        for ancestor in self.ancestors(cls):
            types |= ancestor.elem_types.get(attr, set())
        return types

    def resolve_method(self, type_names: Set[str],
                       method: str) -> List[FuncInfo]:
        """Implementations of ``<T>.method`` for every nominal type in
        *type_names*, including subclass overrides and inherited
        definitions."""
        out: List[FuncInfo] = []
        seen: Set[str] = set()
        names: Set[str] = set()
        for type_name in type_names:
            names.add(type_name)
            names |= self.subclasses(type_name)
        for name in names:
            for cls in self.classes_by_name.get(name, []):
                target = cls.methods.get(method)
                if target is None:
                    for ancestor in self.ancestors(cls):
                        if method in ancestor.methods:
                            target = ancestor.methods[method]
                            break
                if target is not None and target.qname not in seen:
                    seen.add(target.qname)
                    out.append(target)
        return out

    def class_locks(self, cls: ClassInfo) -> Set[str]:
        """All lock names declared by *cls* (or ancestors)."""
        names = {d.name for d in cls.lock_attrs.values()}
        for ancestor in self.ancestors(cls):
            names |= {d.name for d in ancestor.lock_attrs.values()}
        return names


def _self_attr_of(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _hint_for(name: str) -> Optional[str]:
    stripped = name.lstrip("_")
    for hint, type_name in NAME_HINTS.items():
        if stripped == hint or stripped.endswith("_" + hint) \
                or stripped.endswith(hint):
            return type_name
    return None


def _param_types(func: ast.AST) -> Dict[str, Set[str]]:
    """Parameter name -> annotated type names (plus name hints)."""
    env: Dict[str, Set[str]] = {}
    args = getattr(func, "args", None)
    if args is None:
        return env
    all_args = (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs))
    for arg in all_args:
        direct, _elems = _annotation_names(arg.annotation)
        if direct:
            env[arg.arg] = direct
        else:
            hint = _hint_for(arg.arg)
            if hint:
                env[arg.arg] = {hint}
    return env


def _rhs_types(value: ast.expr, params: Dict[str, Set[str]],
               cls: ClassInfo) -> Set[str]:
    """Nominal types of a right-hand side, for attribute inference.

    Handles ``ClassName(...)``, annotated parameters, ``a or b``
    fallbacks and conditional expressions.
    """
    out: Set[str] = set()
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            # ``cls(...)`` in a classmethod builds the enclosing class
            out.add(cls.name if func.id == "cls" else func.id)
        elif isinstance(func, ast.Attribute) \
                and func.attr[:1].isupper():
            out.add(func.attr)
    elif isinstance(value, ast.Attribute):
        inner = value.value
        if isinstance(inner, ast.Attribute) \
                and isinstance(inner.value, ast.Name) \
                and inner.value.id == "self":
            # ``self.a.b``: record a deferred chain, resolved by
            # Program.attr_types once every class is indexed
            out.add("@chain:%s.%s" % (inner.attr, value.attr))
    elif isinstance(value, ast.Name):
        out |= params.get(value.id, set())
        if not out:
            hint = _hint_for(value.id)
            if hint:
                out.add(hint)
    elif isinstance(value, ast.BoolOp):
        for operand in value.values:
            out |= _rhs_types(operand, params, cls)
    elif isinstance(value, ast.IfExp):
        out |= _rhs_types(value.body, params, cls)
        out |= _rhs_types(value.orelse, params, cls)
    return {t for t in out if t[:1].isupper() or t == "<callable>"
            or t.startswith("@chain:")}
