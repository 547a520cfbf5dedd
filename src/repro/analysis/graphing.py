"""Whole-program symbol table, import graph, and approximate call graph.

The analyzer parses every scanned file once into a :class:`ModuleInfo`.
The per-file rules (:mod:`repro.analysis.rules`) look at one module at a
time; the architectural rules (:mod:`repro.analysis.rules.arch`) need the
*project*: which package imports which, where a name is defined, and
what is reachable from an event loop.  :func:`build_project` indexes the
modules under a package root and answers those questions — module-level
name resolution over the AST, no execution — so whole-program rules are
~50-line visitors over a prebuilt :class:`ProjectGraph`.

Resolution is deliberately approximate and documented as such:

* imports (absolute and relative) resolve to project modules exactly;
* ``name(...)`` calls resolve through module-level imports and defs;
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class and
  its statically-resolvable bases;
* ``ClassName(...)`` resolves to ``ClassName.__init__``;
* other attribute calls (``obj.m()``) resolve only when exactly one
  function in the whole project is named ``m`` — ambiguous names stay
  unresolved rather than guessing.

Unresolved calls never extend reachability; the rules built on top are
therefore conservative in what they *prove* reachable, which is the
right direction for a gate (a missed edge is a missed finding, not a
false alarm).

This module must stay import-light (stdlib only): it runs in CI before
anything heavy is warmed up.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .rules import dotted_name

__all__ = ["ModuleInfo", "ImportEdge", "FunctionInfo", "CallSite",
           "ProjectGraph", "build_project"]

#: Names the unique-tail call fallback must never follow: methods of
#: builtin containers/strings (``token.partition(...)`` is
#: ``str.partition``, not a project function that happens to share the
#: name) plus the common ndarray methods, since numpy itself is not
#: parsed into the project graph.
_BUILTIN_METHOD_NAMES = frozenset(
    name for obj in (str, bytes, dict, list, set, tuple, frozenset)
    for name in dir(obj) if not name.startswith("_")
) | frozenset({
    "sum", "mean", "max", "min", "item", "astype", "reshape",
    "ravel", "tolist", "argsort", "clip", "take", "fill", "dot",
    "cumsum", "nonzero", "any", "all", "round", "std", "var",
    "searchsorted", "repeat", "flatten", "squeeze", "view",
})


@dataclass
class ImportEdge:
    """One import statement, resolved to an absolute dotted target."""

    source: str            #: importing module (dotted)
    target: str            #: imported module (dotted, best effort)
    names: list            #: [(name, bound-as)] for ``from X import a``
    lineno: int
    col: int
    lazy: bool             #: inside a function body (deferred import)
    node: ast.AST = field(repr=False, default=None)


@dataclass
class CallSite:
    """One call expression inside a function (or module) body."""

    dotted: str            #: ``a.b.c`` for the callee, or None
    tail: str              #: final name component (for fallback lookup)
    node: ast.AST = field(repr=False, default=None)


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str          #: ``repro.fleet.engine.FleetEngine._run``
    module: str
    name: str
    class_name: str        #: enclosing class, or None
    node: ast.AST = field(repr=False, default=None)
    calls: list = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed file: everything a rule may inspect about it, plus
    what the project graph records for modules under the package root."""

    path: str              #: display path (posix, cwd-relative)
    tree: ast.AST = field(repr=False, default=None)
    lines: list = field(default_factory=list, repr=False)
    name: str = None       #: dotted module name (``repro.fleet.engine``)
    package: str = None    #: first component under the root package
    #: module-level bindings: name -> ("function"|"class", node) |
    #: ("module", target) | ("object", "target.attr") |
    #: ("assign", value-node)
    symbols: dict = field(default_factory=dict, repr=False)
    #: class name -> {method name -> FunctionInfo}
    classes: dict = field(default_factory=dict, repr=False)
    #: class name -> [base-name expressions (dotted strings)]
    bases: dict = field(default_factory=dict, repr=False)

    @cached_property
    def nodes(self):
        """Every node of ``tree`` in :func:`ast.walk` order, walked once
        for all the rules."""
        return list(ast.walk(self.tree))

    @cached_property
    def _parents(self):
        return {inner: outer for outer in self.nodes
                for inner in ast.iter_child_nodes(outer)}

    def line_text(self, lineno):
        """Stripped source text of physical line ``lineno`` (1-based)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent(self, node):
        """The AST parent of ``node`` (None for the module node)."""
        return self._parents.get(node)

    def in_parts(self, name):
        """True if ``name`` is a path component of this file."""
        return name in self.path.replace("\\", "/").split("/")


class ProjectGraph:
    """Parsed project: modules, imports, symbols, approximate calls."""

    def __init__(self, package, files=()):
        self.package = package
        self.files = list(files)  #: every scanned ModuleInfo
        self.modules = {}        #: dotted name -> ModuleInfo
        self.imports = []        #: [ImportEdge]
        self.functions = {}      #: qualname -> FunctionInfo
        self._by_tail = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def package_of(self, module_name):
        """The layering unit of ``module_name``: its first component
        under the root package, or the bare module name for top-level
        modules (``cli``, ``errors``) and the root ``__init__``."""
        parts = module_name.split(".")
        if parts[0] != self.package:
            return parts[0]
        if len(parts) == 1:
            return self.package
        return parts[1]

    def project_imports(self, include_lazy=False):
        """Import edges whose source and target are both project
        modules (targets resolved to the nearest known module)."""
        for edge in self.imports:
            if edge.lazy and not include_lazy:
                continue
            target = self.resolve_module(edge.target)
            if target is not None:
                yield edge, target

    def resolve_module(self, dotted):
        """The longest known module prefix of ``dotted``, or None."""
        parts = dotted.split(".")
        while parts:
            name = ".".join(parts)
            if name in self.modules:
                return name
            parts.pop()
        return None

    def functions_of_class(self, class_qualname):
        """Every method of ``module.Class`` (empty list if unknown)."""
        module, _, cls = class_qualname.rpartition(".")
        info = self.modules.get(module)
        if info is None or cls not in info.classes:
            return []
        return list(info.classes[cls].values())

    def _tail_index(self):
        if self._by_tail is None:
            index = {}
            for fn in self.functions.values():
                index.setdefault(fn.name, []).append(fn)
            self._by_tail = index
        return self._by_tail

    # ------------------------------------------------------------------
    # Name/call resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, module_name, name):
        """Module-level binding of ``name`` in ``module_name``,
        followed through one from-import: returns ``(kind, payload,
        home-module)`` or None."""
        info = self.modules.get(module_name)
        if info is None or name not in info.symbols:
            return None
        kind, payload = info.symbols[name]
        if kind == "object":
            target_module, _, target_name = payload.rpartition(".")
            home = self.resolve_module(target_module)
            if home is not None:
                # ``from X import a`` where X is a package may bind a
                # *submodule* rather than an object.
                if f"{home}.{target_name}" in self.modules \
                        and home == target_module:
                    return ("module", f"{home}.{target_name}",
                            module_name)
                target = self.modules[home].symbols.get(target_name)
                if target is not None and target[0] != "object":
                    return (target[0], target[1], home)
            return (kind, payload, module_name)
        return (kind, payload, module_name)

    def resolve_call(self, module_name, call, class_name=None):
        """The :class:`FunctionInfo` a call site dispatches to, or
        None when static resolution fails."""
        dotted = call.dotted
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and class_name and len(parts) == 2:
            return self._resolve_method(module_name, class_name,
                                        parts[1], set())
        resolved = self.resolve_symbol(module_name, parts[0])
        if resolved is None:
            return None
        kind, payload, home = resolved
        if kind == "function" and len(parts) == 1:
            return self.functions.get(f"{home}.{dotted}")
        if kind == "class":
            cls = payload.name if isinstance(payload, ast.ClassDef) \
                else parts[0]
            if len(parts) == 1:       # ClassName() -> __init__
                init = self.functions.get(f"{home}.{cls}.__init__")
                return init
            if len(parts) == 2:       # ClassName.method
                return self._resolve_method(home, cls, parts[1], set())
        if kind == "module" and len(parts) >= 2:
            target = self.resolve_module(payload)
            if target is None:
                return None
            sub = CallSite(".".join(parts[1:]), parts[-1])
            return self.resolve_call(target, sub)
        return None

    def _resolve_method(self, module_name, class_name, method, seen):
        """``method`` on ``class_name`` (following statically-known
        bases, cycle-safe)."""
        if (module_name, class_name) in seen:
            return None
        seen.add((module_name, class_name))
        info = self.modules.get(module_name)
        if info is None:
            return None
        methods = info.classes.get(class_name, {})
        if method in methods:
            return methods[method]
        for base in info.bases.get(class_name, []):
            resolved = self.resolve_symbol(module_name,
                                           base.split(".")[0])
            if resolved is None:
                continue
            kind, payload, home = resolved
            if kind == "class":
                base_cls = payload.name \
                    if isinstance(payload, ast.ClassDef) else base
                found = self._resolve_method(home, base_cls, method,
                                             seen)
                if found is not None:
                    return found
        return None

    def reachable(self, roots):
        """Qualnames of every function reachable from ``roots``.

        Each root may be a function qualname or a class qualname (all
        of its methods become roots).  Edges follow resolved calls plus
        the unique-tail fallback described in the module docstring.
        """
        frontier = []
        for root in roots:
            if root in self.functions:
                frontier.append(root)
            else:
                frontier.extend(fn.qualname
                                for fn in self.functions_of_class(root))
        seen = set()
        tails = self._tail_index()
        while frontier:
            qualname = frontier.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            fn = self.functions[qualname]
            for call in fn.calls:
                target = self.resolve_call(fn.module, call,
                                           class_name=fn.class_name)
                if target is None and call.tail \
                        and call.tail not in _BUILTIN_METHOD_NAMES:
                    candidates = tails.get(call.tail, [])
                    if len(candidates) == 1:
                        target = candidates[0]
                if target is not None and target.qualname not in seen:
                    frontier.append(target.qualname)
        return seen


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _module_name(rel, package):
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]
    return ".".join([package] + parts)


def _resolve_relative(module_name, is_package, level, target):
    """Absolute dotted target of a level-``level`` relative import
    found in ``module_name``."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


class _ModuleVisitor(ast.NodeVisitor):
    """Single pass over one module collecting symbols, imports, and
    per-function call sites."""

    def __init__(self, graph, info, is_package):
        self.graph = graph
        self.info = info
        self.is_package = is_package
        self.class_stack = []
        self.function_stack = []
        # Module-level statements execute in an implicit function.
        self.module_body = FunctionInfo(
            qualname=f"{info.name}.<module>", module=info.name,
            name="<module>", class_name=None, node=info.tree)
        graph.functions[self.module_body.qualname] = self.module_body

    # -- imports -------------------------------------------------------
    def _add_edge(self, target, names, node):
        self.graph.imports.append(ImportEdge(
            source=self.info.name, target=target, names=names,
            lineno=node.lineno, col=node.col_offset,
            lazy=bool(self.function_stack), node=node))

    def visit_Import(self, node):
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self._add_edge(alias.name, [(alias.name, bound)], node)
            if not self.function_stack and not self.class_stack:
                self.info.symbols.setdefault(
                    bound, ("module", alias.name if alias.asname
                            else alias.name.split(".")[0]))

    def visit_ImportFrom(self, node):
        if node.level:
            target = _resolve_relative(self.info.name, self.is_package,
                                       node.level, node.module or "")
        else:
            target = node.module or ""
        names = [(alias.name, alias.asname or alias.name)
                 for alias in node.names]
        self._add_edge(target, names, node)
        if not self.function_stack and not self.class_stack:
            for name, bound in names:
                if name == "*":
                    continue
                self.info.symbols.setdefault(
                    bound, ("object", f"{target}.{name}"))

    # -- definitions ---------------------------------------------------
    def _enter_function(self, node):
        cls = self.class_stack[-1] if self.class_stack else None
        prefix = f"{self.info.name}." + (f"{cls}." if cls else "")
        fn = FunctionInfo(qualname=prefix + node.name,
                          module=self.info.name, name=node.name,
                          class_name=cls, node=node)
        # Nested functions fold into their parent's call record; only
        # top-of-class/module functions are addressable.
        if not self.function_stack:
            self.graph.functions.setdefault(fn.qualname, fn)
            if cls:
                self.info.classes.setdefault(cls, {}) \
                    .setdefault(node.name, fn)
            elif not self.class_stack:
                self.info.symbols.setdefault(node.name,
                                             ("function", node))
            self.function_stack.append(fn)
        else:
            self.function_stack.append(self.function_stack[-1])
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.function_stack.pop()

    def visit_FunctionDef(self, node):
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node):
        self._enter_function(node)

    def visit_ClassDef(self, node):
        if not self.class_stack and not self.function_stack:
            self.info.symbols.setdefault(node.name, ("class", node))
            self.info.classes.setdefault(node.name, {})
            self.info.bases[node.name] = [
                name for name in (dotted_name(base)
                                  for base in node.bases)
                if name is not None]
        self.class_stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.class_stack.pop()

    def visit_Assign(self, node):
        if not self.function_stack and not self.class_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.info.symbols.setdefault(
                        target.id, ("assign", node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if not self.function_stack and not self.class_stack \
                and isinstance(node.target, ast.Name) \
                and node.value is not None:
            self.info.symbols.setdefault(node.target.id,
                                         ("assign", node.value))
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node):
        dotted = dotted_name(node.func)
        if isinstance(node.func, ast.Attribute):
            tail = node.func.attr
        elif isinstance(node.func, ast.Name):
            tail = node.func.id
        else:
            tail = None
        owner = self.function_stack[-1] if self.function_stack \
            else self.module_body
        owner.calls.append(CallSite(dotted=dotted, tail=tail,
                                    node=node))
        self.generic_visit(node)


def build_project(files, root=None, package=None):
    """The :class:`ProjectGraph` over already-parsed ``files``.

    ``files`` are :class:`ModuleInfo` records with ``path``/``tree``
    set; they all become ``graph.files``.  Those under the package
    source directory ``root`` (e.g. ``src/repro``) are also indexed as
    the package's modules — named, symbol-tabled, call-recorded.
    ``package`` defaults to ``root``'s directory name.
    """
    if root is None:
        return ProjectGraph(package, files)
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"package root does not exist: {root}")
    graph = ProjectGraph(package or root.name, files)
    root = root.resolve()
    for info in graph.files:
        try:
            rel = Path(info.path).resolve().relative_to(root)
        except ValueError:
            continue
        info.name = _module_name(rel, graph.package)
        graph.modules[info.name] = info
        _ModuleVisitor(graph, info, rel.name == "__init__.py") \
            .visit(info.tree)
    for info in graph.modules.values():
        info.package = graph.package_of(info.name)
    return graph
