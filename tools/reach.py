"""List the public code that no entrypoint reaches.

The roots are the programs a user runs: ``repro.cli`` (with
``repro.__main__``), ``repro.bench``, and every file under
``benchmarks/``, ``examples/`` and ``tools/``.  From them the scan
follows *references* over :func:`repro.analysis.graphing.build_project`'s
parse and symbol tables, not only resolved calls, so a missed edge keeps
code alive instead of condemning it:

* a name resolves as Python resolves it: a function's locals shadow the
  module's bindings, which follow imports to the def they bind; a name
  that no scope binds (a class-body name, a run-time global) reaches
  every def so called;
* an attribute ``x.name`` reaches every def and method called ``name``,
  unless ``x`` is a module from outside the project (``np.tanh``);
* an identifier-valued string reaches every def so called, and a string
  naming a project module imports it: this is how ``BENCHES`` and the
  record's probes name their targets;
* an import runs the module-level code of the imported module and its
  packages.  At module level in ``src/repro`` it references no def: a
  re-export is not a use.

Reached with no reference: the module-level code of a reached module, a
def whose decorator is project code (its registration runs at import),
the special methods of a reached class and the ``visit_*`` methods of a
reached :class:`ast.NodeVisitor` subclass.  ``__all__`` lists and bare
strings (docstrings) reference nothing.

Prints every public def, class and method that no root reaches, with
its counted lines (``tools/count_lines.py``'s rule), and exits 1 when a
listed name is not in the allowlist ``tools/reach_allow.txt`` or an
allowlist entry names something reached or gone::

    python tools/reach.py

An allowlist line is ``<qualified name>  <reason>: <why>``, ``<reason>``
one of :data:`REASONS`; the file holds at most :data:`MAX_ALLOWED`
entries.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path

from count_lines import counted_lines

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.graphing import ModuleInfo, build_project  # noqa: E402
from repro.analysis.rules import dotted_name  # noqa: E402

ROOT_MODULES = ("repro.cli", "repro.__main__", "repro.bench")
ROOT_DIRS = ("benchmarks", "examples", "tools")
ALLOWLIST = Path(__file__).resolve().with_name("reach_allow.txt")
#: Why an unreached def may stay: the composed reference a shipped fast
#: path is tested against, a README-documented door for outside data or
#: output, or state the tests read to check invariants of live code.
REASONS = ("oracle", "door", "invariant")
MAX_ALLOWED = 15

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_BUILTINS = frozenset(dir(builtins))


def _parse(path):
    source = Path(path).read_text(encoding="utf-8")
    return ModuleInfo(path=str(path), tree=ast.parse(source),
                      lines=source.splitlines())


class _Scope:
    """One scope while its body is read: the names it binds and the
    ``name`` / ``name.attr`` reads not yet known to be local."""

    def __init__(self, bound=()):
        self.bound = set(bound)
        self.declared = set()     # ``global`` / ``nonlocal``
        self.names = []
        self.attrs = []


class Refs:
    """What one body references.  ``top`` holds the reads that no
    function scope inside the body binds, for the module to resolve."""

    def __init__(self, modules, edges, uses=True):
        self.modules = modules    # project module names
        self.edges = edges        # ImportFrom node -> absolute target
        self.uses = uses          # does a from-import use what it binds?
        self.tails = set()
        self.imports = set()
        self.froms = []           # (module, name) used through an import
        self.direct = set()
        self.top = _Scope()

    def collect(self, node, scope):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                scope.names.append(node.id)
            else:
                scope.bound.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                scope.attrs.append((node.value.id, node.attr))
            else:
                self.tails.add(node.attr)
                self.collect(node.value, scope)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                if node.value.isidentifier():
                    self.tails.add(node.value)
                elif node.value in self.modules:
                    self.imports.add(node.value)
        elif isinstance(node, _FUNCTIONS):
            self._function(node, scope)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                self.imports.add(alias.name)
                scope.bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            target = self.edges.get(node, node.module or "")
            self.imports.add(target)
            for alias in node.names:
                scope.bound.add(alias.asname or alias.name)
                if self.uses or f"{target}.{alias.name}" in self.modules:
                    self.froms.append((target, alias.name))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            scope.declared.update(node.names)
        elif not (isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)):
            # (a bare string is a docstring: it references nothing)
            if isinstance(node, ast.ClassDef):
                scope.bound.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                scope.bound.add(node.name)
            for child in ast.iter_child_nodes(node):
                self.collect(child, scope)

    def _function(self, node, scope):
        """Decorators, defaults and annotations read ``scope``; the
        body reads its own scope, whose locals shadow ``scope``."""
        if not isinstance(node, ast.Lambda):
            scope.bound.add(node.name)
            for outer in (*node.decorator_list, node.returns):
                if outer is not None:
                    self.collect(outer, scope)
        self.collect(node.args, scope)
        args = node.args
        inner = _Scope(arg.arg for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
            args.kwarg) if arg is not None)
        for statement in node.body if isinstance(node.body, list) \
                else [node.body]:
            self.collect(statement, inner)
        local = inner.bound - inner.declared
        scope.names.extend(name for name in inner.names
                           if name not in local)
        for base, attr in inner.attrs:
            if base in local:
                self.tails.add(attr)
            else:
                scope.attrs.append((base, attr))


class Unit:
    """One module-level def or class, or one method."""

    def __init__(self, module, node, class_name=None):
        self.module = module
        self.node = node
        self.class_name = class_name
        self.name = node.name
        self.owner = f"{module}.{class_name}" if class_name else None
        self.key = f"{self.owner or module}.{node.name}"
        self.refs = None

    @property
    def public(self):
        return not self.name.startswith("_") and not (
            self.class_name or "").startswith("_")


class Reach:
    """References followed from the roots to a fixpoint."""

    def __init__(self, package_root, root_files, root_modules=ROOT_MODULES):
        package_root = Path(package_root)
        self.graph = build_project(
            [_parse(path) for path in sorted(package_root.rglob("*.py"))],
            root=package_root)
        self.package = self.graph.package
        self.edges = {edge.node: edge.target for edge in self.graph.imports}
        self.units = {}
        self.module_refs = {}
        for info in self.graph.modules.values():
            self._index(info)
        self.modules = set()    # modules whose top-level code ran
        self.direct = set()     # unit keys named through a binding
        self.tails = set()      # unbound names, attributes, strings
        self.reached = set()
        for name in root_modules:
            self._import(name)
            self.direct.update(key for key, unit in self.units.items()
                               if unit.module == name)
        for path in root_files:
            self._add(self._root_refs(_parse(path)))
        self._fixpoint()

    # -- indexing ------------------------------------------------------
    def _index(self, info):
        """The units of one project module and every body's refs."""
        top = [Unit(info.name, node)
               for kind, node in info.symbols.values()
               if kind in ("function", "class")]
        for unit in top:
            self.units[unit.key] = unit
            body = [unit.node]
            if isinstance(unit.node, ast.ClassDef):
                methods = {fn.node: Unit(info.name, fn.node, unit.name)
                           for fn in info.classes[unit.name].values()}
                for method in methods.values():
                    method.refs = self._refs(info, [method.node])
                    self.units[method.key] = method
                node = unit.node
                body = [*node.decorator_list, *node.bases, *node.keywords,
                        *(stmt for stmt in node.body
                          if stmt not in methods)]
            unit.refs = self._refs(info, body)
        defs = {unit.node for unit in top}
        self.module_refs[info.name] = self._refs(
            info, [stmt for stmt in info.tree.body
                   if stmt not in defs and not _is_all(stmt)], uses=False)

    def _refs(self, info, nodes, uses=True):
        refs = Refs(self.graph.modules, self.edges, uses)
        for node in nodes:
            refs.collect(node, refs.top)
        return self._settle(
            refs, lambda name: self._resolve(info.name, name),
            lambda name: name not in info.symbols
            and name not in _BUILTINS)

    def _root_refs(self, info):
        """References of one root file: all of it runs."""
        bindings = _file_bindings(info.tree)
        refs = Refs(self.graph.modules, {})
        for node in info.tree.body:
            refs.collect(node, refs.top)
        local = refs.top.bound - set(bindings)

        def resolve(name):
            target = bindings.get(name)
            if target is None:      # the file's own def or variable
                return None
            if target in self.graph.modules:
                return ("module", target)
            home, _, attr = target.rpartition(".")
            if self.graph.resolve_module(home) == home:
                return self._resolve(home, attr)
            return ("outside", target)

        return self._settle(refs, resolve, lambda name: (
            name not in bindings and name not in local
            and name not in _BUILTINS))

    def _settle(self, refs, resolve, unbound):
        """Resolve ``refs``' open reads: ``resolve(name)`` for a name
        the module binds, a tail for one ``unbound(name)`` says no scope
        binds."""
        for name in refs.top.names:
            if unbound(name):
                refs.tails.add(name)
            else:
                self._note(refs, resolve(name))
        for base, attr in refs.top.attrs:
            resolved = None if unbound(base) else resolve(base)
            if resolved is None or resolved[0] != "outside":
                refs.tails.add(attr)
            self._note(refs, resolved)
        for module, name in refs.froms:
            resolved = self._resolve(module, name)
            if resolved is None and module in self.graph.modules:
                refs.tails.add(name)    # bound at run time (``__getattr__``)
            self._note(refs, resolved)
        return refs

    @staticmethod
    def _note(refs, resolved):
        if resolved is None:
            return
        kind, target = resolved
        if kind == "def":
            refs.direct.add(target)
        elif kind == "module":
            refs.imports.add(target)

    # -- resolution ----------------------------------------------------
    def _resolve(self, module, name):
        """``("def", key)``, ``("module", name)``, ``("outside", name)``
        or None for ``name`` bound at the top of project ``module``,
        following re-exports to the def."""
        for _hop in range(16):      # re-export chains are short
            resolved = self.graph.resolve_symbol(module, name)
            if resolved is None:
                submodule = f"{module}.{name}"
                return ("module", submodule) \
                    if submodule in self.graph.modules else None
            kind, payload, home = resolved
            if kind in ("function", "class"):
                return ("def", f"{home}.{payload.name}")
            if kind == "module":
                inside = payload.split(".")[0] == self.package
                return ("module" if inside else "outside", payload)
            if kind != "object":
                return None
            module, _, name = payload.rpartition(".")
            if self.graph.resolve_module(module) is None:
                return ("outside", payload)
        return None

    def _import(self, dotted):
        """Run ``dotted``'s module code and its packages'."""
        parts = dotted.split(".")
        for end in range(1, len(parts) + 1):
            name = ".".join(parts[:end])
            if name in self.graph.modules and name not in self.modules:
                self.modules.add(name)
                self._add(self.module_refs[name])

    def _add(self, refs):
        self.tails |= refs.tails
        self.direct |= refs.direct
        for module in refs.imports:
            self._import(module)
        for key in refs.direct:
            self._import(key.rpartition(".")[0])

    # -- liveness ------------------------------------------------------
    def _live(self, unit):
        if unit.key in self.direct:
            return True
        if unit.owner is None:
            return unit.name in self.tails or (
                unit.module in self.modules and self._registers(unit))
        if unit.owner not in self.reached:
            return False
        name = unit.name
        return (name in self.tails
                or (name.startswith("__") and name.endswith("__"))
                or (name.startswith("visit_")
                    and self._is_visitor(unit.module, unit.class_name)))

    def _registers(self, unit):
        """True when a decorator of ``unit`` is project code."""
        for decorator in unit.node.decorator_list:
            if isinstance(decorator, ast.Call):
                decorator = decorator.func
            dotted = dotted_name(decorator)
            if dotted is not None and (self._resolve(
                    unit.module, dotted.split(".")[0]) or ("",))[0] \
                    == "def":
                return True
        return False

    def _is_visitor(self, module, class_name, depth=0):
        for base in self.graph.modules[module].bases.get(class_name, ()):
            if base.rpartition(".")[2] in ("NodeVisitor",
                                           "NodeTransformer"):
                return True
            resolved = self._resolve(module, base.split(".")[0])
            if resolved and resolved[0] == "def" and depth < 16:
                home, _, name = resolved[1].rpartition(".")
                if self._is_visitor(home, name, depth + 1):
                    return True
        return False

    def _fixpoint(self):
        changed = True
        while changed:
            changed = False
            for key, unit in self.units.items():
                if key not in self.reached and self._live(unit):
                    self.reached.add(key)
                    self._import(unit.module)
                    self._add(unit.refs)
                    changed = True

    # -- report --------------------------------------------------------
    def unreached(self):
        """``{key: counted lines}`` of every public unit no root
        reaches; a method is listed only when its class is reached."""
        found = {}
        counted = {}
        for key, unit in self.units.items():
            if key in self.reached or not unit.public or (
                    unit.owner is not None
                    and unit.owner not in self.reached):
                continue
            info = self.graph.modules[unit.module]
            if info.path not in counted:
                counted[info.path] = counted_lines("\n".join(info.lines))
            first = min([unit.node.lineno] + [
                decorator.lineno for decorator in unit.node.decorator_list])
            found[key] = len(counted[info.path] & set(
                range(first, unit.node.end_lineno + 1)))
        return found


def _is_all(node):
    targets = node.targets if isinstance(node, ast.Assign) \
        else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)


def _file_bindings(tree):
    """``{bound name: dotted target}`` for every import in ``tree``."""
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                bindings[bound] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return bindings


def root_files(root=ROOT, dirs=ROOT_DIRS):
    """Every ``.py`` file under the root directories."""
    return [path for name in dirs
            for path in sorted((Path(root) / name).rglob("*.py"))]


def read_allowlist(path=ALLOWLIST):
    """``{key: reason}`` from the allowlist; raises ``ValueError`` on an
    unknown reason or too many entries."""
    entries = {}
    for number, line in enumerate(Path(path).read_text(
            encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        reason = reason.strip()
        if reason.partition(":")[0] not in REASONS:
            raise ValueError(f"{path}:{number}: reason must start with "
                             f"one of {', '.join(REASONS)}: {line}")
        entries[key] = reason
    if len(entries) > MAX_ALLOWED:
        raise ValueError(f"{path}: {len(entries)} entries, at most "
                         f"{MAX_ALLOWED} allowed")
    return entries


def check(unreached, allowed):
    """The problems that fail the gate: unreached names missing from
    the allowlist and allowlist entries that are reached or gone."""
    problems = [f"unreached and not allowlisted: {key}"
                for key in sorted(unreached) if key not in allowed]
    problems += [f"stale allowlist entry (reached or gone): {key}"
                 for key in sorted(allowed) if key not in unreached]
    return problems


def main(root=ROOT, allowlist=ALLOWLIST, out=sys.stdout):
    unreached = Reach(Path(root) / "src" / "repro",
                      root_files(root)).unreached()
    allowed = read_allowlist(allowlist)
    for key, lines in sorted(unreached.items()):
        mark = "allowed" if key in allowed else "UNREACHED"
        print(f"{lines:5d}  {mark:9s}  {key}", file=out)
    print(f"{sum(unreached.values()):5d}  {len(unreached)} unreached "
          f"public defs, {len(set(unreached) - set(allowed))} not "
          f"allowlisted", file=out)
    problems = check(unreached, allowed)
    for problem in problems:
        print(problem, file=out)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
