"""Architectural rules (ARC001–ARC006) over the project graph.

Unlike the per-file ``RPRnnn`` rules, these run against a whole-program
:class:`~repro.analysis.graphing.ProjectGraph` plus the checked-in
contract (``layers.toml``).  They live in their own registry so the
per-file linter never pays for a project parse; the ``repro arch-lint``
driver (:mod:`repro.analysis.arch`) is the only consumer.

Each rule is a function ``(graph, config) -> iter[Finding]`` registered
with :func:`arch_register`.  Resolution caveats are inherited from
:mod:`repro.analysis.graphing`: the call graph is approximate and
conservative, so ARC004 proves reachability rather than guessing it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from . import Finding, dotted_name

__all__ = ["ArchRule", "arch_register", "arch_rules",
           "arch_rule_table"]

_ARCH_REGISTRY = {}


@dataclass(frozen=True)
class ArchRule:
    """One whole-program rule: identity plus the check function."""

    rule_id: str
    severity: str
    title: str
    hint: str
    rationale: str
    func: object

    def findings(self, graph, config):
        yield from self.func(self, graph, config)


def arch_register(rule_id, severity, title, hint, rationale=""):
    """Decorator registering a check function as an :class:`ArchRule`."""
    def wrap(func):
        if rule_id in _ARCH_REGISTRY:
            raise ValueError(f"duplicate arch rule id {rule_id}")
        _ARCH_REGISTRY[rule_id] = ArchRule(
            rule_id=rule_id, severity=severity, title=title, hint=hint,
            rationale=rationale, func=func)
        return func
    return wrap


def arch_rules():
    """Every registered architectural rule, ordered by id."""
    return [_ARCH_REGISTRY[rule_id]
            for rule_id in sorted(_ARCH_REGISTRY)]


def arch_rule_table():
    """id/severity/title/hint/rationale rows for docs and JSON."""
    rows = [{"rule": "ARC000", "severity": "error",
             "title": "file does not parse",
             "hint": "fix the syntax error",
             "rationale": "a syntax error must fail the gate, not "
                          "the analyzer"}]
    for rule_id in sorted(_ARCH_REGISTRY):
        rule = _ARCH_REGISTRY[rule_id]
        rows.append({"rule": rule.rule_id, "severity": rule.severity,
                     "title": rule.title, "hint": rule.hint,
                     "rationale": rule.rationale})
    return rows


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _make(rule, info, node_or_line, message):
    if isinstance(node_or_line, int):
        line, col = node_or_line, 0
    else:
        line = getattr(node_or_line, "lineno", 1)
        col = getattr(node_or_line, "col_offset", 0)
    return Finding(rule=rule.rule_id, severity=rule.severity,
                   path=info.path, line=line, col=col,
                   message=message, hint=rule.hint,
                   snippet=info.line_text(line))


def _path_allowed(info, allow_files):
    path = info.path
    return any(path.endswith(allowed) for allowed in allow_files)


def _scoped_modules(graph, options):
    """Modules selected by a rule's ``packages``/``modules`` options,
    minus its ``allow_files``."""
    packages = set(options.get("packages", []))
    modules = options.get("modules", [])
    allow = options.get("allow_files", [])
    for info in graph.modules.values():
        if _path_allowed(info, allow):
            continue
        if info.package in packages \
                or any(info.path.endswith(m) for m in modules):
            yield info


def _real_functions(graph, module_name):
    """Addressable functions of ``module_name`` (module bodies are
    represented separately as ``<module>`` pseudo-functions)."""
    for fn in graph.functions.values():
        if fn.module == module_name and fn.name != "<module>":
            yield fn


# ----------------------------------------------------------------------
# ARC001 — layering contract
# ----------------------------------------------------------------------
@arch_register(
    "ARC001", "error", "layering contract violation",
    "import downward only; use a function-level (lazy) import to "
    "defer a sanctioned upward edge, or move the code down a layer",
    "the package DAG in layers.toml is what keeps the kernels, "
    "transfer, and serving seams independently testable; one upward "
    "module-level import re-tangles them")
def _check_layering(rule, graph, config):
    allowed = config.allowed_pairs()
    undeclared = set()
    for edge, target in graph.project_imports(include_lazy=False):
        src_pkg = graph.package_of(edge.source)
        dst_pkg = graph.package_of(target)
        if src_pkg == dst_pkg:
            continue
        info = graph.modules[edge.source]
        src_level = config.level_of(src_pkg)
        dst_level = config.level_of(dst_pkg)
        for package, level in ((src_pkg, src_level),
                               (dst_pkg, dst_level)):
            if level is None and package not in undeclared:
                undeclared.add(package)
                yield _make(rule, info, edge.lineno,
                            f"package '{package}' is not declared in "
                            f"any [[layer]] of {config.path}")
        if src_level is None or dst_level is None:
            continue
        if src_level < dst_level:
            yield _make(rule, info, edge.lineno,
                        f"upward import: {src_pkg} (level {src_level}) "
                        f"imports {dst_pkg} (level {dst_level}) at "
                        f"module scope")
        elif src_level == dst_level \
                and (src_pkg, dst_pkg) not in allowed:
            yield _make(rule, info, edge.lineno,
                        f"same-level import: {src_pkg} -> {dst_pkg} "
                        f"(level {src_level}) is not in the allowed "
                        f"list")


# ----------------------------------------------------------------------
# ARC002 — kernel-seam bypass
# ----------------------------------------------------------------------
_SCATTER_UFUNCS = {"add", "subtract", "maximum", "minimum",
                   "multiply"}


def _numpy_binding(info, head):
    sym = info.symbols.get(head)
    if sym is None:
        return None
    kind, payload = sym
    if kind == "module" and payload in ("numpy", "np"):
        return "numpy"
    if kind == "module" and str(payload).startswith("numpy"):
        return str(payload)
    if kind == "object" and str(payload).startswith("numpy."):
        return str(payload)
    return None


def _scipy_binding(info, head):
    sym = info.symbols.get(head)
    if sym is None:
        return None
    kind, payload = sym
    if str(payload).split(".")[0] == "scipy":
        return str(payload)
    return None


@arch_register(
    "ARC002", "error", "kernel-seam bypass",
    "route sparse aggregation through repro.kernels "
    "(gspmm/gsddmm/edge_softmax) so backend selection, autograd, and "
    "bit-identity guarantees apply",
    "PR 9 made repro.kernels the single aggregation seam; a stray "
    "scipy matmul or ufunc-.at scatter silently skips backend "
    "dispatch and the conformance suite")
def _check_kernel_seam(rule, graph, config):
    options = config.rule("ARC002")
    for info in _scoped_modules(graph, options):
        # Any scipy import in a kernel-consuming package is a bypass
        # vector, lazy or not: scipy objects only enter through here.
        for edge in graph.imports:
            if edge.source != info.name:
                continue
            if edge.target.split(".")[0] == "scipy":
                yield _make(rule, info, edge.lineno,
                            f"scipy import in '{info.package}' "
                            f"(outside repro.kernels)")
        for fn in graph.functions.values():
            if fn.module != info.name:
                continue
            for call in fn.calls:
                if call.dotted is None:
                    continue
                parts = call.dotted.split(".")
                # np.add.at(...) / np.maximum.at(...) scatter loops.
                if call.tail == "at":
                    binding = _numpy_binding(info, parts[0])
                    if binding and len(parts) == 3 \
                            and parts[1] in _SCATTER_UFUNCS:
                        yield _make(rule, info, call.node,
                                    f"scatter aggregation "
                                    f"{call.dotted}(...) outside "
                                    f"repro.kernels")
                    elif binding and len(parts) == 2 \
                            and binding.split(".")[-1] \
                            in _SCATTER_UFUNCS:
                        yield _make(rule, info, call.node,
                                    f"scatter aggregation "
                                    f"{call.dotted}(...) outside "
                                    f"repro.kernels")
                # sp.csr_matrix(...) and friends via import aliases.
                elif _scipy_binding(info, parts[0]):
                    yield _make(rule, info, call.node,
                                f"scipy call {call.dotted}(...) in "
                                f"'{info.package}' (outside "
                                f"repro.kernels)")


# ----------------------------------------------------------------------
# ARC003 — billing bypass
# ----------------------------------------------------------------------
@arch_register(
    "ARC003", "error", "feature-fetch billing bypass",
    "fetch rows through TieredCache.lookup + bill (or fetch_seconds, "
    "which does both) so the transfer cost model sees the read",
    "the paper's transfer-volume accounting (and every cache bench) "
    "assumes feature reads in the serve/fleet/trainer fetch paths "
    "are billed; a direct store index undercounts transfer seconds")
def _check_billing(rule, graph, config):
    options = config.rule("ARC003")
    store_attrs = set(options.get("store_attrs", []))
    billing = set(options.get("billing_calls", []))
    for info in _scoped_modules(graph, options):
        for fn in _real_functions(graph, info.name):
            bills = any(call.tail in billing for call in fn.calls)
            if bills:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Subscript) \
                        or not isinstance(node.ctx, ast.Load):
                    continue
                value = node.value
                if isinstance(value, ast.Attribute) \
                        and value.attr in store_attrs:
                    yield _make(rule, info, node,
                                f"direct read of "
                                f"'{dotted_name(value) or value.attr}'"
                                f" in {fn.qualname} without a billing "
                                f"call ({', '.join(sorted(billing))})")


# ----------------------------------------------------------------------
# ARC004 — simulated-clock purity
# ----------------------------------------------------------------------
_DATETIME_NOW = {"now", "utcnow", "today"}

#: Deterministic RNG *constructors*: building a generator from an
#: explicit seed is fine on the simulated clock (unseeded construction
#: is RPR001's beat); only ambient *draws* break replay.
_RNG_CONSTRUCTORS = {"default_rng", "SeedSequence", "RandomState",
                     "Generator", "PCG64", "Philox", "Random",
                     "seed"}


def _banned_clock_call(info, call):
    """Message if ``call`` reads the wall clock or a module-level RNG,
    else None."""
    if call.tail == "wall_clock":
        return ("wall_clock() reads the host clock; event-loop code "
                "must use the simulated clock")
    if call.dotted is None:
        return None
    parts = call.dotted.split(".")
    sym = info.symbols.get(parts[0])
    if sym is None:
        return None
    kind, payload = sym
    payload = str(payload)
    if kind == "module":
        if payload == "time" and len(parts) >= 2:
            return f"time.{parts[-1]}() reads the host clock"
        if payload == "datetime" and call.tail in _DATETIME_NOW:
            return f"{call.dotted}() reads the host clock"
        if payload == "random" and len(parts) >= 2 \
                and call.tail not in _RNG_CONSTRUCTORS:
            return (f"random.{parts[-1]}() draws from the module-level "
                    f"RNG; thread a seeded Generator")
        if payload in ("numpy", "np") and len(parts) >= 3 \
                and parts[1] == "random" \
                and call.tail not in _RNG_CONSTRUCTORS:
            return (f"{call.dotted}() draws from numpy's module-level "
                    f"RNG; thread a seeded Generator")
    elif kind == "object":
        if payload.startswith("time."):
            return f"{payload}() reads the host clock"
        if payload.startswith("datetime.") \
                and call.tail in _DATETIME_NOW:
            return f"{payload}.{call.tail}() reads the host clock"
        if payload.startswith("random.") \
                and payload.split(".")[-1] not in _RNG_CONSTRUCTORS:
            return (f"{payload}() draws from the module-level RNG; "
                    f"thread a seeded Generator")
    return None


@arch_register(
    "ARC004", "error", "wall clock / ambient RNG in simulated path",
    "event-loop-reachable code must take time from the engine's "
    "simulated clock and randomness from an injected seeded Generator",
    "fleet/faults benches replay bit-exactly only because every event "
    "is ordered by the simulated clock; one time.time() or ambient "
    "RNG draw in a reachable helper breaks replay nondeterministically")
def _check_simulated_clock(rule, graph, config):
    options = config.rule("ARC004")
    roots = options.get("roots", [])
    allow = options.get("allow_files", [])
    for qualname in sorted(graph.reachable(roots)):
        fn = graph.functions[qualname]
        info = graph.modules.get(fn.module)
        if info is None or _path_allowed(info, allow):
            continue
        for call in fn.calls:
            message = _banned_clock_call(info, call)
            if message is not None:
                yield _make(rule, info, call.node,
                            f"{message} (reachable from "
                            f"{' / '.join(roots)} via {qualname})")


# ----------------------------------------------------------------------
# ARC005 — interprocedural RNG provenance
# ----------------------------------------------------------------------
def _rng_factory(info, dotted):
    """True for ``np.random.default_rng`` / ``RandomState`` /
    ``random.Random`` constructor calls, through import aliases."""
    if dotted is None:
        return False
    parts = dotted.split(".")
    sym = info.symbols.get(parts[0])
    if sym is None:
        return False
    kind, payload = sym
    payload = str(payload)
    rest = parts[1:]
    if kind == "module":
        if payload in ("numpy", "np"):
            return rest in (["random", "default_rng"],
                            ["random", "RandomState"])
        if payload == "numpy.random":
            return rest in (["default_rng"], ["RandomState"])
        if payload == "random":
            return rest == ["Random"]
    elif kind == "object":
        if payload in ("numpy.random.default_rng",
                       "numpy.random.RandomState", "random.Random"):
            return not rest
    return False


@arch_register(
    "ARC005", "error", "RNG not threaded across function boundary",
    "construct the Generator once from the run seed and pass it as a "
    "parameter; never at module scope or in a default argument",
    "RPR001 catches unseeded construction inside one function; this "
    "closes the interprocedural holes — a module-level Generator is "
    "shared mutable stream state across every caller, and a "
    "default-argument Generator is constructed once at def time, so "
    "per-run seeding never reaches the draw sites")
def _check_rng_provenance(rule, graph, config):
    # Pass 1: module-level RNG instances and def-time default args.
    flagged = {}   # "module.name" -> (info, name)
    for info in graph.modules.values():
        for name, (kind, payload) in info.symbols.items():
            if kind != "assign" or not isinstance(payload, ast.Call):
                continue
            if _rng_factory(info, dotted_name(payload.func)):
                flagged[f"{info.name}.{name}"] = (info, name)
                yield _make(rule, info, payload,
                            f"module-level RNG instance '{name}' is "
                            f"shared stream state across all callers")
        for fn in _real_functions(graph, info.name):
            args = fn.node.args
            defaults = list(args.defaults) \
                + [d for d in args.kw_defaults if d is not None]
            for default in defaults:
                if isinstance(default, ast.Call) and _rng_factory(
                        info, dotted_name(default.func)):
                    yield _make(rule, info, default,
                                f"RNG default argument in "
                                f"{fn.qualname} is constructed once "
                                f"at def time")
    # Pass 2: draw sites on a flagged module-level instance, including
    # through from-imports of the global.
    for info in graph.modules.values():
        local = {name for key, (home, name) in flagged.items()
                 if home is info}
        for bound, (kind, payload) in info.symbols.items():
            if kind == "object" and str(payload) in flagged:
                local.add(bound)
        if not local:
            continue
        for fn in _real_functions(graph, info.name):
            for call in fn.calls:
                if call.dotted is None:
                    continue
                parts = call.dotted.split(".")
                if len(parts) >= 2 and parts[0] in local:
                    yield _make(rule, info, call.node,
                                f"{call.dotted}(...) draws from a "
                                f"module-level RNG in {fn.qualname}; "
                                f"thread a Generator parameter")


# ----------------------------------------------------------------------
# ARC006 — public-API drift
# ----------------------------------------------------------------------
def _exported_names(info):
    """String constants of a module-level ``__all__`` list/tuple."""
    sym = info.symbols.get("__all__")
    if sym is None or sym[0] != "assign":
        return None
    node = sym[1]
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names = []
    for element in node.elts:
        if isinstance(element, ast.Constant) \
                and isinstance(element.value, str):
            names.append((element.value, element))
    return names


def _lazy_keys(info):
    """String keys of module-level dict literals — the PEP 562 lazy
    export tables consulted when the module defines ``__getattr__``."""
    keys = set()
    for name, (kind, payload) in info.symbols.items():
        if kind == "assign" and isinstance(payload, ast.Dict):
            for key in payload.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
    return keys


@arch_register(
    "ARC006", "error", "public-API drift",
    "make __all__ match reality: export only names defined in (or "
    "re-exported from within) the package, and regenerate docs/api.md "
    "(python tools/gen_api_docs.py)",
    "the API reference is generated from __all__; a phantom or "
    "foreign export turns the docs and the import surface into "
    "different systems")
def _check_api_drift(rule, graph, config):
    options = config.rule("ARC006")
    doc_path = options.get("api_doc", "docs/api.md")
    doc_text = None
    if doc_path:
        path = Path(doc_path)
        if path.exists():
            doc_text = path.read_text(encoding="utf-8")
    doc_warned = False
    for module_name in sorted(graph.modules):
        info = graph.modules[module_name]
        if not info.path.endswith("__init__.py"):
            continue
        exports = _exported_names(info)
        if exports is None:
            continue
        lazy = _lazy_keys(info) if "__getattr__" in info.symbols \
            else set()
        for name, node in exports:
            defined = name in info.symbols or name in lazy
            if not defined:
                yield _make(rule, info, node,
                            f"'{name}' is exported by __all__ but "
                            f"not defined or lazily mapped in "
                            f"{module_name}")
                continue
            if name in info.symbols:
                kind, payload = info.symbols[name]
                if kind in ("object", "module"):
                    target_module = str(payload)
                    if kind == "object":
                        target_module = target_module.rpartition(
                            ".")[0]
                    root = graph.package
                    inside = (target_module == module_name
                              or target_module.startswith(
                                  module_name + "."))
                    if module_name == root:
                        inside = (target_module == root
                                  or target_module.startswith(
                                      root + "."))
                    if not inside:
                        yield _make(
                            rule, info, node,
                            f"'{name}' is re-exported from outside "
                            f"the package ({target_module})")
                        continue
            if name.startswith("__"):
                continue   # dunders are skipped by the doc generator
            if doc_text is None:
                if not doc_warned:
                    doc_warned = True
                    yield _make(rule, info, 1,
                                f"API doc {doc_path} not found; "
                                f"run python tools/gen_api_docs.py")
                continue
            if f"`{name}`" not in doc_text:
                yield _make(rule, info, node,
                            f"'{name}' is not covered by {doc_path}")
