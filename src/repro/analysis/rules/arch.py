"""Architectural rules (ARC001–ARC006) over the project graph.

Unlike the per-file ``RPRnnn`` rules, these look at the whole package:
each overrides :meth:`~repro.analysis.rules.Rule.findings` to walk the
:class:`~repro.analysis.graphing.ProjectGraph` of ``src/repro`` against
the contract (:data:`repro.analysis.layers.CONTRACT`).  They are marked
``project = True``, so :func:`~repro.analysis.lint.lint_paths` runs
them only when the package root lies inside the scanned paths.

Resolution caveats are inherited from :mod:`repro.analysis.graphing`:
the call graph is approximate and conservative, so ARC004 proves
reachability rather than guessing it.
"""

from __future__ import annotations

import ast
from pathlib import Path

from . import Rule, dotted_name, register

__all__ = ["LayeringContract", "KernelSeamBypass", "BillingBypass",
           "SimulatedClockPurity", "RNGProvenance", "PublicApiDrift"]


class _ProjectRule(Rule):
    """A whole-program rule: runs over the package graph only."""

    severity = "error"
    project = True


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
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
@register
class LayeringContract(_ProjectRule):
    rule_id = "ARC001"
    title = "layering contract violation"
    hint = ("import downward only; use a function-level (lazy) import to "
            "defer a sanctioned upward edge, or move the code down a layer")
    rationale = ("the package DAG in the layer contract is what keeps the "
                 "kernels, transfer, and serving seams independently "
                 "testable; one upward module-level import re-tangles them")

    def findings(self, graph, contract):
        allowed = contract.allowed_pairs()
        undeclared = set()
        for edge, target in graph.project_imports(include_lazy=False):
            src_pkg = graph.package_of(edge.source)
            dst_pkg = graph.package_of(target)
            if src_pkg == dst_pkg:
                continue
            info = graph.modules[edge.source]
            src_level = contract.level_of(src_pkg)
            dst_level = contract.level_of(dst_pkg)
            for package, level in ((src_pkg, src_level),
                                   (dst_pkg, dst_level)):
                if level is None and package not in undeclared:
                    undeclared.add(package)
                    yield self.finding(
                        info, edge.lineno, f"package '{package}' is not "
                        f"declared in any layer of the contract")
            if src_level is None or dst_level is None:
                continue
            if src_level < dst_level:
                yield self.finding(
                    info, edge.lineno, f"upward import: {src_pkg} (level "
                    f"{src_level}) imports {dst_pkg} (level {dst_level}) "
                    f"at module scope")
            elif src_level == dst_level \
                    and (src_pkg, dst_pkg) not in allowed:
                yield self.finding(
                    info, edge.lineno, f"same-level import: {src_pkg} -> "
                    f"{dst_pkg} (level {src_level}) is not in the allowed "
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


@register
class KernelSeamBypass(_ProjectRule):
    rule_id = "ARC002"
    title = "kernel-seam bypass"
    hint = ("route sparse aggregation through repro.kernels "
            "(gspmm/gsddmm/edge_softmax) so its compiled kernels, "
            "counters, autograd and bit-identity guarantees apply")
    rationale = ("repro.kernels is the single aggregation seam; a stray "
                 "scipy matmul or ufunc-.at scatter silently skips the "
                 "kernel counters and the conformance suite")

    def findings(self, graph, contract):
        for info in _scoped_modules(graph, contract.rule("ARC002")):
            # Any scipy import in a kernel-consuming package is a bypass
            # vector, lazy or not: scipy objects only enter through here.
            for edge in graph.imports:
                if edge.source == info.name \
                        and edge.target.split(".")[0] == "scipy":
                    yield self.finding(info, edge.lineno,
                                       f"scipy import in '{info.package}' "
                                       f"(outside repro.kernels)")
            for fn in graph.functions.values():
                if fn.module != info.name:
                    continue
                for call in fn.calls:
                    if call.dotted is None:
                        continue
                    parts = call.dotted.split(".")
                    # np.add.at(...) / add.at(...) scatter loops.
                    if call.tail == "at":
                        binding = _numpy_binding(info, parts[0]) or ""
                        ufunc = {2: binding.split(".")[-1],
                                 3: parts[1]}.get(len(parts))
                        if binding and ufunc in _SCATTER_UFUNCS:
                            yield self.finding(
                                info, call.node, f"scatter aggregation "
                                f"{call.dotted}(...) outside repro.kernels")
                    # sp.csr_matrix(...) and friends via import aliases.
                    elif _scipy_binding(info, parts[0]):
                        yield self.finding(
                            info, call.node, f"scipy call {call.dotted}(...) "
                            f"in '{info.package}' (outside repro.kernels)")


# ----------------------------------------------------------------------
# ARC003 — billing bypass
# ----------------------------------------------------------------------
@register
class BillingBypass(_ProjectRule):
    rule_id = "ARC003"
    title = "feature-fetch billing bypass"
    hint = ("fetch rows through TieredCache.lookup + bill (or "
            "fetch_seconds, which does both) so the transfer cost model "
            "sees the read")
    rationale = ("the paper's transfer-volume accounting (and every cache "
                 "bench) assumes feature reads in the serve/fleet/trainer "
                 "fetch paths are billed; a direct store index undercounts "
                 "transfer seconds")

    def findings(self, graph, contract):
        options = contract.rule("ARC003")
        store_attrs = set(options.get("store_attrs", []))
        billing = set(options.get("billing_calls", []))
        for info in _scoped_modules(graph, options):
            for fn in _real_functions(graph, info.name):
                if any(call.tail in billing for call in fn.calls):
                    continue
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Subscript) \
                            or not isinstance(node.ctx, ast.Load):
                        continue
                    value = node.value
                    if isinstance(value, ast.Attribute) \
                            and value.attr in store_attrs:
                        yield self.finding(
                            info, node, f"direct read of "
                            f"'{dotted_name(value) or value.attr}' in "
                            f"{fn.qualname} without a billing call "
                            f"({', '.join(sorted(billing))})")


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


@register
class SimulatedClockPurity(_ProjectRule):
    rule_id = "ARC004"
    title = "wall clock / ambient RNG in simulated path"
    hint = ("event-loop-reachable code must take time from the engine's "
            "simulated clock and randomness from an injected seeded "
            "Generator")
    rationale = ("fleet/faults benches replay bit-exactly only because every "
                 "event is ordered by the simulated clock; one time.time() or "
                 "ambient RNG draw in a reachable helper breaks replay "
                 "nondeterministically")

    def findings(self, graph, contract):
        options = contract.rule("ARC004")
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
                    yield self.finding(
                        info, call.node, f"{message} (reachable from "
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


@register
class RNGProvenance(_ProjectRule):
    rule_id = "ARC005"
    title = "RNG not threaded across function boundary"
    hint = ("construct the Generator once from the run seed and pass it "
            "as a parameter; never at module scope or in a default "
            "argument")
    rationale = ("RPR001 catches unseeded construction inside one function; "
                 "this closes the interprocedural holes — a module-level "
                 "Generator is shared mutable stream state across every "
                 "caller, and a default-argument Generator is constructed once"
                 " at def time, so per-run seeding never reaches the draw "
                 "sites")

    def findings(self, graph, contract):
        # Pass 1: module-level RNG instances and def-time default args.
        flagged = {}   # "module.name" -> (info, name)
        for info in graph.modules.values():
            for name, (kind, payload) in info.symbols.items():
                if kind != "assign" or not isinstance(payload, ast.Call):
                    continue
                if _rng_factory(info, dotted_name(payload.func)):
                    flagged[f"{info.name}.{name}"] = (info, name)
                    yield self.finding(
                        info, payload, f"module-level RNG instance "
                        f"'{name}' is shared stream state across all "
                        f"callers")
            for fn in _real_functions(graph, info.name):
                args = fn.node.args
                defaults = list(args.defaults) \
                    + [d for d in args.kw_defaults if d is not None]
                for default in defaults:
                    if isinstance(default, ast.Call) and _rng_factory(
                            info, dotted_name(default.func)):
                        yield self.finding(
                            info, default, f"RNG default argument in "
                            f"{fn.qualname} is constructed once at def "
                            f"time")
        # Pass 2: draw sites on a flagged module-level instance,
        # including through from-imports of the global.
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
                        yield self.finding(
                            info, call.node, f"{call.dotted}(...) draws from "
                            f"a module-level RNG in {fn.qualname}; thread a "
                            f"Generator parameter")


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


@register
class PublicApiDrift(_ProjectRule):
    rule_id = "ARC006"
    title = "public-API drift"
    hint = ("make __all__ match reality: export only names defined in (or"
            " re-exported from within) the package, and regenerate "
            "docs/api.md (python tools/gen_api_docs.py)")
    rationale = ("the API reference is generated from __all__; a phantom or "
                 "foreign export turns the docs and the import surface into "
                 "different systems")

    def findings(self, graph, contract):
        options = contract.rule("ARC006")
        doc_path = options.get("api_doc", "docs/api.md")
        doc_text = None
        if doc_path and Path(doc_path).exists():
            doc_text = Path(doc_path).read_text(encoding="utf-8")
        doc_warned = False
        for module_name in sorted(graph.modules):
            info = graph.modules[module_name]
            if not info.path.endswith("__init__.py"):
                continue
            exports = _exported_names(info)
            if exports is None:
                continue
            for name, node in exports:
                if name not in info.symbols:
                    yield self.finding(
                        info, node, f"'{name}' is exported by __all__ but "
                        f"not defined in {module_name}")
                    continue
                kind, payload = info.symbols.get(name, (None, None))
                if kind in ("object", "module"):
                    target = str(payload)
                    if kind == "object":
                        target = target.rpartition(".")[0]
                    if target != module_name \
                            and not target.startswith(module_name + "."):
                        yield self.finding(
                            info, node, f"'{name}' is re-exported from "
                            f"outside the package ({target})")
                        continue
                if name.startswith("__"):
                    continue   # dunders are skipped by the doc generator
                if doc_text is None:
                    if not doc_warned:
                        doc_warned = True
                        yield self.finding(
                            info, 1, f"API doc {doc_path} not found; run "
                            f"python tools/gen_api_docs.py")
                    continue
                if f"`{name}`" not in doc_text:
                    yield self.finding(
                        info, node, f"'{name}' is not covered by {doc_path}")
