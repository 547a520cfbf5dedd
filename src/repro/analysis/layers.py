"""The checked-in architectural contract for ``src/repro``.

:data:`CONTRACT` declares the layered package DAG (ARC001) plus per-rule
scoping for the other architectural rules; :func:`load_arch_config`
validates it (or a test fixture's dict of the same shape) into an
:class:`ArchConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ArchConfig", "CONTRACT", "load_arch_config"]

#: Levels order the package DAG: a module-level import must always
#: point at a *lower* level.  Function-level (lazy) imports are the
#: sanctioned cycle-breaking mechanism and are exempt from ARC001 — they
#: defer the dependency until call time, after every module object
#: exists.
#:
#: Adding a package?  Declare it in exactly one layer or ARC001 flags
#: every import touching it.
CONTRACT = {
    "layers": [
        {"name": "errors", "level": 0, "packages": ["errors"]},
        {"name": "perf", "level": 1, "packages": ["perf"]},
        {"name": "analysis", "level": 1, "packages": ["analysis"]},
        {"name": "data", "level": 2, "packages": ["graph", "transfer"]},
        {"name": "sampling", "level": 3,
         "packages": ["sampling", "partition"]},
        {"name": "kernels", "level": 4, "packages": ["kernels", "batching"]},
        {"name": "model", "level": 5, "packages": ["nn"]},
        {"name": "training", "level": 6, "packages": ["tasks", "dist"]},
        {"name": "core", "level": 7, "packages": ["core"]},
        {"name": "services", "level": 8, "packages": ["faults", "serve"]},
        {"name": "fleet", "level": 9, "packages": ["fleet"]},
        {"name": "app", "level": 10,
         "packages": ["repro", "bench", "cli", "__main__"]},
    ],
    "rules": {
        "ARC001": {
            # Same-level imports between *different* packages need an
            # explicit grant; within one package they are always fine.
            "allowed": ["__main__ -> cli", "cli -> repro", "cli -> bench"],
        },
        "ARC002": {
            # Packages where aggregation must route through the
            # repro.kernels seam (gspmm/gsddmm/edge_softmax): no
            # scipy.sparse and no ufunc-.at scatter loops.
            "packages": ["nn", "dist", "serve", "fleet", "core",
                         "sampling", "batching", "tasks"],
            # nn/tensor.py is the autograd substrate the kernels
            # themselves build on; its row-gather backward's scatter is
            # part of the seam.
            "allow_files": ["src/repro/nn/tensor.py"],
        },
        "ARC003": {
            # Feature/embedding fetch paths that must bill through the
            # one cache: TieredCache.lookup + bill, an executor's
            # fetch_seconds (which does both), or the training engine's
            # _batch_work.
            "packages": ["serve", "fleet"],
            "modules": ["src/repro/dist/engine.py",
                        "src/repro/core/trainer.py"],
            "store_attrs": ["features", "embeddings", "table",
                            "logit_table", "answer_table"],
            "billing_calls": ["fetch_seconds", "lookup", "bill",
                              "_batch_work"],
            # precompute.py IS the embedding store; reads there are the
            # billed lookup's own implementation.  That includes the
            # logit and answer tables: an answer gathered from them
            # (answers) stands for embedding rows the simulated node
            # fetched, so the caller bills them.
            "allow_files": ["src/repro/serve/precompute.py"],
        },
        "ARC004": {
            # Event-loop roots: a root may be a function/method qualname
            # or a class (all methods); everything statically reachable
            # from a root runs on the simulated clock.  There is one
            # serving loop: serve.loop.EventLoop advances the clock for
            # ServeEngine and FleetEngine alike and reaches every node's
            # dispatch.  It calls its handlers through a dict, which
            # static reachability cannot follow, so the fleet's handler
            # class is rooted beside it.  Engine __init__-time setup
            # (partitioning, replica construction) is on neither path:
            # it legitimately reads the host clock for offline-cost
            # reporting.
            "roots": ["repro.serve.loop.EventLoop",
                      "repro.fleet.engine._FleetRun",
                      "repro.faults.plan.FaultInjector"],
            # profiler.py owns the one sanctioned wall-clock read
            # (wall_clock).
            "allow_files": ["src/repro/perf/profiler.py"],
        },
        "ARC006": {"api_doc": "docs/api.md"},
    },
}


@dataclass
class ArchConfig:
    """A validated contract: layer levels plus per-rule options."""

    levels: dict = field(default_factory=dict)   #: package -> level
    rules: dict = field(default_factory=dict)    #: "ARCnnn" -> options

    def level_of(self, package):
        """Declared level of ``package``, or None if undeclared."""
        return self.levels.get(package)

    def rule(self, code):
        """Options table for ``code`` (empty dict if absent)."""
        return self.rules.get(code, {})

    def allowed_pairs(self):
        """Sanctioned same-level cross-package imports, as a set of
        ``(src, dst)`` tuples."""
        pairs = set()
        for entry in self.rule("ARC001").get("allowed", []):
            src, _, dst = entry.partition("->")
            pairs.add((src.strip(), dst.strip()))
        return pairs


def load_arch_config(contract=None):
    """Validate ``contract`` (default: :data:`CONTRACT`) into an
    :class:`ArchConfig`: every layer needs a name and an int level, and
    no package may be declared twice."""
    contract = CONTRACT if contract is None else contract
    config = ArchConfig(rules=contract.get("rules", {}))
    for layer in contract.get("layers", []):
        if layer.get("name") is None \
                or not isinstance(layer.get("level"), int):
            raise ValueError("every contract layer needs a name and an "
                             "int level")
        for package in layer.get("packages", []):
            if package in config.levels:
                raise ValueError(
                    f"contract declares package {package!r} twice")
            config.levels[package] = layer["level"]
    return config
