"""Synthetic mini-project fixtures for the architectural analyzer.

Every arch test builds a small fake package tree on disk (layered like
a miniature ``src/repro``) and runs the whole-program pass over it —
no test ever mutates the real tree.  ``CLEAN_FILES`` passes every ARC
rule under ``clean_config_text``; the ``INJECT_*`` overlays each seed
exactly one class of violation, so tests assert both directions: the
rule fires with the injection and the pass is clean without it.
"""

import textwrap

from repro.analysis import all_rules, lint_paths

#: A layered package that is architecturally clean under
#: ``clean_contract()``: graph (level 0)
#: <- kernels (1) <- nn (2), and a fleet (3) event loop whose
#: reachable functions touch neither the wall clock nor ambient RNG.
CLEAN_FILES = {
    "__init__.py": "",
    "graph/__init__.py": "",
    "graph/csr.py": """
        def build_matrix(n):
            return [[0] * n for _ in range(n)]
    """,
    "kernels/__init__.py": "",
    "kernels/agg.py": """
        import numpy as np

        from ..graph.csr import build_matrix


        def aggregate(values):
            out = np.zeros(3)
            np.add.at(out, [0, 1], values)
            return out, build_matrix(2)
    """,
    "nn/__init__.py": "",
    "nn/model.py": """
        from ..kernels.agg import aggregate


        def forward(values):
            return aggregate(values)
    """,
    "fleet/__init__.py": "",
    "fleet/util.py": """
        def drain(queue):
            total = 0
            for item in queue:
                total += item
            return total
    """,
    "fleet/engine.py": """
        from .util import drain


        class Engine:
            def __init__(self):
                self.clock = 0.0
                self.queue = []

            def run(self):
                return self._step()

            def _step(self):
                self.clock += 1.0
                return drain(self.queue)
    """,
}

#: ARC002 injection: a direct scipy aggregation in the fake nn module.
INJECT_SCIPY_NN = {
    "nn/model.py": """
        import scipy.sparse as sp

        from ..kernels.agg import aggregate


        def forward(adjacency, values):
            dense = sp.csr_matrix(adjacency)
            return dense @ values
    """,
}

#: ARC001 injection: a module-level upward import (graph -> fleet).
INJECT_UPWARD_IMPORT = {
    "graph/csr.py": """
        from ..fleet.engine import Engine


        def build_matrix(n):
            return [[0] * n for _ in range(n)]
    """,
}

#: ARC004 injection: a wall-clock read in a helper the event loop
#: reaches (Engine.run -> _step -> drain).
INJECT_WALL_CLOCK = {
    "fleet/util.py": """
        import time


        def drain(queue):
            total = 0
            for item in queue:
                total += item
            return time.time() - total
    """,
}


def clean_contract():
    """The mini-project's architectural contract matching
    ``CLEAN_FILES`` (a fresh dict: tests may extend it)."""
    return {
        "layers": [
            {"name": "data", "level": 0, "packages": ["graph"]},
            {"name": "kernels", "level": 1, "packages": ["kernels"]},
            {"name": "model", "level": 2, "packages": ["nn"]},
            {"name": "fleet", "level": 3, "packages": ["fleet"]},
            {"name": "root", "level": 4, "packages": ["proj"]},
        ],
        "rules": {
            "ARC002": {"packages": ["nn", "fleet"]},
            "ARC004": {"roots": ["proj.fleet.engine.Engine.run"]},
        },
    }


def write_tree(tmp_path, files, name="proj"):
    """Materialize ``files`` (relpath -> source) as package ``name``."""
    root = tmp_path / name
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def write_project(tmp_path, overlay=None):
    """The clean mini-project plus an optional injection overlay;
    returns its package root."""
    files = dict(CLEAN_FILES)
    if overlay:
        files.update(overlay)
    return write_tree(tmp_path, files)


def arch_rules(code=None):
    """The registered ARC rules (only ``code`` when given)."""
    return [rule for rule in all_rules() if rule.project
            and code in (None, rule.rule_id)]


def lint_project(root, contract=None, rules=None):
    """``lint_paths`` over the package at ``root`` with the ARC rules
    only (default contract: :func:`clean_contract`)."""
    return lint_paths([root], root=root,
                      contract=contract if contract is not None
                      else clean_contract(),
                      rules=rules if rules is not None else arch_rules())
