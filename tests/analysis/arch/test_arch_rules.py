"""Per-rule positive and negative cases for ARC001–ARC006.

Each test runs exactly one architectural rule over a synthetic
mini-project (see :mod:`tests.analysis.arch.miniproj`), so a failure
names the rule that regressed rather than the whole pass.
"""

import pytest

from repro.analysis import (CONTRACT, all_rules, load_arch_config,
                            rule_table)

from tests.analysis.arch.miniproj import (INJECT_SCIPY_NN,
                                          INJECT_UPWARD_IMPORT,
                                          INJECT_WALL_CLOCK, arch_rules,
                                          lint_project, write_project,
                                          write_tree)


def run_rule(tmp_path, code, files=None, overlay=None, contract=None):
    """One ARC rule over a synthetic tree (default: the clean
    mini-project under its clean contract)."""
    root = write_tree(tmp_path, files) if files is not None \
        else write_project(tmp_path, overlay=overlay)
    rules = arch_rules(code)
    assert rules, f"unknown arch rule {code}"
    return lint_project(root, contract=contract, rules=rules)


class TestRegistry:
    def test_all_six_rules_registered(self):
        ids = {rule.rule_id for rule in arch_rules()}
        assert ids == {"ARC001", "ARC002", "ARC003", "ARC004",
                       "ARC005", "ARC006"}
        assert {rule.rule_id for rule in all_rules()} \
            - ids == {f"RPR00{n}" for n in range(8)}

    def test_rule_table_includes_arc000_and_rationales(self):
        # The parse-error row the ARC table used to carry as ARC000 is
        # the one RPR000 row of the shared table now.
        rows = {row["rule"]: row for row in rule_table()}
        assert "ARC000" not in rows and "RPR000" in rows
        assert sorted(code for code in rows if code.startswith("ARC")) \
            == [f"ARC00{n}" for n in range(1, 7)]
        for code in ["RPR000", *(f"ARC00{n}" for n in range(1, 7))]:
            row = rows[code]
            assert row["severity"] in ("error", "warning")
            assert row["title"] and row["hint"] and row["rationale"]


class TestContract:
    def test_checked_in_contract_validates(self):
        config = load_arch_config()
        assert config.level_of("kernels") < config.level_of("nn")
        assert ("cli", "bench") in config.allowed_pairs()
        assert config.rule("ARC003") is CONTRACT["rules"]["ARC003"]

    def test_package_declared_twice_rejected(self):
        contract = {"layers": [
            {"name": "a", "level": 0, "packages": ["graph"]},
            {"name": "b", "level": 1, "packages": ["graph"]}]}
        with pytest.raises(ValueError, match="twice"):
            load_arch_config(contract)

    def test_layer_without_int_level_rejected(self):
        contract = {"layers": [{"name": "a", "packages": ["graph"]}]}
        with pytest.raises(ValueError, match="int level"):
            load_arch_config(contract)


class TestARC001Layering:
    def test_clean_tree_passes(self, tmp_path):
        assert run_rule(tmp_path, "ARC001").clean

    def test_upward_import_flagged(self, tmp_path):
        result = run_rule(tmp_path, "ARC001",
                          overlay=INJECT_UPWARD_IMPORT)
        (finding,) = result.findings
        assert "upward import" in finding.message
        assert "graph" in finding.message and "fleet" in finding.message

    def test_lazy_upward_import_exempt(self, tmp_path):
        overlay = {"graph/csr.py": """
            def build_matrix(n):
                from ..fleet.engine import Engine
                return Engine
        """}
        assert run_rule(tmp_path, "ARC001", overlay=overlay).clean

    def test_same_level_needs_explicit_grant(self, tmp_path):
        contract = {"layers": [{
            "name": "everything", "level": 0,
            "packages": ["graph", "kernels", "nn", "fleet", "proj"]}]}
        result = run_rule(tmp_path, "ARC001", contract=contract)
        assert any("same-level" in f.message
                   for f in result.findings)

        contract["rules"] = {"ARC001": {
            "allowed": ["kernels -> graph", "nn -> kernels"]}}
        result = run_rule(tmp_path, "ARC001", contract=contract)
        assert result.clean

    def test_undeclared_package_flagged_once(self, tmp_path):
        contract = {"layers": [{
            "name": "known", "level": 0,
            "packages": ["graph", "nn", "fleet", "proj"]}]}
        result = run_rule(tmp_path, "ARC001", contract=contract)
        undeclared = [f for f in result.findings
                      if "not declared" in f.message]
        assert len(undeclared) == 1
        assert "'kernels'" in undeclared[0].message


class TestARC002KernelSeam:
    def test_clean_tree_passes(self, tmp_path):
        assert run_rule(tmp_path, "ARC002").clean

    def test_scipy_in_nn_flagged(self, tmp_path):
        result = run_rule(tmp_path, "ARC002", overlay=INJECT_SCIPY_NN)
        messages = [f.message for f in result.findings]
        assert any("scipy import" in m for m in messages)
        assert any("sp.csr_matrix" in m for m in messages)

    def test_lazy_scipy_import_still_flagged(self, tmp_path):
        overlay = {"nn/model.py": """
            def forward(adjacency):
                import scipy.sparse as sp
                return sp.csr_matrix(adjacency)
        """}
        result = run_rule(tmp_path, "ARC002", overlay=overlay)
        assert any("scipy import" in f.message
                   for f in result.findings)

    def test_scatter_ufunc_in_scope_flagged(self, tmp_path):
        overlay = {"nn/model.py": """
            import numpy as np


            def forward(out, idx, values):
                np.add.at(out, idx, values)
                return out
        """}
        result = run_rule(tmp_path, "ARC002", overlay=overlay)
        assert any("scatter aggregation np.add.at" in f.message
                   for f in result.findings)

    def test_scatter_through_from_import_flagged(self, tmp_path):
        overlay = {"nn/model.py": """
            from numpy import add


            def forward(out, idx, values):
                add.at(out, idx, values)
                return out
        """}
        result = run_rule(tmp_path, "ARC002", overlay=overlay)
        assert any("scatter aggregation add.at" in f.message
                   for f in result.findings)

    def test_kernels_package_out_of_scope(self, tmp_path):
        # CLEAN_FILES already has np.add.at inside kernels/agg.py.
        assert run_rule(tmp_path, "ARC002").clean

    def test_allow_files_exempt(self, tmp_path):
        contract = {"rules": {"ARC002": {
            "packages": ["nn"], "allow_files": ["nn/model.py"]}}}
        result = run_rule(tmp_path, "ARC002", overlay=INJECT_SCIPY_NN,
                          contract=contract)
        assert result.clean


class TestARC003Billing:
    FILES = {
        "__init__.py": "",
        "serve/__init__.py": "",
        "serve/handler.py": """
            class Handler:
                def __init__(self, store, cache):
                    self.store = store
                    self.cache = cache

                def fetch_raw(self, idx):
                    return self.store.features[idx]

                def fetch_billed(self, idx):
                    self.cache.lookup(idx)
                    return self.store.features[idx]
        """,
        "offline/__init__.py": "",
        "offline/eval.py": """
            def accuracy(store, idx):
                return store.features[idx]
        """,
    }
    CONTRACT = {"rules": {"ARC003": {
        "packages": ["serve"], "store_attrs": ["features"],
        "billing_calls": ["lookup"]}}}

    def test_unbilled_read_flagged_billed_read_clean(self, tmp_path):
        result = run_rule(tmp_path, "ARC003", files=self.FILES,
                          contract=self.CONTRACT)
        (finding,) = result.findings
        assert "fetch_raw" in finding.message
        assert "without a billing call" in finding.message

    def test_out_of_scope_package_ignored(self, tmp_path):
        result = run_rule(tmp_path, "ARC003", files=self.FILES,
                          contract=self.CONTRACT)
        assert not any("accuracy" in f.message
                       for f in result.findings)

    def test_checked_in_contract_guards_the_logit_table(self, tmp_path):
        # With the *real* contract's store list: a serve/ read of the
        # precomputed logit or answer table that skips lookup + bill is
        # flagged; going through answers and billing the rows is clean.
        options = load_arch_config().rule("ARC003")
        files = {
            "__init__.py": "",
            "serve/__init__.py": "",
            "serve/executor.py": """
                class Executor:
                    def peek(self, vertex):
                        return self.embeddings.logit_table[vertex]

                    def guess(self, vertices):
                        return self.embeddings.answer_table[vertices]

                    def execute(self, vertices):
                        answers = self.embeddings.answers(vertices)
                        return answers, self.fetch_seconds(vertices)
            """,
        }
        contract = {"rules": {"ARC003": {
            "packages": ["serve"],
            "store_attrs": options["store_attrs"],
            "billing_calls": options["billing_calls"]}}}
        result = run_rule(tmp_path, "ARC003", files=files,
                          contract=contract)
        guess, peek = sorted(result.findings,
                             key=lambda finding: finding.message)
        assert "answer_table" in guess.message
        assert "Executor.guess" in guess.message
        assert "logit_table" in peek.message
        assert "Executor.peek" in peek.message


class TestARC004SimulatedClock:
    def test_clean_tree_passes(self, tmp_path):
        assert run_rule(tmp_path, "ARC004").clean

    def test_wall_clock_in_reachable_helper_flagged(self, tmp_path):
        result = run_rule(tmp_path, "ARC004",
                          overlay=INJECT_WALL_CLOCK)
        (finding,) = result.findings
        assert "time.time() reads the host clock" in finding.message
        assert "reachable from proj.fleet.engine.Engine.run" \
            in finding.message
        assert "via proj.fleet.util.drain" in finding.message

    def test_unreachable_wall_clock_not_flagged(self, tmp_path):
        overlay = {"fleet/util.py": """
            import time


            def drain(queue):
                total = 0
                for item in queue:
                    total += item
                return total


            def offline_report():
                return time.time()
        """}
        assert run_rule(tmp_path, "ARC004", overlay=overlay).clean

    def test_seeded_constructor_allowed_draw_flagged(self, tmp_path):
        overlay = {"fleet/engine.py": """
            import numpy as np

            from .util import drain


            class Engine:
                def __init__(self):
                    self.queue = []

                def run(self):
                    return self._step()

                def _step(self):
                    rng = np.random.default_rng(7)
                    ambient = np.random.random()
                    return drain(self.queue) + rng.random() + ambient
        """}
        result = run_rule(tmp_path, "ARC004", overlay=overlay)
        (finding,) = result.findings
        assert "np.random.random()" in finding.message

    def test_wall_clock_helper_flagged_by_tail(self, tmp_path):
        overlay = {"fleet/util.py": """
            def drain(queue):
                from proj.perfish import wall_clock
                return wall_clock()
        """}
        result = run_rule(tmp_path, "ARC004", overlay=overlay)
        (finding,) = result.findings
        assert "wall_clock() reads the host clock" in finding.message


class TestARC005RNGProvenance:
    def test_module_level_rng_and_draws_flagged(self, tmp_path):
        files = {
            "__init__.py": "",
            "a.py": """
                import numpy as np

                RNG = np.random.default_rng(0)


                def draw():
                    return RNG.random()
            """,
            "b.py": """
                from .a import RNG


                def sample():
                    return RNG.normal()
            """,
        }
        result = run_rule(tmp_path, "ARC005", files=files,
                          contract={})
        messages = [f.message for f in result.findings]
        assert any("module-level RNG instance 'RNG'" in m
                   for m in messages)
        assert any("RNG.random(...)" in m and "proj.a.draw" in m
                   for m in messages)
        assert any("RNG.normal(...)" in m and "proj.b.sample" in m
                   for m in messages)

    def test_default_argument_rng_flagged(self, tmp_path):
        files = {
            "__init__.py": "",
            "a.py": """
                import numpy as np


                def f(rng=np.random.default_rng(0)):
                    return rng.random()
            """,
        }
        result = run_rule(tmp_path, "ARC005", files=files,
                          contract={})
        (finding,) = result.findings
        assert "constructed once at def time" in finding.message

    def test_threaded_generator_clean(self, tmp_path):
        files = {
            "__init__.py": "",
            "a.py": """
                import numpy as np


                def make_rng(seed):
                    return np.random.default_rng(seed)


                def draw(rng):
                    return rng.random()
            """,
        }
        result = run_rule(tmp_path, "ARC005", files=files,
                          contract={})
        assert result.clean


class TestARC006ApiDrift:
    def run(self, tmp_path, init_source, doc_body="`helper`\n"):
        doc = tmp_path / "api.md"
        doc.write_text(doc_body, encoding="utf-8")
        files = {
            "__init__.py": init_source,
            "mod.py": """
                def helper():
                    return 1
            """,
        }
        contract = {"rules": {"ARC006": {"api_doc": doc.as_posix()}}}
        return run_rule(tmp_path, "ARC006", files=files,
                        contract=contract)

    def test_real_documented_export_clean(self, tmp_path):
        init = """
            from .mod import helper

            __all__ = ["helper"]
        """
        assert self.run(tmp_path, init).clean

    def test_phantom_export_flagged(self, tmp_path):
        init = """
            from .mod import helper

            __all__ = ["helper", "ghost"]
        """
        (finding,) = self.run(tmp_path, init).findings
        assert "'ghost'" in finding.message
        assert "not defined" in finding.message

    def test_foreign_reexport_flagged(self, tmp_path):
        init = """
            from os.path import join

            __all__ = ["join"]
        """
        (finding,) = self.run(tmp_path, init).findings
        assert "re-exported from outside the package" in finding.message
        assert "os.path" in finding.message

    def test_undocumented_export_flagged(self, tmp_path):
        init = """
            from .mod import helper

            __all__ = ["helper"]
        """
        (finding,) = self.run(tmp_path, init,
                              doc_body="nothing here\n").findings
        assert "not covered by" in finding.message

    def test_dunder_skips_doc_check(self, tmp_path):
        init = """
            from .mod import helper

            __version__ = "1.0"

            __all__ = ["helper", "__version__"]
        """
        assert self.run(tmp_path, init).clean
