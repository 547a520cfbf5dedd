"""Per-rule fixtures: every RPR rule with positive and negative cases.

Each test writes a small snippet to disk and lints it under a chosen
*display path*, because several rules are path-scoped (RPR002's
profiler/benchmarks allowlist, RPR006's nn/sampling scope, RPR007's
flags.py allowlist).
"""

import textwrap

import pytest

from repro.analysis import all_rules, lint_paths, rule_table

IN_SCOPE = "src/repro/core/example.py"


def lint_source(tmp_path, source, display=IN_SCOPE):
    path = tmp_path / display
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path)  # findings carry the cwd-relative path
        result = lint_paths([display])
    assert all(finding.path == display for finding in result.findings)
    return result.findings, result.suppressed


def rules_hit(tmp_path, source, display=IN_SCOPE):
    findings, _ = lint_source(tmp_path, source, display)
    return {f.rule for f in findings}


class TestRegistry:
    def test_all_seven_rules_registered(self):
        # Beside RPR000 (the parse) and the project-wide ARC rules.
        ids = {rule.rule_id for rule in all_rules()
               if not rule.project and rule.rule_id != "RPR000"}
        assert ids == {"RPR001", "RPR002", "RPR003", "RPR004",
                       "RPR005", "RPR006", "RPR007"}

    def test_rule_table_has_severity_and_rationale(self):
        rows = rule_table()
        assert [row["rule"] for row in rows] == sorted(
            [f"ARC00{n}" for n in range(1, 7)]
            + [f"RPR00{n}" for n in range(8)])
        for row in rows:
            assert row["severity"] in ("error", "warning")
            assert row["title"] and row["hint"] and row["rationale"]


class TestRPR001UnseededRNG:
    def test_global_numpy_rng_flagged(self, tmp_path):
        src = """
            import numpy as np
            x = np.random.rand(3)
        """
        assert "RPR001" in rules_hit(tmp_path, src)

    def test_default_rng_without_seed_flagged(self, tmp_path):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert "RPR001" in rules_hit(tmp_path, src)

    def test_stdlib_random_flagged(self, tmp_path):
        src = """
            import random
            x = random.random()
        """
        assert "RPR001" in rules_hit(tmp_path, src)

    def test_seeded_default_rng_clean(self, tmp_path):
        src = """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.random(3)
        """
        assert "RPR001" not in rules_hit(tmp_path, src)


class TestRPR002WallClock:
    SRC = """
        import time
        t = time.perf_counter()
    """

    def test_wall_clock_in_library_flagged(self, tmp_path):
        assert "RPR002" in rules_hit(tmp_path, self.SRC)

    def test_datetime_now_flagged(self, tmp_path):
        src = """
            import datetime
            now = datetime.datetime.now()
        """
        assert "RPR002" in rules_hit(tmp_path, src)

    def test_profiler_module_allowlisted(self, tmp_path):
        hits = rules_hit(tmp_path, self.SRC,
                         display="src/repro/perf/profiler.py")
        assert "RPR002" not in hits

    def test_benchmarks_allowlisted(self, tmp_path):
        hits = rules_hit(tmp_path, self.SRC,
                         display="benchmarks/bench_example.py")
        assert "RPR002" not in hits

    @pytest.mark.parametrize("call", [
        "time.perf_counter_ns", "time.monotonic_ns", "time.time_ns",
        "time.process_time_ns",
    ])
    def test_ns_resolution_clocks_flagged(self, tmp_path, call):
        src = f"""
            import time
            t = {call}()
        """
        assert "RPR002" in rules_hit(tmp_path, src)

    def test_datetime_now_from_import_flagged(self, tmp_path):
        src = """
            from datetime import datetime
            now = datetime.now()
        """
        assert "RPR002" in rules_hit(tmp_path, src)

    def test_date_today_from_import_flagged(self, tmp_path):
        src = """
            from datetime import date
            today = date.today()
        """
        assert "RPR002" in rules_hit(tmp_path, src)

    def test_from_time_import_alias_flagged(self, tmp_path):
        src = """
            from time import perf_counter_ns as tick
            t = tick()
        """
        findings, _ = lint_source(tmp_path, src)
        (finding,) = [f for f in findings if f.rule == "RPR002"]
        assert "time.perf_counter_ns" in finding.message

    def test_from_time_import_sleep_clean(self, tmp_path):
        src = """
            from time import sleep
            sleep(0)
        """
        assert "RPR002" not in rules_hit(tmp_path, src)

    def test_sanctioned_wall_clock_helper_clean(self, tmp_path):
        src = """
            from repro.perf import wall_clock
            t = wall_clock()
        """
        assert "RPR002" not in rules_hit(tmp_path, src)


class TestRPR003UnsortedIteration:
    def test_accumulation_over_dict_values_flagged(self, tmp_path):
        src = """
            def total(d):
                acc = 0.0
                for v in d.values():
                    acc += v
                return acc
        """
        assert "RPR003" in rules_hit(tmp_path, src)

    def test_accumulation_over_set_literal_flagged(self, tmp_path):
        src = """
            acc = 0.0
            for v in {1.0, 2.0, 3.0}:
                acc += v
        """
        assert "RPR003" in rules_hit(tmp_path, src)

    def test_sorted_iteration_clean(self, tmp_path):
        src = """
            def total(d):
                acc = 0.0
                for k in sorted(d.items()):
                    acc += k[1]
                return acc
        """
        assert "RPR003" not in rules_hit(tmp_path, src)

    def test_no_accumulation_clean(self, tmp_path):
        src = """
            def names(d):
                out = []
                for k in d.keys():
                    out.append(k)
                return out
        """
        assert "RPR003" not in rules_hit(tmp_path, src)


class TestRPR004MutableDefault:
    def test_list_default_flagged(self, tmp_path):
        src = """
            def f(x=[]):
                return x
        """
        assert "RPR004" in rules_hit(tmp_path, src)

    def test_dict_call_kwonly_default_flagged(self, tmp_path):
        src = """
            def f(*, cache=dict()):
                return cache
        """
        assert "RPR004" in rules_hit(tmp_path, src)

    def test_none_default_clean(self, tmp_path):
        src = """
            def f(x=None, y=(), z="s"):
                return x, y, z
        """
        assert "RPR004" not in rules_hit(tmp_path, src)


class TestRPR005OverbroadExcept:
    def test_bare_except_flagged(self, tmp_path):
        src = """
            try:
                work()
            except:
                pass
        """
        assert "RPR005" in rules_hit(tmp_path, src)

    def test_swallowed_exception_flagged(self, tmp_path):
        src = """
            try:
                work()
            except Exception:
                pass
        """
        assert "RPR005" in rules_hit(tmp_path, src)

    def test_reraising_broad_handler_clean(self, tmp_path):
        src = """
            try:
                work()
            except Exception as exc:
                raise RuntimeError("context") from exc
        """
        assert "RPR005" not in rules_hit(tmp_path, src)

    def test_narrow_except_clean(self, tmp_path):
        src = """
            try:
                work()
            except ValueError:
                pass
        """
        assert "RPR005" not in rules_hit(tmp_path, src)


class TestRPR006FloatSumComprehension:
    SRC = """
        def norm(xs):
            return sum(x * x for x in xs)
    """

    def test_sum_comprehension_in_nn_flagged(self, tmp_path):
        hits = rules_hit(tmp_path, self.SRC,
                         display="src/repro/nn/example.py")
        assert "RPR006" in hits

    def test_sum_comprehension_in_sampling_flagged(self, tmp_path):
        hits = rules_hit(tmp_path, self.SRC,
                         display="src/repro/sampling/example.py")
        assert "RPR006" in hits

    def test_outside_hot_paths_clean(self, tmp_path):
        assert "RPR006" not in rules_hit(tmp_path, self.SRC)

    def test_integer_sum_exempt(self, tmp_path):
        src = """
            def count(xs):
                return int(sum(len(x) for x in xs))
        """
        hits = rules_hit(tmp_path, src,
                         display="src/repro/nn/example.py")
        assert "RPR006" not in hits


class TestRPR007EnvironRead:
    def test_environ_subscript_flagged(self, tmp_path):
        src = """
            import os
            home = os.environ["HOME"]
        """
        assert "RPR007" in rules_hit(tmp_path, src)

    def test_getenv_flagged(self, tmp_path):
        src = """
            import os
            debug = os.getenv("DEBUG", "0")
        """
        assert "RPR007" in rules_hit(tmp_path, src)

    def test_flags_module_allowlisted(self, tmp_path):
        src = """
            import os
            debug = os.environ.get("REPRO_DEBUG")
        """
        hits = rules_hit(tmp_path, src,
                         display="src/repro/perf/flags.py")
        assert "RPR007" not in hits


class TestFindings:
    def test_finding_fields_populated(self, tmp_path):
        findings, _ = lint_source(tmp_path, """
            import numpy as np
            x = np.random.rand(3)
        """)
        (finding,) = [f for f in findings if f.rule == "RPR001"]
        assert finding.path == IN_SCOPE
        assert finding.line == 3
        assert finding.severity == "error"
        assert "np.random.rand" in finding.snippet
        assert finding.hint
        assert IN_SCOPE in finding.location()

    def test_syntax_error_yields_rpr000(self, tmp_path):
        findings, _ = lint_source(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["RPR000"]
        assert findings[0].severity == "error"

    @pytest.mark.parametrize("marker,expect_suppressed", [
        ("# repro: noqa[RPR001]", True),
        ("# repro: noqa", True),
        ("# repro: noqa[RPR002]", False),
    ])
    def test_noqa_scoping(self, tmp_path, marker, expect_suppressed):
        src = f"""
            import numpy as np
            x = np.random.rand(3)  {marker}
        """
        findings, suppressed = lint_source(tmp_path, src)
        hit = any(f.rule == "RPR001" for f in findings)
        assert hit != expect_suppressed
        assert suppressed == (1 if expect_suppressed else 0)
