"""ProjectGraph mechanics: parsing, imports, symbols, calls, BFS."""

import pytest

from repro.analysis.graphing import CallSite, ModuleInfo, build_project
from repro.analysis.lint import parse_paths

from tests.analysis.arch.miniproj import write_tree

#: A package exercising every resolution path the graph supports.
FILES = {
    "__init__.py": "",
    "util.py": """
        def helper():
            return 1


        def unique_tail_fn():
            return 2


        def partition():
            return 99
    """,
    "core.py": """
        import json

        from .util import helper


        class Base:
            def shared(self):
                return helper()


        class Thing(Base):
            def __init__(self):
                self.value = 0

            def run(self):
                return self.step()

            def step(self):
                token = "a,b"
                token.partition(",")
                obj = make()
                obj.unique_tail_fn()
                return self.shared()


        def make():
            return Thing()


        def lazy_loader():
            from . import util
            return util
    """,
    "chain.py": """
        from . import util

        CONSTANT = util.helper()


        def call_through():
            return util.helper()
    """,
}


def project(root):
    """The graph of the package at ``root``, built the analyzer's way:
    parse every file once, then index the modules."""
    modules = [item for item in parse_paths([root])
               if isinstance(item, ModuleInfo)]
    return build_project(modules, root)


@pytest.fixture()
def graph(tmp_path):
    return project(write_tree(tmp_path, FILES))


class TestModules:
    def test_modules_discovered(self, graph):
        assert set(graph.modules) == {"proj", "proj.util", "proj.core",
                                      "proj.chain"}

    def test_package_of(self, graph):
        assert graph.package_of("proj") == "proj"
        assert graph.package_of("proj.util") == "util"

    def test_module_body_is_a_pseudo_function(self, graph):
        body = graph.functions["proj.chain.<module>"]
        assert any(call.dotted == "util.helper"
                   for call in body.calls)

    def test_parse_error_recorded_not_fatal(self, tmp_path):
        files = dict(FILES)
        files["broken.py"] = "def broken(:\n"
        root = write_tree(tmp_path, files)
        errors = [item for item in parse_paths([root])
                  if not isinstance(item, ModuleInfo)]
        assert [error.rule for error in errors] == ["RPR000"]
        bad = project(root)
        assert "proj.broken" not in bad.modules
        assert "proj.core" in bad.modules


class TestImports:
    def test_project_imports_resolve_and_skip_stdlib(self, graph):
        edges = {(edge.source, target)
                 for edge, target in graph.project_imports()}
        assert ("proj.core", "proj.util") in edges
        assert ("proj.chain", "proj") in edges
        assert not any(target == "json" for _, target in
                       graph.project_imports())

    def test_lazy_imports_excluded_by_default(self, graph):
        lazy = [edge for edge in graph.imports
                if edge.source == "proj.core" and edge.lazy]
        assert lazy, "function-body import should be marked lazy"
        defaults = {(edge.source, edge.lineno)
                    for edge, _ in graph.project_imports()}
        included = {(edge.source, edge.lineno) for edge, _ in
                    graph.project_imports(include_lazy=True)}
        key = (lazy[0].source, lazy[0].lineno)
        assert key not in defaults
        assert key in included


class TestResolution:
    def test_from_import_resolves_to_home_module(self, graph):
        kind, _, home = graph.resolve_symbol("proj.core", "helper")
        assert kind == "function"
        assert home == "proj.util"

    def test_name_call(self, graph):
        fn = graph.resolve_call("proj.core", CallSite("make", "make"))
        assert fn.qualname == "proj.core.make"

    def test_class_call_resolves_to_init(self, graph):
        fn = graph.resolve_call("proj.core", CallSite("Thing", "Thing"))
        assert fn.qualname == "proj.core.Thing.__init__"

    def test_self_method(self, graph):
        fn = graph.resolve_call("proj.core",
                                CallSite("self.step", "step"),
                                class_name="Thing")
        assert fn.qualname == "proj.core.Thing.step"

    def test_inherited_method_through_base(self, graph):
        fn = graph.resolve_call("proj.core",
                                CallSite("self.shared", "shared"),
                                class_name="Thing")
        assert fn.qualname == "proj.core.Base.shared"

    def test_module_attribute_chain(self, graph):
        fn = graph.resolve_call("proj.chain",
                                CallSite("util.helper", "helper"))
        assert fn.qualname == "proj.util.helper"

    def test_unknown_name_unresolved(self, graph):
        assert graph.resolve_call("proj.core",
                                  CallSite("mystery", "mystery")) is None


class TestReachability:
    def test_bfs_follows_methods_calls_and_imports(self, graph):
        seen = graph.reachable(["proj.core.Thing.run"])
        assert "proj.core.Thing.step" in seen
        assert "proj.core.Base.shared" in seen      # self.shared()
        assert "proj.util.helper" in seen           # cross-module
        assert "proj.core.make" in seen
        assert "proj.core.Thing.__init__" in seen   # Thing() in make

    def test_unique_tail_fallback(self, graph):
        seen = graph.reachable(["proj.core.Thing.run"])
        assert "proj.util.unique_tail_fn" in seen

    def test_builtin_method_names_never_followed(self, graph):
        # token.partition(",") is str.partition, not proj.util.partition.
        seen = graph.reachable(["proj.core.Thing.run"])
        assert "proj.util.partition" not in seen

    def test_class_root_expands_to_methods(self, graph):
        seen = graph.reachable(["proj.core.Thing"])
        assert {"proj.core.Thing.run", "proj.core.Thing.step",
                "proj.core.Thing.__init__"} <= seen

    def test_unreachable_stays_out(self, graph):
        seen = graph.reachable(["proj.util.helper"])
        assert seen == {"proj.util.helper"}


class TestConstruction:
    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_project([], tmp_path / "nope")

    def test_pycache_skipped(self, tmp_path):
        root = write_tree(tmp_path, FILES)
        junk = root / "__pycache__"
        junk.mkdir()
        (junk / "stale.py").write_text("x = 1\n", encoding="utf-8")
        graph = project(root)
        assert not any("stale" in name for name in graph.modules)
