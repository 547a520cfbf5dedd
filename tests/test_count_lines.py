"""``tools/count_lines.py``: the counter behind the ROADMAP's size gates
counts code lines only — not blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"


@pytest.fixture(scope="module")
def count_lines():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a multi-line
        string that is not a docstring"""
        return math.pi * len(text)
'''


def test_counts_code_lines_only(count_lines):
    # import, class, def, the string's two lines, return.
    assert count_lines.count_source(SOURCE) == 6


def test_per_package_totals(count_lines, tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "top.py").write_text('"""Doc."""\nz = 3\n')
    assert count_lines.count_tree(tmp_path) == {"pkg": 2, ".": 1}


def test_main_prints_the_total(count_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text("a = 1\n\n# c\nb = 2\n")
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[0] == "2"
