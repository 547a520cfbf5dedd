"""``docs/api.md`` is what ``tools/gen_api_docs.py`` writes for the
tree as it stands: a change to a public name or its docstring's first
line regenerates the file in the same change."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gen_api_docs.py"


def test_api_reference_is_regenerated(tmp_path):
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "api.md"
    module.main(out_path=out)
    assert out.read_bytes() == (ROOT / "docs" / "api.md").read_bytes(), (
        "docs/api.md is stale: run `python tools/gen_api_docs.py`")
