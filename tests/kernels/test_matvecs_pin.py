"""The private scipy function the kernels run on, pinned by name.

``repro.kernels.registry`` calls ``csr_matvecs`` from the private
``scipy.sparse._sparsetools``: it is the loop the public
``csr_matrix((data, indices, indptr)) @ x`` ends in, without building
and validating a matrix per product (7 profiled calls per product
against 122).  A private name can move in any scipy release, so this
file names the floor ``pyproject.toml`` declares, imports the function
from where the kernels load it, and holds it byte for byte to the
public product over generated CSR operands: both dtypes and their
promotions, empty rows, unsorted and repeated columns, width 1.  The
kernels load the extension file without running
``scipy/sparse/__init__.py``; whichever of the two is imported first,
both must end up holding one module object, so one function.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import registry

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"
FLOATS = (np.float32, np.float64)


def scipy_floor():
    """The ``scipy>=`` floor ``pyproject.toml`` declares."""
    match = re.search(r'"scipy>=([0-9.]+)"', PYPROJECT.read_text())
    assert match, "pyproject.toml no longer declares a scipy>= floor"
    return match.group(1)


def _release(version):
    return tuple(int(part) for part in re.findall(r"\d+", version)[:2])


def csr_matvecs():
    """The function, or a failure that names it and the floor."""
    try:
        from scipy.sparse._sparsetools import csr_matvecs as found
    except ImportError as error:
        pytest.fail(
            f"scipy {scipy.__version__} has no "
            f"scipy.sparse._sparsetools.csr_matvecs, which "
            f"repro.kernels.registry runs every gspmm on (declared "
            f"floor: scipy>={scipy_floor()}): {error}")
    return found


def test_the_floor_is_declared_and_installed():
    assert scipy_floor() == "1.10"
    assert _release(scipy.__version__) >= _release(scipy_floor())


def test_the_kernels_run_the_pinned_function():
    assert registry.csr_matvecs is csr_matvecs()


SAME_FUNCTION = """
import sys
{first}
{second}
from scipy.sparse._sparsetools import csr_matvecs
from repro.kernels import registry
assert registry.csr_matvecs is csr_matvecs
assert sys.modules["scipy.sparse._sparsetools"].csr_matvecs is csr_matvecs
print("ok")
"""


@pytest.mark.parametrize("first, second", [
    ("import scipy.sparse", "import repro"),
    ("import repro", "import scipy.sparse"),
], ids=["scipy-first", "repro-first"])
def test_one_function_in_either_import_order(first, second):
    """A fresh interpreter per order: this process imported both."""
    done = subprocess.run(
        [sys.executable, "-c", SAME_FUNCTION.format(first=first,
                                                    second=second)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(PYPROJECT.parent / "src"), "PATH": ""})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_a_missing_extension_names_the_floor(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(registry.importlib.util, "find_spec",
                        lambda name: None)
    with pytest.raises(ImportError, match=re.escape(
            f"scipy>={scipy_floor()}")):
        registry._sparsetools()


@st.composite
def operands(draw):
    """``(indptr, indices, data, x)``: a CSR operator whose rows may be
    empty and whose columns may repeat or run unsorted, and a dense
    operand of width 1-3."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    degrees = draw(st.lists(st.integers(0, 4), min_size=rows,
                            max_size=rows))
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    nnz = int(indptr[-1])
    indices = np.array(draw(st.lists(st.integers(0, cols - 1),
                                     min_size=nnz, max_size=nnz)),
                       dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    data = rng.standard_normal(nnz).astype(draw(st.sampled_from(FLOATS)))
    x = rng.standard_normal((cols, draw(st.integers(1, 3)))) \
        .astype(draw(st.sampled_from(FLOATS)))
    return indptr, indices, data, x


@settings(max_examples=100, deadline=None)
@given(case=operands())
@example(case=(np.array([0, 0, 2, 2]), np.array([1, 1]),
               np.array([0.5, -2.0], dtype=np.float32),
               np.array([[1.0], [3.0]], dtype=np.float32)))
def test_matvecs_is_the_public_product(case):
    indptr, indices, data, x = case
    shape = (len(indptr) - 1, len(x))
    out = np.zeros((shape[0], x.shape[1]), dtype=np.result_type(data, x))
    csr_matvecs()(shape[0], shape[1], x.shape[1], indptr, indices, data,
                  x.ravel(), out.ravel())
    public = sp.csr_matrix((data, indices, indptr), shape=shape) @ x
    assert out.dtype == public.dtype
    assert out.tobytes() == public.tobytes()
