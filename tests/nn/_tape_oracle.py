"""The autograd tape before gradients were owned, kept verbatim as the
oracle.

The methods below are the bodies ``repro.nn.tensor.Tensor`` shipped
before the tape stopped copying: ``_accumulate`` copies every gradient
on first touch (so a backward closure may hand it anything, including
its own incoming gradient), ``backward`` and ``_result`` go through
``Tensor.__init__``, ``matmul`` is its own node whose input gradient is
always the GEMM ``grad @ W.T``, ``__add__`` / ``reshape`` / ``concat``
pass their incoming gradient on uncopied, and ``dropout`` builds a
float64 mask and casts it down.  :func:`affine` is the composed
expression the layers used to spell out — ``x @ W + b`` for ``Linear`` /
``GCNConv``, ``x0 @ W0 + x1 @ W1 + b`` for ``SAGEConv`` — three to five
tape nodes where the shipped engine records one.

They define the bits (forward values, every gradient, the dropout rng
stream) the shipped tape must reproduce; ``test_tape_oracle.py`` runs
generated graphs both ways.  Do not "fix" or speed up anything here.

:func:`parent_tape` swaps all of it into ``Tensor`` for the ``with``
body, so whole layers and models run on the old tape unchanged.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.tensor import Tensor, _unbroadcast


def _accumulate(self, grad):
    grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                        self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad += grad


def backward(self, grad=None):
    if grad is None:
        if self.data.size != 1:
            raise TrainingError(
                "backward() without grad only allowed on scalars")
        grad = np.ones_like(self.data)
    # Topological order via iterative DFS.
    order, visited, stack = [], set(), [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    self._accumulate(grad)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _result(data, parents, backward):
    # Through ``Tensor.__init__`` (asarray + dtype check), which took
    # the parents and the closure as keywords back then.
    needs = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    out._parents = tuple(p for p in parents if p.requires_grad)
    out._backward = backward if needs else None
    return out


def __add__(self, other):
    other = other if isinstance(other, Tensor) else Tensor(other)

    def backward(grad):
        if self.requires_grad:
            self._accumulate(grad)
        if other.requires_grad:
            other._accumulate(grad)

    return self._result(self.data + other.data, (self, other), backward)


def matmul(self, other):
    other = other if isinstance(other, Tensor) else Tensor(other)

    def backward(grad):
        if self.requires_grad:
            self._accumulate(grad @ other.data.T)
        if other.requires_grad:
            other._accumulate(self.data.T @ grad)

    return self._result(self.data @ other.data, (self, other), backward)


def dropout(self, p, rng, training=True):
    if not 0.0 <= p < 1.0:
        raise TrainingError(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return self
    keep = (rng.random(self.data.shape) >= p) / (1.0 - p)
    keep = keep.astype(self.data.dtype)

    def backward(grad):
        if self.requires_grad:
            self._accumulate(grad * keep)

    return self._result(self.data * keep, (self,), backward)


def concat(self, other, axis=1):
    other = other if isinstance(other, Tensor) else Tensor(other)
    split = self.data.shape[axis]

    def backward(grad):
        first, second = np.split(grad, [split], axis=axis)
        if self.requires_grad:
            self._accumulate(first)
        if other.requires_grad:
            other._accumulate(second)

    return self._result(np.concatenate([self.data, other.data],
                                       axis=axis),
                        (self, other), backward)


def reshape(self, *shape):
    original = self.data.shape

    def backward(grad):
        if self.requires_grad:
            self._accumulate(grad.reshape(original))

    return self._result(self.data.reshape(*shape), (self,), backward)


def affine(*terms, bias=None):
    """The composed expression: ``((x0 @ W0 + x1 @ W1) + ...) + bias``,
    one ``matmul`` node per product and one ``__add__`` node per sum."""
    out = None
    for x, weight in terms:
        out = x @ weight if out is None else out + x @ weight
    return out if bias is None else out + bias


@contextmanager
def parent_tape():
    """Run the ``with`` body on the copy-on-first-touch tape above."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in (("_accumulate", _accumulate),
                            ("backward", backward),
                            ("_result", staticmethod(_result)),
                            ("__add__", __add__), ("__radd__", __add__),
                            ("matmul", matmul), ("__matmul__", matmul),
                            ("dropout", dropout), ("concat", concat),
                            ("reshape", reshape),
                            ("affine", staticmethod(affine))):
            patch.setattr(Tensor, name, value)
        yield
