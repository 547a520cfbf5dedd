"""A minimal reverse-mode autograd engine over numpy arrays.

Only what GNN training needs: a fused affine node (dense matmul),
elementwise arithmetic, ReLU, dropout, row gather/concat, and a fused
softmax-cross-entropy loss; sparse aggregation lives in
:mod:`repro.kernels`.  A :class:`Tensor` wraps an ndarray plus an
optional gradient; operations record a backward closure and their parent
tensors, and :meth:`Tensor.backward` replays the tape in reverse
topological order, releasing each node's closure and parents as it goes
(docs/architecture.md, "Memory of a training step").

Gradients are *owned*: what a backward closure hands ``_accumulate`` is
a fresh array the receiver keeps (and later adds into in place), so
nothing is copied on arrival.  The few ops that pass their incoming
gradient on unchanged — ``__add__``, ``reshape``, ``concat``, the array
a caller gives ``backward`` — copy at their own site.

Inside ``with no_grad():`` (inference: serving, evaluation) ops compute
the same arrays but record nothing — no parent tuple, no kept closure —
and dropout is the identity: the context is the only inference switch.

The engine is deliberately small and explicit — every op's backward rule
is a few lines of numpy, which lets the test suite verify all of them
against numerical differentiation.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError

__all__ = ["Tensor", "no_grad"]

#: False inside :class:`no_grad`.
_taping = True


class no_grad:
    """Run ops without recording an autograd tape: ``with no_grad():``.

    The previous setting comes back on exit, so contexts nest.  A class,
    not a ``contextlib`` generator (docs/architecture.md, "The per-call
    floor", rule 2)."""

    __slots__ = ("_outer",)

    def __enter__(self):
        global _taping
        self._outer, _taping = _taping, False
        return self

    def __exit__(self, *_exc):
        global _taping
        _taping = self._outer


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _pass_through(grad, shape):
    """A node's own gradient for a parent of ``shape``: a copy to own,
    unless unbroadcasting will reduce it into a fresh array anyway."""
    return grad.copy() if grad.shape == shape else grad


def _add_into(out, term):
    """``out + term`` — the same float add in place when dtypes agree."""
    if term.dtype == out.dtype:
        out += term
        return out
    return out + term


def _input_grad(grad, weight):
    """``grad @ weight.T``, the input gradient of ``x @ weight``.  A
    single-column ``weight`` (GAT's attention vectors) makes it a K = 1
    product, one rounded multiply per element: broadcasting gives the
    same bits without the BLAS call."""
    if weight.ndim == 2 and weight.shape[1] == 1 and grad.ndim >= 2:
        return grad * weight.T
    return grad @ weight.T


def _released(_grad):
    """The closure slot of a node whose backward has run: a marker
    :meth:`Tensor.backward` refuses to walk through."""
    raise TrainingError("backward() through a released tape")


class Tensor:
    """An ndarray with an autograd tape (fused node: ``Tensor.affine``).

    Parameters
    ----------
    data:
        Array (or scalar) holding the value; stored as float32 unless
        already floating.
    requires_grad:
        Track gradients through this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        array = np.asarray(data)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float32)
        self.data = array
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self):
        """The scalar value of a one-element tensor."""
        return float(self.data)

    def numpy(self):
        """The underlying ndarray (no copy)."""
        return self.data

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad):
        """Add ``grad``, an array nobody else holds (module docstring):
        the first one *becomes* ``self.grad``."""
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                            self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad=None):
        """Backpropagate from this tensor, releasing the tape as it goes.

        ``grad`` defaults to 1 for scalars; non-scalar roots must pass an
        explicit output gradient (copied: the caller's array is theirs).

        Each node drops its closure and its parents before the closure
        runs, so an intermediate nobody else holds is freed, gradient
        and all, as soon as its own backward has run: a step holds one
        tape, not the previous step's as well.  A tensor the caller
        holds keeps its ``.grad``.  A released tape cannot be walked
        again: a second ``backward`` through it raises
        :class:`TrainingError` rather than stop at the first released
        node with silently wrong parameter gradients.
        """
        if grad is None:
            if self.data.size != 1:
                raise TrainingError(
                    "backward() without grad only allowed on scalars")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=self.data.dtype)
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
            if node._backward is _released:
                raise TrainingError(
                    "backward() through a tape an earlier backward() "
                    "released; run the forward pass again")
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        # ``order`` ends at the root: popping walks it root first and
        # drops the list's reference to each node as it goes.
        while order:
            node = order.pop()
            backward = node._backward
            if backward is None:
                continue
            node._backward, node._parents = _released, ()
            if node.grad is not None:
                backward(node.grad)

    @staticmethod
    def _result(data, parents, backward):
        """Wrap an op's output, skipping the dtype coercion
        ``__init__`` applies to user data.  Under :class:`no_grad`
        nothing is tracked."""
        tracked = tuple(p for p in parents if p.requires_grad) \
            if _taping else ()
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) \
            else np.asarray(data)
        out.grad = None
        out.requires_grad = bool(tracked)
        out._parents = tracked
        out._backward = backward if tracked else None
        return out

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_pass_through(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_pass_through(grad, other.data.shape))

        return self._result(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._result(-self.data, (self,), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._result(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    @staticmethod
    def affine(*terms, bias=None):
        """``sum_i x_i @ W_i (+ bias)`` over tensor pairs ``terms =
        (x_0, W_0), (x_1, W_1), ...`` as one tape node — what
        ``Linear``, ``GCNConv`` and ``SAGEConv`` compute.

        Summed left to right into the first product's buffer — the
        float adds of ``(x_0 @ W_0 + x_1 @ W_1) + bias`` without the
        intermediate arrays, tape nodes and gradient copies.
        """
        out = None
        for x, weight in terms:
            product = x.data @ weight.data
            out = product if out is None else _add_into(out, product)
        if bias is not None:
            out = _add_into(out, bias.data)

        def backward(grad):
            for x, weight in terms:
                if x.requires_grad:
                    x._accumulate(_input_grad(grad, weight.data))
                if weight.requires_grad:
                    weight._accumulate(x.data.T @ grad)
            if bias is not None and bias.requires_grad:
                bias._accumulate(_pass_through(grad, bias.data.shape))

        parents = [tensor for term in terms for tensor in term]
        if bias is not None:
            parents.append(bias)
        return Tensor._result(out, parents, backward)

    def matmul(self, other):
        """Dense matrix product ``self @ other``."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor.affine((self, other))

    __matmul__ = matmul

    def relu(self):
        """Elementwise max(x, 0)."""
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._result(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope=0.2):
        """LeakyReLU (GAT's attention nonlinearity)."""
        slope = float(negative_slope)
        mask = self.data > 0
        scale = np.where(mask, 1.0, slope).astype(self.data.dtype)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * scale)

        return self._result(self.data * scale, (self,), backward)

    def dropout(self, p, rng):
        """Inverted dropout with keep-prob scaling while a tape is
        recorded; under :class:`no_grad` (inference) the input itself,
        drawing nothing from ``rng``."""
        if not 0.0 <= p < 1.0:
            raise TrainingError(f"dropout p must be in [0, 1), got {p}")
        if not _taping or p == 0.0:
            return self
        # The draw stays float64 (the rng stream is part of the
        # contract) and the keep-scale is rounded once from float64;
        # the mask itself is built in the working precision.
        dtype = self.data.dtype
        keep = np.multiply(rng.random(self.data.shape) >= p,
                           dtype.type(1.0 / (1.0 - p)), dtype=dtype)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * keep)

        return self._result(self.data * keep, (self,), backward)

    def gather_rows(self, index):
        """Select rows: ``out = self[index]`` with scatter-add backward."""
        index = np.asarray(index, dtype=np.int64)

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._result(self.data[index], (self,), backward)

    def leading_rows(self, count):
        """The first ``count`` rows, ``out = self[:count]`` (a block's
        destinations are its leading sources), as a view."""
        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                # ``+=``, not assignment: the bits are those of a
                # scatter-add into zeros (``0.0 + -0.0`` is ``+0.0``).
                full[:count] += grad
                self._accumulate(full)

        return self._result(self.data[:count], (self,), backward)

    def concat(self, other, axis=1):
        """Concatenate two tensors along ``axis``."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        split = self.data.shape[axis]

        def backward(grad):
            first, second = np.split(grad, [split], axis=axis)
            if self.requires_grad:
                self._accumulate(first.copy())
            if other.requires_grad:
                other._accumulate(second.copy())

        return self._result(np.concatenate([self.data, other.data],
                                           axis=axis),
                            (self, other), backward)

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data
                                  / (other.data * other.data))

        return self._result(self.data / other.data, (self, other),
                            backward)

    def log(self):
        """Elementwise natural logarithm (inputs must be positive)."""
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._result(np.log(self.data), (self,), backward)

    def l2_normalize_rows(self, eps=1e-8):
        """Scale each row to unit L2 norm (GraphSAGE's embedding
        normalization)."""
        norms = np.sqrt((self.data * self.data).sum(axis=1,
                                                    keepdims=True))
        safe = np.maximum(norms, eps)
        value = self.data / safe

        def backward(grad):
            if self.requires_grad:
                # d(x / ||x||) = (g - x * <g, x> / ||x||^2) / ||x||
                inner = (grad * self.data).sum(axis=1, keepdims=True)
                self._accumulate((grad - self.data * inner
                                  / (safe * safe)) / safe)

        return self._result(value, (self,), backward)

    def reshape(self, *shape):
        """View with a new shape (same element count); gradient
        reshapes back."""
        original = self.data.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original).copy())

        return self._result(self.data.reshape(*shape), (self,), backward)

    def mask_rows(self, keep_index, replacement):
        """Keep rows ``keep_index`` from this tensor; take every other
        row from the constant ``replacement`` array.

        Gradient flows only through the kept rows — the op that models
        bounded-staleness training (stale remote rows are constants).
        """
        keep_index = np.asarray(keep_index, dtype=np.int64)
        replacement = np.asarray(replacement, dtype=self.data.dtype)
        if replacement.shape != self.data.shape:
            raise TrainingError(
                f"replacement shape {replacement.shape} does not match "
                f"tensor shape {self.data.shape}")
        out = replacement.copy()
        out[keep_index] = self.data[keep_index]

        def backward(grad):
            if self.requires_grad:
                routed = np.zeros_like(self.data)
                routed[keep_index] = grad[keep_index]
                self._accumulate(routed)

        return self._result(out, (self,), backward)

    @staticmethod
    def assemble_rows(pieces, index_arrays, total_rows):
        """Assemble a matrix from row pieces: ``out[index_arrays[i]] =
        pieces[i]``.

        The index arrays must partition ``0..total_rows-1``; gradients
        route back to each piece's rows.
        """
        if len(pieces) != len(index_arrays) or not pieces:
            raise TrainingError("pieces and index_arrays must align")
        index_arrays = [np.asarray(ix, dtype=np.int64)
                        for ix in index_arrays]
        covered = np.concatenate(index_arrays)
        if (len(covered) != total_rows
                or not np.array_equal(np.sort(covered),
                                      np.arange(total_rows))):
            raise TrainingError(
                "index arrays must partition the output rows")
        width = pieces[0].data.shape[1]
        out = np.empty((total_rows, width), dtype=pieces[0].data.dtype)
        for piece, index in zip(pieces, index_arrays):
            if piece.data.shape != (len(index), width):
                raise TrainingError("piece shape does not match indices")
            out[index] = piece.data

        def backward(grad):
            for piece, index in zip(pieces, index_arrays):
                if piece.requires_grad:
                    piece._accumulate(grad[index])

        return Tensor._result(out, tuple(pieces), backward)

    def sum(self):
        """Sum of all elements (scalar tensor)."""
        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.full_like(self.data, grad))

        return self._result(self.data.sum(), (self,), backward)

    def mean(self):
        """Mean of all elements (scalar tensor)."""
        count = self.data.size

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.full_like(self.data, grad / count))

        return self._result(self.data.mean(), (self,), backward)
