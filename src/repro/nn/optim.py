"""Optimizers: Adam over the shared :class:`Optimizer` base."""

from __future__ import annotations

import numpy as np

from ..perf.sanitize import check_finite
from ..errors import TrainingError
from ..perf.flags import FLAGS

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, parameters, lr):
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise TrainingError("optimizer received no parameters")
        self.lr = float(lr)

    def _sanitize_grads(self):
        """NaN/Inf scan over accumulated gradients (FLAGS.sanitize
        only); called by subclasses at the top of :meth:`step` so a
        diverging loss fails at the update that received it."""
        if not FLAGS.sanitize:
            return
        for index, param in enumerate(self.parameters):
            if param.grad is not None:
                check_finite(param.grad, name=f"gradient[{index}]")

    def zero_grad(self):
        """Clear every tracked parameter's gradient."""
        for param in self.parameters:
            param.grad = None

    def step(self):
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError

    def state_dict(self):
        """Copy of the optimizer's mutable state (for checkpoints)."""
        return {"lr": self.lr}

    def load_state_dict(self, state):
        """Restore state saved by :meth:`state_dict`."""
        self.lr = float(state["lr"])

    @staticmethod
    def _check_arrays(saved, current, what):
        if len(saved) != len(current):
            raise TrainingError(f"optimizer {what} length mismatch")
        for kept, fresh in zip(saved, current):
            if kept.shape != fresh.shape:
                raise TrainingError(f"optimizer {what} shape mismatch")


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, parameters, lr=0.01, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._sanitize_grads()
        self._step += 1
        correction1 = 1.0 - self.beta1 ** self._step
        correction2 = 1.0 - self.beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / correction1
            v_hat = v / correction2
            param.data = param.data - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        state = super().state_dict()
        state["step"] = self._step
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._check_arrays(state["m"], self._m, "moment")
        self._check_arrays(state["v"], self._v, "moment")
        self._step = int(state["step"])
        self._m = [m.copy() for m in state["m"]]
        self._v = [v.copy() for v in state["v"]]
