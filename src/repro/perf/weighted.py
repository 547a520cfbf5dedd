"""Weighted draws that equal ``Generator.choice(a, size, p=p)`` bit for
bit, without searching the cdf for most of them.

``choice`` draws ``u = rng.random(size)`` and answers
``searchsorted(cdf, u, side="right")`` over ``cdf = p.cumsum();
cdf /= cdf[-1]``: ~110 ns per draw into a 7 k-entry cdf.  A bucket
table answers most draws with one gather instead.  With ``B`` a power
of two, ``b = floor(u * B)`` is exact and ``b / B <= u < (b + 1) / B``;
``searchsorted`` is monotone in its key, so wherever
``searchsorted(cdf, b / B, "right") == searchsorted(cdf, (b + 1) / B,
"left")`` every ``u`` of bucket ``b`` gets that count.  Each cdf value
falls in one bucket, so at most ``len(p)`` of the ``B`` buckets are
undecided; with ``B`` at 8–16x ``len(p)`` only those draws, a tenth or
less, are searched — by the same ``searchsorted`` on the same cdf.
The doubles drawn and the generator state after a draw are ``choice``'s.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WeightedChoice"]


class WeightedChoice:
    """``rng.choice(a, size, p=p)`` for one fixed distribution.

    Build once per distribution and draw as often as needed: the bucket
    table costs ``O(len(p))`` and is reused by every :meth:`draw`.

    Parameters
    ----------
    p:
        1-D non-negative finite weights with a positive sum; the cdf is
        normalized as ``choice`` does, so pass the array ``choice``
        would get.
    population:
        ``None`` draws indices ``0..len(p)-1`` (``choice(len(p), ...)``);
        an array of ``len(p)`` draws its elements (``choice(a, ...)``).
    """

    __slots__ = ("cdf", "population", "_buckets", "_table")

    def __init__(self, p, population=None):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("p must be a non-empty 1-D array")
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("p must be finite and non-negative")
        if population is not None and len(population) != len(p):
            raise ValueError("population and p must have the same length")
        cdf = p.cumsum()
        if not cdf[-1] > 0:
            raise ValueError("p must have a positive sum")
        cdf /= cdf[-1]
        self.cdf, self.population = cdf, population
        # B is the smallest power of two >= 8 len(p), so ``u * B``,
        # ``b / B`` and ``cdf * B`` are exact.  Per bucket,
        # ``low[b] = #{cdf <= b / B}`` and ``high[b] = #{cdf < (b+1) / B}``
        # (``searchsorted`` right of ``b / B``, left of ``(b + 1) / B``):
        # ``c * B <= b`` iff ``ceil(c * B) <= b`` and ``c * B < b + 1``
        # iff ``floor(c * B) <= b``, so two counting passes give both.
        buckets = 1 << (8 * len(p) - 1).bit_length()
        scaled = cdf * buckets
        low = np.bincount(np.ceil(scaled).astype(np.intp),
                          minlength=buckets + 1)[:buckets].cumsum()
        high = np.bincount(scaled.astype(np.intp),
                           minlength=buckets + 1)[:buckets].cumsum()
        self._buckets = buckets
        self._table = np.where(low == high, low, -1)

    def draw(self, rng, size):
        """``size`` draws from ``rng``: the same values, and the same
        generator state afterwards, as ``rng.choice(a, size, p=p)``."""
        u = rng.random(size)
        idx = self._table[(u * self._buckets).astype(np.intp)]
        undecided = idx < 0
        idx[undecided] = self.cdf.searchsorted(u[undecided], side="right")
        return idx if self.population is None else self.population[idx]
