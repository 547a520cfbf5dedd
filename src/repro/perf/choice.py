"""Many ``choice(p, size, replace=False)`` draws in one generator call.

The samples, and the generator state after them, are bit for bit
those of one ``Generator.choice`` call per sample.  ``choice`` draws
every index of a sample without replacement with the
bounded-integer routine (Lemire's, on ``[0, bound]``) that
``Generator.integers(0, high, endpoint=True)`` runs once per element of
an array ``high``.  So one ``integers`` call over the bounds of many
``choice`` calls, concatenated in call order, yields the same values
and leaves the generator in the same state; each call's own short pass
over its draws is all that is left.  ``choice(p, s, replace=False)``
has two regimes:

* Floyd's algorithm: the ``t``-th draw has bound ``j = p - s + t``, and
  a draw already in the set is replaced by ``j``.  The set is then
  shuffled with bounds ``s - 1 … 1``; that moves no index in or out of
  it, but spends the draws.
* tail shuffle (``p > 10 000`` and ``s > p // 50``): a Fisher–Yates
  shuffle of ``arange(p)`` with bounds ``p - 1 … p - s``, whose last
  ``s`` slots are the sample.
"""

from __future__ import annotations

import numpy as np

__all__ = ["choice_sets"]

#: ``choice`` shuffles a tail of ``arange(p)`` when ``p`` is over
#: ``_TAIL_POPULATION`` and the sample over ``p // _TAIL_SHARE``.
_TAIL_POPULATION = 10_000
_TAIL_SHARE = 50


def choice_sets(rng, populations, size):
    """``rng.choice(p, size, replace=False)`` per population, in one call.

    Returns an ``int64 (len(populations), size)`` array: row ``r`` is
    the index set ``choice(populations[r], size, replace=False)`` draws
    after the rows before it, in ascending order (``choice``'s own
    order is not kept).  The generator is left in the state those
    ``choice`` calls leave it in.  Every population must exceed
    ``size``.
    """
    populations = np.asarray(populations, dtype=np.int64)
    pops = populations.tolist()
    if pops and min(pops) <= size:
        raise ValueError("every population must exceed the sample size")
    if not pops or size == 0:
        return np.empty((len(pops), size), dtype=np.int64)
    # Floyd's bounds per row: p - size … p - 1, then the shuffle's
    # size - 1 … 1.  A tail-shuffle row reverses the first part and
    # spends no more.
    steps = np.arange(size)
    bounds = np.empty((len(pops), 2 * size - 1), dtype=np.int64)
    np.add.outer(populations - size, steps, out=bounds[:, :size])
    bounds[:, size:] = steps[:0:-1]
    tail = [p > _TAIL_POPULATION and size > p // _TAIL_SHARE for p in pops]
    if any(tail):
        in_tail = np.array(tail)
        bounds[in_tail, :size] = bounds[in_tail, size - 1::-1]
        spent = np.ones(bounds.shape, dtype=bool)
        spent[in_tail, size:] = False
        draws = np.empty_like(bounds)
        draws[spent] = rng.integers(0, bounds[spent], endpoint=True)
    else:
        draws = rng.integers(0, bounds, endpoint=True)
    # A Floyd row's set is its first ``size`` draws, except that a draw
    # already taken is replaced by its bound (never taken yet).
    out = draws[:, :size].copy()
    hits, values = [], []
    for row, sample in enumerate(out.tolist()):
        at, population = row * size, pops[row]
        if tail[row]:
            hits += range(at, at + size)
            values += _tail_sample(sample, population)
            continue
        taken = set()
        for step, value in enumerate(sample):
            if value in taken:
                value = population - size + step
                hits.append(at + step)
                values.append(value)
            taken.add(value)
    if hits:
        out.put(hits, values)
    out.sort(axis=1)
    return out


def _tail_sample(draws, population):
    """The last ``len(draws)`` slots of ``arange(population)`` after the
    shuffle that spent ``draws`` (a dict holds the moved slots)."""
    moved = {}
    for i, j in zip(range(population - 1, -1, -1), draws):
        moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
    return [moved.get(i, i)
            for i in range(population - len(draws), population)]
