"""Numerics rules: iteration order and accumulation discipline.

Floating-point addition is not associative, so any float accumulation
whose term order depends on set/dict iteration order (or on the slow
error-compounding of builtin ``sum`` in a hot path) can change results
between runs or python builds without any code diff.
"""

from __future__ import annotations

import ast

from . import Rule, dotted_name, register

__all__ = ["UnsortedIterationAccumulation", "FloatSumComprehension"]

_ORDER_METHODS = frozenset({"keys", "values", "items"})


def _is_unordered_iterable(node):
    """True for ``set(...)``, a set literal, or ``<expr>.keys()/
    .values()/.items()`` — iterables whose order is insertion- or
    hash-dependent rather than an explicit sort."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "set":
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _ORDER_METHODS and not node.args:
            return True
    return False


@register
class UnsortedIterationAccumulation(Rule):
    """RPR003: accumulating loop over an unordered collection."""

    rule_id = "RPR003"
    severity = "warning"
    title = "accumulation over unsorted set/dict iteration"
    hint = ("wrap the iterable in sorted(...) so the accumulation "
            "order is part of the code, not of hash/insertion history")
    rationale = ("float += is order-sensitive; set order varies with "
                 "PYTHONHASHSEED and dict order with insertion "
                 "history, so the same data can sum to different bits")

    def check(self, module):
        for node in module.nodes:
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not _is_unordered_iterable(node.iter):
                continue
            for stmt in node.body:
                accumulates = any(isinstance(inner, ast.AugAssign)
                                  for inner in ast.walk(stmt))
                if accumulates:
                    yield node, ("loop over an unordered collection "
                                 "accumulates in-place (`+=`); the "
                                 "result depends on iteration order")
                    break


@register
class FloatSumComprehension(Rule):
    """RPR006: builtin ``sum`` over a comprehension in a hot path."""

    rule_id = "RPR006"
    severity = "warning"
    title = "builtin sum() over comprehension in nn/sampling hot path"
    hint = ("accumulate through numpy (np.sum / np.add.reduce) for "
            "pairwise summation, or wrap in int(...) if the terms are "
            "integral")
    rationale = ("builtin sum() adds floats left-to-right, compounding "
                 "rounding error; numpy's pairwise reduction is both "
                 "faster and numerically stabler in hot paths")

    def _applies(self, module):
        return module.in_parts("nn") or module.in_parts("sampling")

    def check(self, module):
        if not self._applies(module):
            return
        for node in module.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum" and node.args
                    and isinstance(node.args[0],
                                   (ast.GeneratorExp, ast.ListComp))):
                continue
            # ``int(sum(...))`` declares integral terms: left-to-right
            # integer addition is exact, so there is nothing to flag.
            parent = module.parent(node)
            if isinstance(parent, ast.Call) \
                    and dotted_name(parent.func) == "int":
                continue
            yield node, ("builtin sum() over a comprehension "
                         "accumulates floats left-to-right in a hot "
                         "path")
