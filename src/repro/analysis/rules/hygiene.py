"""Hygiene rules: failure modes that hide bugs instead of raising them.

Mutable default arguments leak state across calls (a determinism bug
wearing a style-bug costume), and overbroad exception handlers convert
real data-path failures into silently-wrong results — the exact
regression class the sanitizers exist to catch loudly.
"""

from __future__ import annotations

import ast

from . import Rule, register

__all__ = ["MutableDefaultArgument", "OverbroadExcept"]


def _is_mutable_default(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray"))


@register
class MutableDefaultArgument(Rule):
    """RPR004: mutable default argument."""

    rule_id = "RPR004"
    severity = "error"
    title = "mutable default argument"
    hint = "default to None and create the container inside the body"
    rationale = ("the default is evaluated once at def-time and shared "
                 "across calls; state accumulated in one call leaks "
                 "into the next, breaking replayability")

    def check(self, module):
        for node in module.nodes:
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) \
                + [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    yield default, (f"function `{node.name}` has a "
                                    f"mutable default argument")


@register
class OverbroadExcept(Rule):
    """RPR005: bare or overbroad exception handler."""

    rule_id = "RPR005"
    severity = "warning"
    title = "bare or overbroad except"
    hint = ("catch the specific ReproError subclass, or re-raise a "
            "wrapped error so the failure stays loud")
    rationale = ("`except Exception: pass` turns a malformed-CSR or "
                 "NaN failure into a silently wrong number; the paper "
                 "comparisons are only as trustworthy as their loudest "
                 "failure mode")

    def check(self, module):
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield node, "bare `except:` swallows every exception"
                continue
            if isinstance(node.type, ast.Name) \
                    and node.type.id in ("Exception", "BaseException"):
                # Wrapping and re-raising is the legitimate use of a
                # broad catch (e.g. CheckpointError around unpickling).
                reraises = any(isinstance(inner, ast.Raise)
                               for inner in ast.walk(node))
                if not reraises:
                    yield node, (f"`except {node.type.id}` without "
                                 f"re-raise hides unrelated failures")
