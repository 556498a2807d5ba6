"""REPRO003 — wire handlers raise typed errors.

A handler (an ``_op_<name>`` method on a dispatcher) that raises a
*builtin* exception (``ValueError`` & co.) surfaces to remote clients as an
untyped ``internal`` failure instead of the :mod:`repro.exceptions`
taxonomy the wire maps, so a client cannot tell a refused request from a
crashed one.

Which ops exist, their scheduler class and which tier handles them are
declared once, in :data:`repro.net.messages.OP_TABLE`, and checked by a
tier-1 test (``tests/test_op_table.py``) rather than by this rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project
from repro.analysis.rules._shared import walk_functions

#: Builtin exceptions that must not escape a wire handler raw.
_BUILTIN_EXCEPTIONS = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "RuntimeError",
        "NotImplementedError",
        "OSError",
        "IOError",
        "AttributeError",
        "LookupError",
        "ArithmeticError",
        "ZeroDivisionError",
        "StopIteration",
        "AssertionError",
    }
)


class _Rule:
    rule_id = "REPRO003"
    summary = "wire handlers raise typed errors"

    def run(self, project: Project) -> Iterator[Finding]:
        for info in project.src_modules():
            if "repro/analysis/" in info.path:
                continue
            for _cls, func in walk_functions(info.tree):
                if func.name.startswith("_op_"):
                    yield from _check_raises(info.path, func)


RULE = _Rule()


def _check_raises(path: str, func: ast.AST) -> Iterator[Finding]:
    for node in ast.walk(func):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BUILTIN_EXCEPTIONS:
            yield Finding(
                "REPRO003",
                path,
                node.lineno,
                f"wire handler raises builtin {name} — raise a typed repro.exceptions error instead",
            )
