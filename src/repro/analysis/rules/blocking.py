"""REPRO006 — a thread that may be a server leader announces its waits.

:class:`~repro.net.server.TimeCryptTCPServer` is run leader/followers: the
thread watching the sockets also runs small requests itself, so a handler
that parks — on a downstream reply, a fan-out join, a back-off sleep —
while it still holds the leader role would leave nobody admitting,
shedding or answering pings.  The contract is one call,
:func:`repro.util.blocking.before_blocking`, ahead of the wait; this rule
keeps it from rotting.

Everything in the three tiers a request handler runs through
(``repro.net``, ``repro.server``, ``repro.storage``) counts as reachable
from a dispatcher.  In those packages a call that parks the thread —
``<future>.result(...)``, ``<condition or event>.wait(...)``,
``time.sleep(...)`` — must come after a ``before_blocking()`` call in the
same function, or carry a waiver saying why that thread can never be the
leader.  Socket reads are not in the list: the only blocking ones on a
handler's path sit behind ``RemoteServerClient._drive``, which announces
for them.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.core import Finding, ModuleInfo, Project
from repro.analysis.rules._shared import FunctionDef, call_tail, dotted_name, walk_functions

_TIERS = ("src/repro/net/", "src/repro/server/", "src/repro/storage/")
_WAIT_TAILS = frozenset({"result", "wait", "sleep"})


def _own_calls(func: FunctionDef) -> Iterator[ast.Call]:
    """Calls in ``func``'s own body — nested defs are functions of their own."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class _Rule:
    rule_id = "REPRO006"
    summary = "waits reachable from a request handler are announced with before_blocking()"

    def run(self, project: Project) -> Iterator[Finding]:
        for info in project.src_modules():
            # Explicitly passed files (the fixtures) are checked wherever they live.
            if info.path.startswith(_TIERS) or not info.path.startswith("src/"):
                yield from self._check(info)

    def _check(self, info: ModuleInfo) -> Iterator[Finding]:
        for _cls, func in walk_functions(info.tree):
            calls = sorted(_own_calls(func), key=lambda call: (call.lineno, call.col_offset))
            announced = False
            for call in calls:
                tail = call_tail(call)
                if tail == "before_blocking":
                    announced = True
                elif tail in _WAIT_TAILS and not announced:
                    yield Finding(
                        self.rule_id,
                        info.path,
                        call.lineno,
                        f"{dotted_name(call.func) or tail}() in {func.name}() can park a server "
                        "leader: call before_blocking() first",
                    )


RULE = _Rule()
