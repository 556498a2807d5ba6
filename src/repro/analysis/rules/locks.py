"""REPRO004 — static lock discipline: acyclic order, no blocking while held.

The repo's four threaded tiers (selector server, outbound connection
slots, cluster replication pool, dispatcher engine locks) share ~19
``Lock``/``RLock`` sites.  Two classes of rot this rule catches without running anything:

* **ordering cycles** — module M takes A then B, module N takes B then
  A: a deadlock waiting for the right interleaving.  The rule builds a
  global acquisition graph (edge A→B when B is acquired inside a
  ``with A:`` body, including acquisitions reached through same-class
  method calls) and flags every cycle.
* **blocking while holding a lock** — socket I/O (``sendall``/``recv``/
  ``connect``/``accept``), pool ``Future.result()``, ``time.sleep``,
  dials (``create_connection``, ``RemoteServerClient(...)``) executed
  while a lock is held serialize the whole tier behind one slow peer.
  Some of these are the *design* (per-connection write locks exist to
  serialize writes) — those carry a justified waiver.

Lock identity is ``Class.attr`` for ``self.<attr> = threading.Lock()``
(/``RLock``/``Condition``) assignments; a lock attribute reached through
another receiver (``connection.write_lock``) resolves when exactly one
class declares that attribute.  Same-lock nesting (RLock recursion)
produces no edge.  Method calls propagate within a class to a fixpoint:
``with self._lock: self._helper()`` sees ``_helper``'s acquisitions and
blocking calls.  Cross-class calls are out of static reach — the runtime
:mod:`repro.analysis.lockwatch` covers those.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Project
from repro.analysis.rules._shared import FunctionDef, call_tail, dotted_name, walk_functions

_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition"})

#: Method tails that block the calling thread.
_BLOCKING_TAILS = frozenset({"sendall", "sendmsg", "recv", "recv_into", "accept", "connect", "result", "sleep"})

#: Callables that block (socket dials, synchronous client constructors).
_BLOCKING_CALLABLES = frozenset({"create_connection", "RemoteServerClient", "write_vectored"})

#: ``.join`` blocks only on thread-like receivers; on strings it's concat.
_JOIN_RECEIVER_HINTS = ("thread", "worker", "pool", "proc", "future")


@dataclass
class _FuncFacts:
    """Per-function facts before fixpoint propagation."""

    acquires: Set[str] = field(default_factory=set)
    blocks: Set[str] = field(default_factory=set)  # blocking-call descriptions
    calls: Set[str] = field(default_factory=set)  # same-class method names


class _Rule:
    rule_id = "REPRO004"
    summary = "lock acquisition order must be acyclic; no blocking calls while a lock is held"

    def run(self, project: Project) -> Iterator[Finding]:
        modules = [info for info in project.src_modules() if "repro/analysis/" not in info.path]

        # Pass 1: lock declarations → Class.attr ids + attr-name ambiguity map.
        class_locks: Dict[str, Set[str]] = {}  # class name -> lock attrs
        attr_owners: Dict[str, Set[str]] = {}  # attr name -> class names
        for info in modules:
            for cls, func in walk_functions(info.tree):
                if cls is None:
                    continue
                for node in ast.walk(func):
                    attr = _lock_assignment_attr(node)
                    if attr is not None:
                        class_locks.setdefault(cls.name, set()).add(attr)
                        attr_owners.setdefault(attr, set()).add(cls.name)

        resolver = _Resolver(class_locks, attr_owners)

        # Pass 2: per-function facts, keyed (class, name) per module class.
        facts: Dict[Tuple[str, str, str], _FuncFacts] = {}
        functions: Dict[Tuple[str, str, str], Tuple[str, Optional[ast.ClassDef], FunctionDef]] = {}
        for info in modules:
            for cls, func in walk_functions(info.tree):
                cls_name = cls.name if cls is not None else ""
                key = (info.path, cls_name, func.name)
                facts[key] = _collect_facts(func, cls_name, resolver)
                functions[key] = (info.path, cls, func)

        effective = _fixpoint(facts)

        # Pass 3: held-stack walk → edges + blocking-while-held findings.
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        findings: List[Finding] = []
        reported: Set[Tuple[str, int, str]] = set()  # one finding per (path, line, lock)
        for key, (path, cls, func) in functions.items():
            cls_name = cls.name if cls is not None else ""
            walker = _HeldWalker(path, cls_name, resolver, effective, edges, findings, reported)
            walker.walk_body(func.body, [])

        yield from findings
        yield from _cycle_findings(edges)


RULE = _Rule()


class _Resolver:
    def __init__(self, class_locks: Dict[str, Set[str]], attr_owners: Dict[str, Set[str]]) -> None:
        self._class_locks = class_locks
        self._attr_owners = attr_owners

    def resolve(self, expr: ast.expr, cls_name: str) -> Optional[str]:
        """Lock id for a ``with`` context expression, or None."""
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        owners = self._attr_owners.get(attr)
        if owners is None:
            return None
        if isinstance(expr.value, ast.Name) and expr.value.id in ("self", "cls"):
            if attr in self._class_locks.get(cls_name, ()):
                return f"{cls_name}.{attr}"
            # A lock attr inherited from (or unique to) another class.
            if len(owners) == 1:
                return f"{next(iter(owners))}.{attr}"
            return None
        if len(owners) == 1:
            return f"{next(iter(owners))}.{attr}"
        return None


def _lock_assignment_attr(node: ast.AST) -> Optional[str]:
    """``attr`` for ``self.<attr> = threading.Lock()`` style assignments."""
    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
        return None
    target = node.targets[0]
    if not (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return None
    value = node.value
    if not isinstance(value, ast.Call):
        return None
    name = call_tail(value)
    if name in _LOCK_CONSTRUCTORS:
        return target.attr
    return None


def _blocking_desc(call: ast.Call) -> Optional[str]:
    """A human description if this call blocks, else None."""
    tail = call_tail(call)
    if tail is None:
        return None
    if tail in _BLOCKING_TAILS:
        receiver = ""
        if isinstance(call.func, ast.Attribute):
            receiver = dotted_name(call.func.value) or ""
        return f"{receiver + '.' if receiver else ''}{tail}()"
    if tail in _BLOCKING_CALLABLES:
        return f"{tail}()"
    if tail == "join" and isinstance(call.func, ast.Attribute):
        receiver = (dotted_name(call.func.value) or "").lower()
        if any(hint in receiver for hint in _JOIN_RECEIVER_HINTS):
            return f"{receiver}.join()"
    if tail == "shutdown":
        for kw in call.keywords:
            if kw.arg == "wait" and isinstance(kw.value, ast.Constant) and kw.value.value is True:
                return "shutdown(wait=True)"
    return None


def _collect_facts(func: FunctionDef, cls_name: str, resolver: _Resolver) -> _FuncFacts:
    facts = _FuncFacts()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                lock_id = resolver.resolve(item.context_expr, cls_name)
                if lock_id is not None:
                    facts.acquires.add(lock_id)
        elif isinstance(node, ast.Call):
            desc = _blocking_desc(node)
            if desc is not None:
                facts.blocks.add(desc)
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                facts.calls.add(node.func.attr)
    return facts


def _fixpoint(facts: Dict[Tuple[str, str, str], _FuncFacts]) -> Dict[Tuple[str, str, str], _FuncFacts]:
    """Propagate acquires/blocks through same-class calls to a fixpoint."""
    by_class: Dict[Tuple[str, str], Dict[str, Tuple[str, str, str]]] = {}
    for key in facts:
        path, cls_name, func_name = key
        if cls_name:
            by_class.setdefault((path, cls_name), {})[func_name] = key

    effective = {
        key: _FuncFacts(set(value.acquires), set(value.blocks), set(value.calls))
        for key, value in facts.items()
    }
    changed = True
    iterations = 0
    while changed and iterations < 20:
        changed = False
        iterations += 1
        for key, eff in effective.items():
            path, cls_name, _ = key
            if not cls_name:
                continue
            members = by_class.get((path, cls_name), {})
            for callee_name in eff.calls:
                callee_key = members.get(callee_name)
                if callee_key is None:
                    continue
                callee = effective[callee_key]
                if not callee.acquires <= eff.acquires:
                    eff.acquires |= callee.acquires
                    changed = True
                if not callee.blocks <= eff.blocks:
                    eff.blocks |= callee.blocks
                    changed = True
    return effective


class _HeldWalker:
    """Re-walk a function tracking the stack of held locks."""

    def __init__(
        self,
        path: str,
        cls_name: str,
        resolver: _Resolver,
        effective: Dict[Tuple[str, str, str], _FuncFacts],
        edges: Dict[Tuple[str, str], Tuple[str, int, str]],
        findings: List[Finding],
        reported: Set[Tuple[str, int, str]],
    ) -> None:
        self.path = path
        self.cls_name = cls_name
        self.resolver = resolver
        self.effective = effective
        self.edges = edges
        self.findings = findings
        self.reported = reported

    def walk_body(self, body: List[ast.stmt], held: List[str]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: List[str]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                self._scan_exprs([item.context_expr], held)
                lock_id = self.resolver.resolve(item.context_expr, self.cls_name)
                if lock_id is not None and lock_id not in held:
                    for holder in held:
                        self._add_edge(holder, lock_id, item.context_expr.lineno)
                    acquired.append(lock_id)
            self.walk_body(stmt.body, held + acquired)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs run later (callbacks) — not under this stack
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self.walk_body(handler.body, held)
            self.walk_body(stmt.orelse, held)
            self.walk_body(stmt.finalbody, held)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._scan_exprs([stmt.test], held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        elif isinstance(stmt, ast.For):
            self._scan_exprs([stmt.iter], held)
            self.walk_body(stmt.body, held)
            self.walk_body(stmt.orelse, held)
        else:
            exprs = [node for node in ast.iter_child_nodes(stmt) if isinstance(node, ast.expr)]
            self._scan_exprs(exprs, held)

    def _scan_exprs(self, exprs: List[ast.expr], held: List[str]) -> None:
        if not held:
            return
        for expr in exprs:
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                desc = _blocking_desc(node)
                if desc is not None:
                    self._report_block(desc, node.lineno, held[-1])
                if (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                ):
                    callee_key = (self.path, self.cls_name, node.func.attr)
                    callee = self.effective.get(callee_key)
                    if callee is None:
                        continue
                    for lock_id in callee.acquires:
                        if lock_id in held:
                            continue
                        for holder in held:
                            self._add_edge(holder, lock_id, node.lineno)
                    for callee_desc in sorted(callee.blocks):
                        self._report_block(f"{callee_desc} [via self.{node.func.attr}()]", node.lineno, held[-1])

    def _add_edge(self, holder: str, acquired: str, lineno: int) -> None:
        if holder == acquired:
            return
        self.edges.setdefault((holder, acquired), (self.path, lineno, f"{holder} -> {acquired}"))

    def _report_block(self, desc: str, lineno: int, lock_id: str) -> None:
        key = (self.path, lineno, lock_id)
        if key in self.reported:
            return
        self.reported.add(key)
        self.findings.append(
            Finding(
                "REPRO004",
                self.path,
                lineno,
                f"blocking call {desc} while holding {lock_id}",
            )
        )


def _cycle_findings(edges: Dict[Tuple[str, str], Tuple[str, int, str]]) -> Iterator[Finding]:
    graph: Dict[str, Set[str]] = {}
    for holder, acquired in edges:
        graph.setdefault(holder, set()).add(acquired)

    seen_cycles: Set[Tuple[str, ...]] = set()

    def _dfs(node: str, stack: List[str], on_stack: Set[str], visited: Set[str]) -> None:
        visited.add(node)
        on_stack.add(node)
        stack.append(node)
        for neighbour in sorted(graph.get(node, ())):
            if neighbour in on_stack:
                cycle = stack[stack.index(neighbour):]
                canonical = _canonical_cycle(cycle)
                seen_cycles.add(canonical)
            elif neighbour not in visited:
                _dfs(neighbour, stack, on_stack, visited)
        stack.pop()
        on_stack.discard(node)

    visited: Set[str] = set()
    for node in sorted(graph):
        if node not in visited:
            _dfs(node, [], set(), visited)

    for cycle in sorted(seen_cycles):
        first_edge = (cycle[0], cycle[1 % len(cycle)]) if len(cycle) > 1 else None
        path, lineno = "?", 0
        if first_edge is not None and first_edge in edges:
            path, lineno, _ = edges[first_edge]
        yield Finding(
            "REPRO004",
            path,
            lineno,
            f"lock-order cycle: {' -> '.join(cycle + (cycle[0],))}",
        )


def _canonical_cycle(cycle: List[str]) -> Tuple[str, ...]:
    """Rotate so the lexicographically smallest lock leads — stable identity."""
    smallest = min(range(len(cycle)), key=lambda index: cycle[index])
    return tuple(cycle[smallest:] + cycle[:smallest])
