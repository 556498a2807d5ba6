"""README citations resolve: cited files exist and cited members exist.

Two checks over the inline code spans of README.md (fenced blocks are
skipped):

* a span that looks like a file path — ``/``-separated segments ending in a
  known file suffix or in ``/`` — must name something under the repo root
  or under ``src/repro/`` (globs such as ``benchmarks/bench_*.py`` must
  match at least one file);
* a ``Class.member`` span whose class is defined under ``src/repro`` must
  name a member of that class or of one of its ``src/repro`` bases:
  a method, a class attribute, or an attribute a method assigns on
  ``self``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"^[\w.\-*]+(/[\w.\-*]+)*/$|^[\w.\-*]+(/[\w.\-*]+)+\.(py|md|json|ya?ml|toml|txt|cfg)$")
_MEMBER = re.compile(r"^([A-Z]\w*)\.([A-Za-z_]\w*)(\(.*\))?$")


def _readme_spans() -> Iterator[Tuple[int, str]]:
    fenced = False
    for number, line in enumerate((ROOT / "README.md").read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            for match in _SPAN.finditer(line):
                yield number, match.group(1).strip()


def _resolves(path: str) -> bool:
    for base in (ROOT, PACKAGE):
        if "*" in path:
            if any(base.glob(path)):
                return True
        elif (base / path).exists():
            return True
    return False


def _class_members() -> Tuple[Dict[str, Set[str]], Dict[str, List[str]]]:
    """Members and base-class names of every class defined under ``src/repro``."""
    members: Dict[str, Set[str]] = {}
    bases: Dict[str, List[str]] = {}
    for source in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = members.setdefault(node.name, set())
            bases.setdefault(node.name, []).extend(
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    names.update(target.id for target in item.targets if isinstance(target, ast.Name))
            for inner in ast.walk(node):
                targets = inner.targets if isinstance(inner, ast.Assign) else (
                    [inner.target] if isinstance(inner, (ast.AnnAssign, ast.AugAssign)) else []
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        names.add(target.attr)
    return members, bases


def _has_member(name: str, member: str, members: Dict[str, Set[str]], bases: Dict[str, List[str]]) -> bool:
    seen: Set[str] = set()
    pending = [name]
    while pending:
        current = pending.pop()
        if current in seen or current not in members:
            continue
        seen.add(current)
        if member in members[current]:
            return True
        pending.extend(bases[current])
    return False


def test_cited_paths_resolve():
    missing = [
        f"README.md:{number}: {span}"
        for number, span in _readme_spans()
        if _PATH.match(span) and not _resolves(span)
    ]
    assert missing == []


def test_cited_class_members_exist():
    members, bases = _class_members()
    missing = [
        f"README.md:{number}: {span}"
        for number, span in _readme_spans()
        if (match := _MEMBER.match(span))
        and match.group(1) in members
        and not _has_member(match.group(1), match.group(2), members, bases)
    ]
    assert missing == []
