"""REPRO002 — telemetry must not record key material or plaintext.

The observability plane's contract (PR 9): logs, spans, and metrics
record *operation names, byte sizes, and timings* — never keys, seeds,
or plaintext.  This is exactly the leakage class the secure-stream-
processing literature warns about: a debug log line with a derived key
undoes the whole crypto layer.

Sinks are telemetry emission points:

* ``logger.<level>(...)`` calls (any receiver whose name contains
  ``log``, any of the stdlib level methods);
* ``SPANS.record({...})`` / ``<collector>.record({...})`` span dicts
  and their ``dict(...)`` keyword forms;
* metric construction/observe calls (``Counter``/``Gauge``/
  ``Histogram`` ``observe``/``inc``/``set``) — their label values.

A finding fires when any *argument expression* of a sink references a
binding (variable, attribute, dict key) whose name matches the
sensitive-identifier pattern.  Inside ``crypto/``, ``baselines/`` and
``access/`` modules the pattern widens: a bare ``key``/``keys``/``seed`` is
sensitive there, while in storage/net code ``key`` is a kv-store key
(already ciphertext or an opaque identifier) and stays loggable.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Sequence

from repro.analysis.core import Finding, Project
from repro.analysis.rules._shared import dotted_name

_LEVELS = frozenset({"debug", "info", "warning", "error", "exception", "critical", "log"})
_METRIC_EMITS = frozenset({"observe", "inc", "set", "add"})

#: Identifiers that are sensitive everywhere.
_SENSITIVE_RE = re.compile(
    r"(?i)(?<![a-z])("
    r"secret|seed|plaintext|password|passphrase|keystream"
    r"|key_material|master_key|private_key|derived_key|enc_key|aes_key"
    r"|stream_key|leaf_key|node_key|sealed|nonce"
    r")(?![a-z])"
)

#: Inside crypto/baselines/access modules even a bare ``key`` is key material.
_SENSITIVE_STRICT_RE = re.compile(r"(?i)(?<![a-z])(key|keys)(?![a-z])")

_STRICT_PATH_PARTS = ("crypto/", "baselines/", "access/")


class _Rule:
    rule_id = "REPRO002"
    summary = "telemetry (logs/spans/metrics) must not reference key-/seed-/plaintext-named bindings"

    def run(self, project: Project) -> Iterator[Finding]:
        for info in project.src_modules():
            if "repro/analysis/" in info.path:
                continue
            strict = any(part in info.path for part in _STRICT_PATH_PARTS)
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Call):
                    yield from _check_call(info.path, node, strict)


RULE = _Rule()


def _check_call(path: str, call: ast.Call, strict: bool) -> Iterator[Finding]:
    kind = _sink_kind(call)
    if kind is None:
        return
    args: Sequence[ast.expr] = list(call.args) + [kw.value for kw in call.keywords]
    for arg in args:
        name = _sensitive_reference(arg, strict)
        if name is not None:
            yield Finding(
                "REPRO002",
                path,
                call.lineno,
                f"{kind} records sensitive binding '{name}'",
            )
            return  # one finding per sink call


def _sink_kind(call: ast.Call) -> Optional[str]:
    """``"log call"``/``"span record"``/``"metric emit"`` or None."""
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    receiver = dotted_name(call.func.value) or ""
    receiver_lower = receiver.lower()
    if attr in _LEVELS and "log" in receiver_lower:
        return "log call"
    if attr == "record" and ("span" in receiver_lower or "trace" in receiver_lower):
        return "span record"
    if attr in _METRIC_EMITS and any(
        token in receiver_lower for token in ("counter", "gauge", "histogram", "metric")
    ):
        return "metric emit"
    return None


def _sensitive_reference(node: ast.expr, strict: bool) -> Optional[str]:
    """The first sensitive identifier referenced in ``node``, else None."""
    for sub in ast.walk(node):
        candidates = []
        if isinstance(sub, ast.Name):
            candidates.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            candidates.append(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg:
            candidates.append(sub.arg)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # Dict keys / %-format field names inside span payloads.
            candidates.append(sub.value)
        for candidate in candidates:
            if _SENSITIVE_RE.search(candidate):
                return candidate
            if strict and _SENSITIVE_STRICT_RE.search(candidate):
                return candidate
    return None
