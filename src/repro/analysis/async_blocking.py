"""async-blocking: no synchronous blocking calls on the event loop.

The serving stack's concurrency model is one asyncio event loop in
front of executor pools: every blocking operation — strategy fits,
artifact IO, waits on a remote fit — must cross
``loop.run_in_executor(...)`` (or ``asyncio.to_thread``), never run
inline in a coroutine.  One inline ``strategy.fit()`` in a request
handler stalls every in-flight request for seconds; it still passes
every functional test, because tests measure results, not loop stalls.

This rule walks the ``async def`` bodies of the event-loop-facing
modules (serving's ``http.py``, ``router.py``, ``gateway.py`` and the
fleet's ``wire.py``, ``coordinator.py``, ``worker.py``) and flags
direct calls that block:

- ``time.sleep`` (use ``asyncio.sleep``);
- ``open`` and the pathlib file calls ``read_bytes``/``write_bytes``/
  ``read_text``/``write_text`` (artifact/file IO belongs in the
  executor);
- ``<future>.result()`` (await the future instead);
- anything under ``subprocess`` (a child process is waited on from an
  executor thread, never from the loop);
- ``<strategy>.fit(...)`` and ``np.load`` (heavyweight calls the
  executors exist for);
- anything under ``sqlite3`` and ``execute``/``executemany``/
  ``executescript`` calls.  Nothing under ``src/repro`` uses SQLite
  today (the catalog is ``catalog.json`` and the artifact registry
  its directory tree), but a database query is file IO that may also
  park on the database lock, so the check stays to guard the loop if
  a database ever returns.

Arguments of ``run_in_executor``/``to_thread`` calls are exempt — that
is the sanctioned way to reference a blocking callable — and nested
``def``/``lambda`` helpers are skipped entirely: they execute wherever
they are invoked, which the enclosing scope decides.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.core import Finding, Project, Rule, SourceFile

__all__ = ["AsyncBlockingRule"]

_SCOPE = (
    "src/repro/serving/http.py",
    "src/repro/serving/router.py",
    "src/repro/serving/gateway.py",
    "src/repro/fleet/wire.py",
    "src/repro/fleet/coordinator.py",
    "src/repro/fleet/worker.py",
)

_EXECUTOR_CALLS = {"run_in_executor", "to_thread"}

_PATH_IO = {"read_bytes", "write_bytes", "read_text", "write_text"}


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """The dotted name chain of ``a.b.c`` expressions, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _blocking_reason(func: ast.AST) -> tuple[str, str] | None:
    """(message, hint) when ``func`` is a known blocking callable."""
    if isinstance(func, ast.Name) and func.id == "open":
        return (
            "open() blocks the event loop",
            "do file IO in the executor (loop.run_in_executor)",
        )
    if isinstance(func, ast.Attribute) and func.attr in _PATH_IO:
        return (
            f".{func.attr}() is blocking file IO",
            "do file IO in the executor (loop.run_in_executor)",
        )
    chain = _dotted(func)
    if chain is None:
        return None
    if chain[-2:] == ("time", "sleep") or chain == ("sleep",):
        return (
            "time.sleep() stalls every in-flight request",
            "use 'await asyncio.sleep(...)'",
        )
    if chain[0] == "subprocess":
        return (
            f"subprocess.{chain[-1]}() blocks the event loop",
            "dispatch through the fit-plane executor instead",
        )
    if chain[-2:] == ("np", "load") or chain[-2:] == ("numpy", "load"):
        return (
            "np.load() is blocking artifact IO",
            "load arrays in the executor (loop.run_in_executor)",
        )
    if chain[-1] == "result" and len(chain) > 1:
        return (
            f"{'.'.join(chain)}() blocks until the future resolves",
            "await the future (or asyncio.wrap_future) instead",
        )
    if chain[-1] == "fit" and len(chain) > 1:
        return (
            f"{'.'.join(chain)}() runs a strategy fit on the event loop",
            "submit the fit through the router's fit executor",
        )
    if chain[0] == "sqlite3":
        return (
            f"sqlite3.{chain[-1]}() blocks the event loop",
            "open databases in the executor (loop.run_in_executor)",
        )
    if chain[-1] in {"execute", "executemany", "executescript"} and len(chain) > 1:
        return (
            f"{'.'.join(chain)}() runs SQLite work on the event loop",
            "route database queries through the executor "
            "(loop.run_in_executor)",
        )
    return None


class AsyncBlockingRule(Rule):
    """``async def`` bodies must not call blocking primitives inline."""

    id: ClassVar[str] = "async-blocking"
    description: ClassVar[str] = (
        "no time.sleep/open/Path file IO/Future.result/subprocess/"
        "strategy.fit/np.load/sqlite3 work directly inside async def bodies "
        "of serving's http/router/gateway and the fleet's "
        "wire/coordinator/worker"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for source in project.files(*_SCOPE):
            for node in ast.walk(source.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    for child in ast.iter_child_nodes(node):
                        self._walk(source, node.name, child, findings)
        return findings

    def _walk(
        self,
        source: SourceFile,
        coroutine: str,
        node: ast.AST,
        findings: list[Finding],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested helpers run wherever they are invoked; flagging the
            # invocation site (or the executor submission) is the job of
            # the enclosing scope's walk.
            return
        if isinstance(node, ast.Call):
            reason = _blocking_reason(node.func)
            if reason is not None:
                message, hint = reason
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        message=f"async def {coroutine}: {message}",
                        hint=hint,
                    )
                )
            chain = _dotted(node.func)
            if chain is not None and chain[-1] in _EXECUTOR_CALLS:
                # The sanctioned escape hatch: blocking callables are
                # *referenced* here, not called on the loop.
                self._walk(source, coroutine, node.func, findings)
                return
        for child in ast.iter_child_nodes(node):
            self._walk(source, coroutine, child, findings)
