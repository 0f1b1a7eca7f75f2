"""pickle-boundary: strategies must survive the trip to a fit worker.

A remote cold fit (a router given a fit fleet) pickles the strategy
instance into the FIT frame a ``fit-worker`` process unpickles, so
every :class:`~repro.strategies.SelectionStrategy`
subclass carries a hard contract, documented in ``strategies/base.py``:
module-level classes with plain data attributes — no closures, no
lambdas, no locks, no open handles.  Violating it is a runtime
:class:`FitPlaneError` on the first cold fit routed to a worker; this
rule turns that into a review-time finding.

Inside any class that (transitively) subclasses ``SelectionStrategy``
in ``strategies/``, it flags
``self.x = <lambda>``, ``self.x = <nested def>``,
``self.x = threading.Lock()`` (or any lock/semaphore sibling),
``self.x = open(...)``, and ``self.x = ThreadPoolExecutor(...)``.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.core import Finding, Project, Rule, SourceFile

__all__ = ["PickleBoundaryRule"]

_STRATEGY_SCOPE = "src/repro/strategies/*.py"

_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}
_EXECUTOR_FACTORIES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}

_HINT = (
    "strategy instances cross to fit workers by pickle: keep "
    "attributes to plain data (see strategies/base.py)"
)


def _call_name(node: ast.AST) -> str | None:
    """Terminal name of a ``Call``'s callee (``threading.Lock`` -> Lock)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _unpicklable_reason(value: ast.AST, nested_defs: set[str]) -> str | None:
    if isinstance(value, ast.Lambda):
        return "a lambda (unpicklable)"
    if isinstance(value, ast.Name) and value.id in nested_defs:
        return f"nested function {value.id!r} (closures do not pickle)"
    name = _call_name(value)
    if name in _LOCK_FACTORIES:
        return f"a threading.{name} (locks do not pickle)"
    if name in _EXECUTOR_FACTORIES:
        return f"a {name} (executors do not pickle)"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "open":
            return "an open file handle (handles do not pickle)"
    return None


def _strategy_classes(sources: list[SourceFile]) -> dict[str, ast.ClassDef]:
    """(source rel, class) for every transitive SelectionStrategy subclass."""
    classes: list[tuple[SourceFile, ast.ClassDef]] = []
    for source in sources:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                classes.append((source, node))
    known = {"SelectionStrategy"}
    grew = True
    while grew:
        grew = False
        for _, klass in classes:
            if klass.name in known:
                continue
            base_names = {
                base.id if isinstance(base, ast.Name) else base.attr
                for base in klass.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            }
            if base_names & known:
                known.add(klass.name)
                grew = True
    return {
        f"{source.rel}:{klass.name}": klass
        for source, klass in classes
        if klass.name in known and klass.name != "SelectionStrategy"
    }


class PickleBoundaryRule(Rule):
    """Nothing unpicklable on strategies."""

    id: ClassVar[str] = "pickle-boundary"
    description: ClassVar[str] = (
        "no lambdas, closures, locks, or open handles stored on "
        "SelectionStrategy subclasses"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        sources = project.files(_STRATEGY_SCOPE)
        by_rel = {source.rel: source for source in sources}
        for key, klass in sorted(_strategy_classes(sources).items()):
            rel = key.rsplit(":", 1)[0]
            findings.extend(self._check_class(by_rel[rel], klass))
        return findings

    def _check_class(self, source: SourceFile, klass: ast.ClassDef) -> list[Finding]:
        findings: list[Finding] = []
        for method in klass.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested_defs = {
                node.name
                for node in ast.walk(method)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not method
            }
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                stored = [
                    t
                    for t in node.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not stored:
                    continue
                reason = _unpicklable_reason(node.value, nested_defs)
                if reason is None:
                    continue
                for target in stored:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=node.lineno,
                            message=f"{klass.name}.{target.attr} stores {reason}",
                            hint=_HINT,
                        )
                    )
        return findings
