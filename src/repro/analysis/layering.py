"""import-layering: the package DAG is declared here and enforced.

The repo's layering contract (ROADMAP architecture; ISSUE 8):
foundation packages (``nn``/``graph``/``probe``/``transferability``)
feed ``strategies``, which feeds ``serving`` — never the other way.
Two hard edges ride along: ``obs`` is a leaf every layer may use but
which imports nothing back (so instrumenting a module can never create
a cycle), and ``serving/protocol.py`` is stdlib-only (the wire contract
must be importable without numpy, the zoo, or anything else).

The declared order lives in :data:`LAYERS`; a module may import only
packages at its own layer or below.  Adding a package means adding it
to the table — an unknown package is itself a finding, so the table
cannot silently rot.  Top-level orchestration modules (``cli.py``,
``__main__.py``, the package ``__init__``) are exempt: wiring every
layer together is their job.

Function-level (lazy) imports count: layering is about the dependency
graph, not import time.  Relative imports stay inside their package
and are always fine.
"""

from __future__ import annotations

import ast
import sys
from typing import ClassVar

from repro.analysis.core import Finding, Project, Rule

__all__ = ["ImportLayeringRule", "LAYERS"]

#: the declared architecture: package -> layer rank.  A module may only
#: import packages with rank <= its own.
LAYERS: dict[str, int] = {
    "utils": 0,
    "obs": 0,  # observability is a leaf: everyone may import it
    "analysis": 0,  # this suite is dependency-free by construction
    "nn": 1,
    "store": 1,
    "predictors": 1,
    "transferability": 1,
    "probe": 2,
    "zoo": 2,
    "graph": 3,
    "core": 4,
    "strategies": 5,
    "fleet": 6,  # distributed fit plane: serving imports it, never back
    "serving": 7,
    "docs": 7,  # generated-docs tooling reads fleet wire defs, never back
}

#: top-level modules whose job is wiring all layers together
_EXEMPT_MODULES = {"cli", "__main__", "__init__"}

PROTOCOL_PATH = "src/repro/serving/protocol.py"

_SRC_PREFIX = "src/repro/"


def _package_of(rel: str) -> str | None:
    """The repro subpackage of a repo-relative path, None when exempt."""
    if not rel.startswith(_SRC_PREFIX):
        return None
    parts = rel[len(_SRC_PREFIX):].split("/")
    if len(parts) == 1:
        name = parts[0].removesuffix(".py")
        return None if name in _EXEMPT_MODULES else name
    return parts[0]


def _imported_packages(tree: ast.AST) -> list[tuple[str, int]]:
    """(repro subpackage, line) for every absolute repro import."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    out.append((parts[1], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                out.append((parts[1], node.lineno))
            else:
                # "from repro import X": each name is a subpackage
                for alias in node.names:
                    out.append((alias.name, node.lineno))
    return out


class ImportLayeringRule(Rule):
    """Real imports must respect the declared package DAG."""

    id: ClassVar[str] = "import-layering"
    description: ClassVar[str] = (
        "packages only import same-or-lower layers "
        "(foundation -> strategies -> serving); obs is a leaf; "
        "serving/protocol.py is stdlib-only"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for source in project.files("src/repro/**/*.py"):
            package = _package_of(source.rel)
            if package is None:
                continue
            rank = LAYERS.get(package)
            if rank is None:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=1,
                        message=(
                            f"package {package!r} is not in the declared "
                            f"layering table"
                        ),
                        hint="add it to repro.analysis.layering.LAYERS",
                    )
                )
                continue
            for target, lineno in _imported_packages(source.tree):
                if target == package:
                    continue
                target_rank = LAYERS.get(target)
                if target_rank is None:
                    continue  # unknown target flagged when its files scan
                if target_rank > rank:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=lineno,
                            message=(
                                f"{package} (layer {rank}) imports "
                                f"repro.{target} (layer {target_rank}): "
                                f"upward dependency"
                            ),
                            hint=(
                                "move the shared code below "
                                f"repro.{package} or invert the dependency"
                            ),
                        )
                    )
            if source.rel == PROTOCOL_PATH:
                findings.extend(self._check_stdlib_only(source))
        return findings

    def _check_stdlib_only(self, source) -> list[Finding]:
        stdlib = sys.stdlib_module_names
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            roots: list[str] = []
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    roots = ["repro"]  # relative = serving-internal
                elif node.module:
                    roots = [node.module.split(".")[0]]
            for root in roots:
                if root not in stdlib:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=node.lineno,
                            message=(
                                f"protocol.py imports non-stdlib module "
                                f"{root!r}; the wire contract is "
                                f"stdlib-only"
                            ),
                            hint=(
                                "keep validation/serialisation in "
                                "protocol.py self-contained"
                            ),
                        )
                    )
        return findings
