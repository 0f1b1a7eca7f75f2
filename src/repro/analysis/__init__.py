"""``repro analyze``: the repo-specific static-analysis suite.

Five AST-based rules encode the invariants the serving stack holds only
by convention — and that scale-out (the socket fit-worker fleet, more
namespaces per gateway) stretches:

- ``lock-discipline`` — attributes declared
  ``# guarded by: self._lock`` are only touched under that lock
  (``serving/`` + ``obs/``);
- ``async-blocking`` — no blocking calls inline in the ``async def``
  bodies of ``http.py``/``router.py``/``gateway.py``;
- ``wire-schema`` — ``serving/protocol.py`` diffs additively against
  the committed ``benchmarks/baselines/protocol_schema.json`` snapshot;
- ``import-layering`` — the declared package DAG
  (foundation -> strategies -> serving; ``obs`` a leaf;
  ``protocol.py`` stdlib-only) matches the real import graph;
- ``pickle-boundary`` — nothing unpicklable on
  :class:`~repro.strategies.SelectionStrategy` subclasses, which cross
  to fit workers by pickle.

Everything is stdlib-only so the CI ``analysis`` job (and this
container) needs no extra installs.  Run ``repro analyze`` locally;
see the README's "Static analysis" section for the rule catalog and
the snapshot-regeneration workflow.
"""

from repro.analysis.core import (
    AnalysisError,
    Finding,
    Project,
    Rule,
    all_rules,
    format_findings,
    run_analysis,
)
from repro.analysis.wire_schema import SNAPSHOT_PATH, extract_schema

__all__ = [
    "AnalysisError",
    "Finding",
    "Project",
    "Rule",
    "SNAPSHOT_PATH",
    "all_rules",
    "extract_schema",
    "format_findings",
    "run_analysis",
]
