"""Versioned on-disk registry of fitted selection artifacts.

Layout (one namespace directory per strategy fingerprint)::

    <root>/<strategy_fp>/<target>/meta.json    fingerprints, states, names
    <root>/<strategy_fp>/<target>/arrays.npz   embeddings + model arrays

Artifacts are keyed by *strategy*: anything accepted by
:func:`repro.strategies.resolve_strategy` — a
:class:`~repro.strategies.SelectionStrategy`, a spec string, or (the
pre-redesign signature, still the common test idiom) a bare
:class:`~repro.core.TransferGraphConfig`, whose fingerprint is unchanged
so existing TG artifacts keep loading.  The strategy also owns the
artifact *format*: ``save`` packs through ``strategy.pack`` and ``load``
revives through ``strategy.unpack``, so a TG pipeline and a LogME score
table live behind the same registry API.

The directory tree is the whole registry: ``contains``, ``load`` and
``delete`` stat the path the layout rule derives, and ``targets`` and
``gc`` walk the fingerprint directories.  Artifact directories copied
in from elsewhere are therefore served as they are, and nothing but
artifact files is ever written under ``root``.

``arrays.npz`` is written before ``meta.json``, so a directory with a
``meta.json`` is always a complete artifact; a crash mid-save leaves at
worst an ignorable partial directory.  Every load validates the stored
fingerprints against the live strategy and catalog — a stale artifact
raises :class:`~repro.strategies.artifacts.StaleArtifactError` instead of
being silently served.
"""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path

import numpy as np

from repro.strategies.artifacts import (
    ArtifactError,
    ArtifactNotFoundError,
)
from repro.strategies.fingerprint import catalog_fingerprint
from repro.strategies import resolve_strategy

__all__ = ["ArtifactRegistry"]

_META = "meta.json"
_ARRAYS = "arrays.npz"

#: numpy parses every npz member's header with ``ast.literal_eval``,
#: which on CPython 3.11 can raise ``SystemError: AST constructor
#: recursion depth mismatch`` when threads parse at once (several
#: routers reviving on their fit threads).  That parser state belongs to
#: the interpreter, not to a registry, so the lock is process-wide:
#: every npz read here — the open and each member — holds it.
_NPZ_READ_LOCK = threading.Lock()


class ArtifactRegistry:
    """Persists fitted artifacts keyed by (strategy fingerprint, target)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def close(self) -> None:
        """No-op: the registry holds no open handles.  Kept because
        ``perfbench/workloads.py`` still calls it."""

    @staticmethod
    def _scan(namespace: Path) -> tuple[list[Path], list[Path]]:
        """Walk one fingerprint directory.

        Returns ``(complete, partials)``, both sorted: the target
        directories with a ``meta.json`` and the crash leftovers
        without one.
        """
        complete: list[Path] = []
        partials: list[Path] = []
        if namespace.is_dir():
            for path in sorted(p for p in namespace.iterdir() if p.is_dir()):
                (complete if (path / _META).exists() else partials).append(path)
        return complete, partials

    # ------------------------------------------------------------------ #
    def _path(self, strategy, target: str) -> Path:
        """THE layout rule (``strategy`` already resolved):
        ``<root>/<strategy fingerprint>/<target>``."""
        return self.root / strategy.fingerprint() / target

    def path_for(self, target: str, strategy) -> Path:
        return self._path(resolve_strategy(strategy), target)

    def contains(self, target: str, strategy) -> bool:
        """Whether a complete artifact (one with a ``meta.json``) exists."""
        return (self.path_for(target, strategy) / _META).exists()

    def targets(self, strategy) -> list[str]:
        """Targets with a complete artifact under this strategy."""
        fp = resolve_strategy(strategy).fingerprint()
        complete, _ = self._scan(self.root / fp)
        return [path.name for path in complete]

    # ------------------------------------------------------------------ #
    def save(self, fitted, strategy, zoo) -> Path:
        """Write one artifact; returns its directory."""
        strategy = resolve_strategy(strategy)
        meta, arrays = strategy.pack(fitted, zoo)
        return self.save_packed(meta, arrays, strategy, fitted.target)

    def save_packed(self, meta: dict, arrays: dict, strategy, target: str) -> Path:
        """Write one *already-packed* artifact; returns its directory.

        The process fit plane persists the worker's exact ``(meta,
        arrays)`` payload through this, so a process-fitted artifact is
        byte-identical to the thread path packing in-process.
        """
        strategy = resolve_strategy(strategy)
        out = self._path(strategy, target)
        out.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(out / _ARRAYS, **arrays)
        (out / _META).write_text(json.dumps(meta, indent=1, sort_keys=True))
        return out

    def load(self, target: str, strategy, zoo):
        """Revive one artifact, validating fingerprints.

        Raises :class:`ArtifactNotFoundError` when absent and
        :class:`StaleArtifactError` when present but out of date.
        """
        strategy = resolve_strategy(strategy)
        path = self._path(strategy, target)
        if not (path / _META).exists():
            raise ArtifactNotFoundError(
                f"no artifact for target {target!r} under strategy "
                f"{strategy.fingerprint()}"
            )
        try:
            meta = json.loads((path / _META).read_text())
            with _NPZ_READ_LOCK, np.load(path / _ARRAYS) as npz:
                arrays = {key: npz[key] for key in npz.files}
        except (OSError, ValueError) as exc:
            # Truncated JSON, missing/corrupt npz (BadZipFile is an
            # OSError): a broken artifact must degrade to a refit, not
            # poison every query for the target.
            raise ArtifactError(
                f"corrupt artifact for target {target!r} at {path}: {exc}"
            ) from exc
        try:
            return strategy.unpack(meta, arrays, zoo)
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed artifact for target {target!r} at {path}: {exc}"
            ) from exc

    def gc(
        self,
        live_strategies: list,
        zoo=None,
        dry_run: bool = False,
        layout: str = "flat",
    ) -> dict[str, int]:
        """Sweep artifacts that no live strategy/catalog can serve.

        The sweep walks the directory tree: every fingerprint directory
        under ``root``, then the target directories inside each live
        one.  Files directly under ``root`` are never touched.

        ``layout`` selects the directory shape being swept:

        - ``"flat"`` (the single-service default): fingerprint
          directories live directly under ``root``;
        - ``"namespaces"`` (the gateway's shard layout,
          ``<root>/<namespace>/<strategy_fp>/<target>``): every
          namespace directory is swept as its own flat registry and the
          reports are summed.  Namespace directories themselves are
          never removed — their names are operator-chosen slugs, not
          fingerprints, so "no live strategy matches" does not apply.
          Only pass ``zoo`` here when *every* shard serves that zoo: the
          catalog-staleness rule compares each artifact against it, so
          a shard serving a different zoo (heterogeneous
          ``--namespace`` modalities/scales) would have its perfectly
          live artifacts swept as stale.  ``zoo=None`` limits the sweep
          to dead fingerprints and crash partials.

        Removal rules, applied per fingerprint:

        - a fingerprint matching no strategy in ``live_strategies``
          (strategies, specs, or configs) is removed whole;
        - inside live fingerprints, partial artifact directories (no
          ``meta.json`` — a crash mid-save) are removed;
        - when ``zoo`` is given, artifacts whose stored catalog
          fingerprint differs from the live catalog are removed too —
          they would raise ``StaleArtifactError`` on every load anyway.

        ``dry_run=True`` reports what *would* be reclaimed without
        touching artifacts.  Returns counts plus reclaimed bytes.
        """
        if layout not in ("flat", "namespaces"):
            raise ValueError(f"layout must be 'flat' or 'namespaces', got {layout!r}")
        report = {
            "namespaces_removed": 0,
            "artifacts_removed": 0,
            "artifacts_kept": 0,
            "bytes_reclaimed": 0,
        }
        if not self.root.is_dir():
            return report
        if layout == "namespaces":
            for shard in sorted(p for p in self.root.iterdir() if p.is_dir()):
                sub = ArtifactRegistry(shard).gc(live_strategies, zoo, dry_run=dry_run)
                for key in report:
                    report[key] += sub[key]
            return report

        live_fps = {resolve_strategy(s).fingerprint() for s in live_strategies}
        live_catalog = catalog_fingerprint(zoo.catalog) if zoo is not None else None

        def dir_bytes(path: Path) -> int:
            return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())

        def remove(path: Path) -> None:
            report["bytes_reclaimed"] += dir_bytes(path)
            if not dry_run:
                shutil.rmtree(path)

        for namespace in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if namespace.name not in live_fps:
                report["artifacts_removed"] += sum(
                    1 for p in namespace.iterdir() if p.is_dir()
                )
                report["namespaces_removed"] += 1
                remove(namespace)
                continue
            complete, partials = self._scan(namespace)
            for partial in partials:
                report["artifacts_removed"] += 1
                remove(partial)
            for artifact in complete:
                stale = False
                if live_catalog is not None:
                    try:
                        meta = json.loads((artifact / _META).read_text())
                        stale = meta.get("catalog_fingerprint") != live_catalog
                    except (OSError, ValueError):
                        stale = True  # unreadable meta can never be served
                if stale:
                    report["artifacts_removed"] += 1
                    remove(artifact)
                else:
                    report["artifacts_kept"] += 1
        return report

    def delete(self, target: str, strategy) -> bool:
        """Remove one artifact; returns whether anything was deleted."""
        path = self.path_for(target, strategy)
        if not path.is_dir():
            return False
        for name in (_META, _ARRAYS):
            file = path / name
            if file.exists():
                file.unlink()
        try:
            path.rmdir()
        except OSError:  # pragma: no cover - unexpected extra files
            pass
        return True
