"""Versioned on-disk registry of fitted selection artifacts.

Layout (one namespace directory per strategy fingerprint)::

    <root>/registry.db                         SQLite artifact index
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

Lookups and GC go through the ``registry.db`` index
(:class:`~repro.serving.index.RegistryIndex`) — a keyed table of
(strategy fingerprint, target) → path, size, mtime, last-hit — rather
than walking artifact directories.  The filesystem stays the source of
truth: index hits are verified against ``meta.json`` before being
served, rows whose artifacts vanished out-of-band are dropped, and
pre-index (or externally written) artifact directories are adopted into
the index on first sight, so deleting ``registry.db`` merely rebuilds
it.

``arrays.npz`` is written before ``meta.json``, so a directory with a
``meta.json`` is always a complete artifact; a crash mid-save leaves at
worst an ignorable partial directory.  Every load validates the stored
fingerprints against the live strategy and catalog — a stale artifact
raises :class:`~repro.serving.artifacts.StaleArtifactError` instead of
being silently served.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from repro.serving.index import INDEX_DB_NAME, RegistryIndex
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
        self._index: RegistryIndex | None = None

    # ------------------------------------------------------------------ #
    # index plumbing
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> RegistryIndex:
        """The lazily opened artifact index (creates ``root`` on demand)."""
        if self._index is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._index = RegistryIndex(self.root / INDEX_DB_NAME)
        return self._index

    def close(self) -> None:
        """Release the index database handle (reopened on next use)."""
        if self._index is not None:
            self._index.close()
            self._index = None

    def __getstate__(self):
        # The open SQLite handle can't cross process boundaries; the
        # path is enough to reopen lazily on the far side.
        return {"root": self.root, "_index": None}

    def _artifact_stats(self, path: Path) -> tuple[int, float]:
        """(total bytes, meta mtime) for a complete artifact directory."""
        meta_stat = (path / _META).stat()
        size = meta_stat.st_size
        arrays = path / _ARRAYS
        if arrays.exists():
            size += arrays.stat().st_size
        return size, meta_stat.st_mtime

    def _index_record(self, strategy_fp: str, target: str, path: Path,
                      last_hit: float | None = None) -> None:
        size, mtime = self._artifact_stats(path)
        self.index.record(strategy_fp, target, path, size, mtime,
                          last_hit=last_hit)

    def _reconcile(self, strategy_fp: str) -> tuple[list[tuple[str, Path]],
                                                    list[Path]]:
        """Sync the index with disk for one fingerprint namespace.

        Returns ``(complete, partials)`` where ``complete`` is a sorted
        list of (target, path) artifacts with a ``meta.json`` and
        ``partials`` the crash leftovers without one.  Index rows whose
        artifact vanished are dropped; unindexed complete artifacts
        (pre-index layouts, external writers) are adopted.
        """
        namespace = self.root / strategy_fp
        complete: list[tuple[str, Path]] = []
        partials: list[Path] = []
        on_disk: set[str] = set()
        if namespace.is_dir():
            for path in sorted(p for p in namespace.iterdir() if p.is_dir()):
                if (path / _META).exists():
                    complete.append((path.name, path))
                    on_disk.add(path.name)
                else:
                    partials.append(path)
        indexed = {row["target"] for row in self.index.rows(strategy_fp)}
        for target in indexed - on_disk:
            self.index.drop(strategy_fp, target)
        for target, path in complete:
            if target not in indexed:
                self._index_record(strategy_fp, target, path)
        return complete, partials

    # ------------------------------------------------------------------ #
    def _path(self, strategy, target: str) -> Path:
        """THE layout rule (``strategy`` already resolved):
        ``<root>/<strategy fingerprint>/<target>``."""
        return self.root / strategy.fingerprint() / target

    def path_for(self, target: str, strategy) -> Path:
        return self._path(resolve_strategy(strategy), target)

    def contains(self, target: str, strategy) -> bool:
        """Index lookup, verified against disk before being trusted."""
        if not self.root.is_dir():
            return False
        strategy = resolve_strategy(strategy)
        fp = strategy.fingerprint()
        path = self._path(strategy, target)
        exists = (path / _META).exists()
        row = self.index.get(fp, target)
        if exists and row is None:
            self._index_record(fp, target, path)
        elif not exists and row is not None:
            self.index.drop(fp, target)
        return exists

    def targets(self, strategy) -> list[str]:
        """Targets with a complete artifact under this strategy."""
        if not self.root.is_dir():
            return []
        fp = resolve_strategy(strategy).fingerprint()
        complete, _ = self._reconcile(fp)
        return [target for target, _path in complete]

    def reindex(self) -> dict[str, int]:
        """Rebuild the index from disk (``repro migrate-store`` backfill).

        Reconciles every fingerprint namespace: complete artifact
        directories written before the index existed (or behind its
        back) are adopted, rows whose artifacts vanished are dropped.
        Idempotent — a second run changes nothing.
        """
        if not self.root.is_dir():
            return {"fingerprints": 0, "artifacts_indexed": 0}
        disk = {p.name for p in self.root.iterdir() if p.is_dir()}
        fingerprints = sorted(disk | set(self.index.fingerprints()))
        indexed = 0
        for fp in fingerprints:
            complete, _ = self._reconcile(fp)
            indexed += len(complete)
        return {"fingerprints": len(fingerprints),
                "artifacts_indexed": indexed}

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
        byte-identical to the thread path packing in-process.  The
        artifact row is upserted into the index after the files land.
        """
        strategy = resolve_strategy(strategy)
        out = self._path(strategy, target)
        out.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(out / _ARRAYS, **arrays)
        (out / _META).write_text(json.dumps(meta, indent=1, sort_keys=True))
        self._index_record(strategy.fingerprint(), target, out)
        return out

    def load(self, target: str, strategy, zoo):
        """Revive one artifact, validating fingerprints.

        A successful load bumps the artifact's ``last_hit`` in the
        index (adopting it first if it was written out-of-band).

        Raises :class:`ArtifactNotFoundError` when absent and
        :class:`StaleArtifactError` when present but out of date.
        """
        strategy = resolve_strategy(strategy)
        path = self._path(strategy, target)
        if not (path / _META).exists():
            if self.root.is_dir():
                self.index.drop(strategy.fingerprint(), target)
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
            revived = strategy.unpack(meta, arrays, zoo)
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed artifact for target {target!r} at {path}: {exc}"
            ) from exc
        self._index_record(strategy.fingerprint(), target, path,
                           last_hit=time.time())
        return revived

    def gc(
        self,
        live_strategies: list,
        zoo=None,
        dry_run: bool = False,
        layout: str = "flat",
    ) -> dict[str, int]:
        """Sweep artifacts that no live strategy/catalog can serve.

        The sweep is driven by the artifact index: each live
        fingerprint is reconciled against disk once (dropping dead
        rows, adopting unindexed artifacts), then keep/remove decisions
        walk the reconciled rows instead of re-scanning directories.

        ``layout`` selects the directory shape being swept:

        - ``"flat"`` (the single-service default): fingerprint
          directories live directly under ``root``;
        - ``"namespaces"`` (the gateway's shard layout,
          ``<root>/<namespace>/<strategy_fp>/<target>``): every
          namespace directory is swept as its own flat registry — each
          shard owns its own ``registry.db`` — and the reports are
          summed.  Namespace directories themselves are never removed —
          their names are operator-chosen slugs, not fingerprints, so
          "no live strategy matches" does not apply.  Only pass ``zoo``
          here when *every* shard serves that zoo: the
          catalog-staleness rule compares each artifact against it, so
          a shard serving a different zoo (heterogeneous
          ``--namespace`` modalities/scales) would have its perfectly
          live artifacts swept as stale.  ``zoo=None`` limits the sweep
          to dead fingerprints and crash partials.

        Removal rules, applied per fingerprint:

        - a fingerprint matching no strategy in ``live_strategies``
          (strategies, specs, or configs) is removed whole, files and
          index rows both;
        - inside live fingerprints, partial artifact directories (no
          ``meta.json`` — a crash mid-save) are removed;
        - when ``zoo`` is given, artifacts whose stored catalog
          fingerprint differs from the live catalog are removed too —
          they would raise ``StaleArtifactError`` on every load anyway.

        ``dry_run=True`` reports what *would* be reclaimed without
        touching artifacts or index rows.  Returns counts plus
        reclaimed bytes.
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

        disk_fps = sorted(p.name for p in self.root.iterdir()
                          if p.is_dir() and p.name != INDEX_DB_NAME)
        for fp in sorted(set(disk_fps) | set(self.index.fingerprints())):
            namespace = self.root / fp
            if fp not in live_fps:
                if namespace.is_dir():
                    report["artifacts_removed"] += sum(
                        1 for p in namespace.iterdir() if p.is_dir()
                    )
                    report["namespaces_removed"] += 1
                    remove(namespace)
                if not dry_run:
                    self.index.drop_fingerprint(fp)
                continue
            complete, partials = self._reconcile(fp)
            for partial in partials:
                report["artifacts_removed"] += 1
                remove(partial)
            for target, artifact in complete:
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
                    if not dry_run:
                        self.index.drop(fp, target)
                else:
                    report["artifacts_kept"] += 1
        return report

    def delete(self, target: str, strategy) -> bool:
        """Remove one artifact (files and index row); returns whether
        anything was deleted."""
        strategy = resolve_strategy(strategy)
        if self.root.is_dir():
            self.index.drop(strategy.fingerprint(), target)
        path = self._path(strategy, target)
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
