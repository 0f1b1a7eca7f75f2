"""Versioned on-disk registry of fitted selection artifacts.

Layout (one namespace directory per strategy fingerprint)::

    <root>/<strategy_fp>/<target>.artifact

Artifacts are keyed by *strategy*: anything accepted by
:func:`repro.strategies.resolve_strategy` — a
:class:`~repro.strategies.SelectionStrategy`, a spec string, or (the
pre-redesign signature, still the common test idiom) a bare
:class:`~repro.core.TransferGraphConfig`, which shares its TG strategy's
fingerprint.  The strategy also owns the
artifact *format*: ``save`` packs through ``strategy.pack`` and ``load``
revives through ``strategy.unpack``, so a TG pipeline and a LogME score
table live behind the same registry API.

One artifact is one file: the bytes of ``encode_frame(FitResult(fit_id=
<digest>, meta=meta, spans=[], arrays=arrays))`` (:mod:`repro.fleet.wire`),
the digest being blake2b over the canonical meta JSON and each array's
name, dtype, shape and bytes.  Every executor saves through that one
call, so thread-, process- and socket-fitted artifacts are byte-identical.

The directory tree is the whole registry: ``contains``, ``load`` and
``delete`` stat the path the layout rule derives, and ``targets`` and
``gc`` walk the fingerprint directories, so artifacts copied in from
elsewhere are served as they are.  A save writes a hidden sibling and
moves it into place with ``os.replace``, so a reader sees the old file
or the new one, never a mix.  A load decodes the frame, requires the
file to be byte-for-byte its encoding (so a torn file, or one respelled
to the same content, is caught) and checks the digest — a torn or
corrupt file raises
:class:`~repro.strategies.artifacts.ArtifactError`, which degrades to a
refit — then the stored fingerprints, raising
:class:`~repro.strategies.artifacts.StaleArtifactError` when stale.
Inside a fingerprint directory anything but a ``*.artifact`` file (a
crash's temporary file, an older build's ``<target>/`` directory) is a
partial, which lookups ignore and ``gc`` removes.  There is no fsync:
the registry is a cache, and a file torn by power loss fails these checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from pathlib import Path

from repro.fleet.errors import WireError
from repro.fleet.wire import FitResult, decode_frame, encode_frame
from repro.strategies.artifacts import (
    ArtifactError,
    ArtifactNotFoundError,
)
from repro.strategies.fingerprint import catalog_fingerprint
from repro.strategies import resolve_strategy

__all__ = ["ArtifactRegistry"]

_SUFFIX = ".artifact"

#: bytes of the frame's outer ``!I`` length prefix
_PREFIX = 4


def _digest(meta: dict, arrays: dict) -> str:
    """blake2b over the canonical meta JSON and each array's name,
    dtype, shape and C-order bytes, in the order the frame stores them."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    for name, array in arrays.items():
        descriptor = [str(name), array.dtype.str, list(array.shape)]
        digest.update(json.dumps(descriptor).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _read(path: Path) -> tuple[dict, dict]:
    """The verified ``(meta, arrays)`` one artifact file holds.

    Raises :class:`ArtifactError` when the file cannot be read, does not
    parse as a ``FIT_RESULT`` frame, differs by any byte from that
    frame's encoding (which covers a torn or truncated file), or fails
    its digest.
    """
    try:
        data = path.read_bytes()
        frame = decode_frame(data[_PREFIX:])
        # only the bytes a save writes: a wrong length prefix, or a
        # dtype, number or escape spelled another way, decodes to the
        # same content but is still damage the digest cannot see
        if encode_frame(frame) != data:
            raise WireError("file is not the encoding of its own content")
    except (OSError, WireError) as exc:
        raise ArtifactError(f"corrupt artifact at {path}: {exc}") from exc
    if not isinstance(frame, FitResult):
        raise ArtifactError(f"{path} holds a {type(frame).__name__}, not an artifact")
    if frame.fit_id != _digest(frame.meta, frame.arrays):
        raise ArtifactError(f"corrupt artifact at {path}: digest mismatch")
    return frame.meta, frame.arrays


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

        Returns ``(complete, partials)``, both sorted: the
        ``*.artifact`` files and everything else.
        """
        complete: list[Path] = []
        partials: list[Path] = []
        if namespace.is_dir():
            for path in sorted(namespace.iterdir()):
                is_artifact = path.suffix == _SUFFIX and path.is_file()
                (complete if is_artifact else partials).append(path)
        return complete, partials

    # ------------------------------------------------------------------ #
    def _path(self, strategy, target: str) -> Path:
        """THE layout rule (``strategy`` already resolved):
        ``<root>/<strategy fingerprint>/<target>.artifact``."""
        return self.root / strategy.fingerprint() / f"{target}{_SUFFIX}"

    def path_for(self, target: str, strategy) -> Path:
        return self._path(resolve_strategy(strategy), target)

    def contains(self, target: str, strategy) -> bool:
        """Whether an artifact file exists."""
        return self.path_for(target, strategy).is_file()

    def targets(self, strategy) -> list[str]:
        """Targets with an artifact file under this strategy, sorted."""
        fp = resolve_strategy(strategy).fingerprint()
        complete, _ = self._scan(self.root / fp)
        return sorted(path.name.removesuffix(_SUFFIX) for path in complete)

    # ------------------------------------------------------------------ #
    def save(self, fitted, strategy, zoo) -> Path:
        """Write one artifact; returns its file."""
        strategy = resolve_strategy(strategy)
        meta, arrays = strategy.pack(fitted, zoo)
        return self.save_packed(meta, arrays, strategy, fitted.target)

    def save_packed(self, meta: dict, arrays: dict, strategy, target: str) -> Path:
        """Write one *already-packed* artifact atomically; returns its file.

        A fleet fit persists the worker's exact ``(meta, arrays)``
        payload through this, so its artifacts are byte-identical to the
        thread path packing in-process.
        """
        strategy = resolve_strategy(strategy)
        path = self._path(strategy, target)
        data = encode_frame(
            FitResult(fit_id=_digest(meta, arrays), meta=meta, spans=[], arrays=arrays)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique per writer thread; a plain open keeps the umask's mode
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def load(self, target: str, strategy, zoo):
        """Revive one artifact, validating fingerprints.

        Raises :class:`ArtifactNotFoundError` when absent,
        :class:`StaleArtifactError` when present but out of date, and
        :class:`ArtifactError` when the file is corrupt or malformed.
        """
        strategy = resolve_strategy(strategy)
        path = self._path(strategy, target)
        if not path.is_file():
            raise ArtifactNotFoundError(
                f"no artifact for target {target!r} under strategy "
                f"{strategy.fingerprint()}"
            )
        meta, arrays = _read(path)
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
        under ``root``, then the entries inside each live one.  Files
        directly under ``root`` are never touched.

        ``layout`` selects the directory shape being swept:

        - ``"flat"`` (the single-service default): fingerprint
          directories live directly under ``root``;
        - ``"namespaces"`` (the gateway's shard layout,
          ``<root>/<namespace>/<strategy_fp>/<target>.artifact``): every
          namespace directory is swept as its own flat registry and the
          reports are summed.  Namespace directories themselves are
          never removed — their names are operator-chosen slugs, not
          fingerprints, so "no live strategy matches" does not apply.
          Only pass ``zoo`` here when *every* shard serves that zoo: the
          catalog-staleness rule compares each artifact against it, so
          a shard serving a different zoo (heterogeneous
          ``--namespace`` modalities/scales) would have its perfectly
          live artifacts swept as stale.  ``zoo=None`` limits the sweep
          to dead fingerprints and partials.

        Removal rules, applied per fingerprint:

        - a fingerprint matching no strategy in ``live_strategies``
          (strategies, specs, or configs) is removed whole, and every
          entry in it counts as a removed artifact;
        - inside live fingerprints, partials (anything that is not a
          ``*.artifact`` file: a crash's temporary file, an older
          build's ``<target>/`` directory) are removed;
        - when ``zoo`` is given, artifacts whose stored catalog
          fingerprint differs from the live catalog are removed too —
          they would raise ``StaleArtifactError`` on every load anyway —
          and so are corrupt ones, which can never load.

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

        def remove(path: Path) -> None:
            tree = path.is_dir()
            files = [f for f in path.rglob("*") if f.is_file()] if tree else [path]
            report["bytes_reclaimed"] += sum(f.stat().st_size for f in files)
            if not dry_run:
                (shutil.rmtree if tree else Path.unlink)(path)

        for namespace in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if namespace.name not in live_fps:
                report["artifacts_removed"] += sum(1 for _ in namespace.iterdir())
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
                        meta, _ = _read(artifact)
                        stale = meta.get("catalog_fingerprint") != live_catalog
                    except ArtifactError:
                        stale = True  # a corrupt artifact can never be served
                if stale:
                    report["artifacts_removed"] += 1
                    remove(artifact)
                else:
                    report["artifacts_kept"] += 1
        return report

    def delete(self, target: str, strategy) -> bool:
        """Remove one artifact; returns whether anything was deleted."""
        try:
            self.path_for(target, strategy).unlink()
        except FileNotFoundError:
            return False
        return True
