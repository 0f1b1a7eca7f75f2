"""Disk cache for built zoos.

Building a zoo means pre-training and fine-tuning dozens of models.  The
cache persists everything needed to restore a :class:`ModelZoo` without
retraining: the config, the model specs, every model's weights, and the
catalog (which holds the ground-truth fine-tuning history).  Datasets are
*not* stored — they are regenerated deterministically from the config.

Layout (one directory per config hash)::

    <cache_dir>/<key>/config.json      the exact ZooConfig used
    <cache_dir>/<key>/catalog.json     the ZooCatalog tables
    <cache_dir>/<key>/specs.json       the ModelSpec list
    <cache_dir>/<key>/weights.npz      flattened model state dicts

Each file is written to a hidden sibling and moved into place with
``os.replace``, so a reader sees a whole old file or a whole new one.
A file that is missing, cut short or unparsable makes :func:`load_zoo`
return ``None``, so the zoo rebuilds instead of the reader crashing.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.store import ZooCatalog
from repro.zoo.architectures import ModelSpec
from repro.zoo.finetune import FinetuneConfig
from repro.zoo.models import ZooModel
from repro.zoo.pretrain import PretrainConfig
from repro.zoo.tasks import TaskUniverse
from repro.zoo.zoo import ModelZoo, ZooConfig, build_zoo, _select_names

__all__ = ["zoo_cache_key", "save_zoo", "load_zoo", "get_or_build_zoo",
           "default_cache_dir", "build_default_zoo"]

_CACHE_VERSION = 12

#: what reading a missing, torn or foreign cache file raises
_READ_ERRORS = (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError,
                zipfile.BadZipFile, zlib.error)


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro_transfergraph"


def zoo_cache_key(config: ZooConfig) -> str:
    """Stable content hash of a config (includes the cache version)."""
    payload = json.dumps({"v": _CACHE_VERSION, **config.to_dict()}, sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=10).hexdigest()


def _replace(path: Path, write) -> None:
    """Crash-safe write: ``write(tmp)`` fills a hidden sibling of
    ``path`` (same suffix, unique per writer thread), which then moves
    into place with ``os.replace``."""
    tmp = path.with_name(
        f".{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp{path.suffix}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_zoo(zoo: ModelZoo, cache_dir: Path | str | None = None) -> Path:
    """Persist a built zoo, one crash-safe file at a time; returns its
    cache directory."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    out = root / zoo_cache_key(zoo.config)
    out.mkdir(parents=True, exist_ok=True)

    config = json.dumps(zoo.config.to_dict(), indent=1)
    _replace(out / "config.json", lambda tmp: tmp.write_text(config))
    _replace(out / "catalog.json", zoo.catalog.save)
    specs = json.dumps([asdict(m.spec) for m in zoo.models.values()], indent=1)
    _replace(out / "specs.json", lambda tmp: tmp.write_text(specs))

    arrays: dict[str, np.ndarray] = {}
    for model_id, model in zoo.models.items():
        for name, value in model.state().items():
            arrays[f"{model_id}::{name}"] = value
    _replace(out / "weights.npz", lambda tmp: np.savez_compressed(tmp, **arrays))
    return out


def _config_from_dict(payload: dict) -> ZooConfig:
    payload = dict(payload)
    payload["input_dims"] = tuple(payload["input_dims"])
    payload["sample_budget"] = tuple(payload["sample_budget"])
    payload["pretrain_epoch_choices"] = tuple(payload["pretrain_epoch_choices"])
    payload["finetune"] = FinetuneConfig(**payload["finetune"])
    payload["pretrain"] = PretrainConfig(**payload["pretrain"])
    return ZooConfig(**payload)


def _read_cache(path: Path):
    """(catalog, specs, state dicts by model id) from a cache directory;
    None when any of those files is missing, torn or unparsable."""
    try:
        catalog = ZooCatalog.load(path / "catalog.json")
        specs = [ModelSpec(**s)
                 for s in json.loads((path / "specs.json").read_text())]
        grouped: dict[str, dict[str, np.ndarray]] = {}
        with np.load(path / "weights.npz") as arrays:
            for key in arrays.files:
                model_id, name = key.split("::", 1)
                grouped.setdefault(model_id, {})[name] = arrays[key]
    except _READ_ERRORS:  # a cache miss, so the zoo rebuilds
        return None
    return catalog, specs, grouped


def load_zoo(config: ZooConfig, cache_dir: Path | str | None = None) -> ModelZoo | None:
    """Restore a zoo for ``config`` from cache, or None when absent or
    unreadable."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / zoo_cache_key(config)
    required = ["config.json", "catalog.json", "specs.json", "weights.npz"]
    if not all((path / f).exists() for f in required):
        return None
    cached = _read_cache(path)
    if cached is None:
        return None
    catalog, specs, grouped = cached

    universe = TaskUniverse(
        config.modality, seed=config.seed, semantic_dim=config.semantic_dim,
        input_dims=config.input_dims, sample_budget=config.sample_budget,
        class_budget=config.class_budget,
    )
    targets, sources = _select_names(universe, config)
    datasets = universe.materialise_all(targets + sources)

    models = []
    for spec in specs:
        model = ZooModel(spec)
        model.load_state(grouped[spec.model_id])
        row = catalog.models.get_or_none(spec.model_id)
        model.pretrain_accuracy = row["pretrain_accuracy"] if row else None
        models.append(model)

    return ModelZoo(config, universe, datasets, models, catalog)


def get_or_build_zoo(config: ZooConfig, cache_dir: Path | str | None = None,
                     progress: bool = False) -> ModelZoo:
    """Load a cached zoo or build (+cache) it."""
    zoo = load_zoo(config, cache_dir)
    if zoo is None:
        zoo = build_zoo(config, progress=progress)
        save_zoo(zoo, cache_dir)
    if config.include_lora and zoo.ensure_lora_history() > 0:
        save_zoo(zoo, cache_dir)
    return zoo


def build_default_zoo(modality: str = "image", seed: int = 0,
                      cache_dir: Path | str | None = None,
                      progress: bool = False) -> ModelZoo:
    """The zoo configuration used by the benchmark suite."""
    return get_or_build_zoo(ZooConfig.default(modality=modality, seed=seed),
                            cache_dir=cache_dir, progress=progress)
