"""The simulated model zoo: datasets, models, training pipelines, cache.

See docs/fidelity.md for the substitution argument: the paper's HuggingFace
zoo + GPU fine-tuning is replaced by genuinely-trained small numpy models
over a latent task universe with real transfer structure.
"""

from repro.zoo.tasks import (
    Dataset,
    DatasetSpec,
    TaskUniverse,
    IMAGE_TARGETS,
    IMAGE_SOURCES,
    TEXT_TARGETS,
    TEXT_SOURCES,
)
from repro.zoo.architectures import (
    FamilyConfig,
    ModelSpec,
    IMAGE_FAMILIES,
    TEXT_FAMILIES,
    build_feature_extractor,
    family_config,
    sample_model_specs,
)
from repro.zoo.models import ZooModel
from repro.zoo.pretrain import PretrainConfig, pretrain_model
from repro.zoo.finetune import (
    FinetuneConfig,
    FinetuneResult,
    full_finetune,
    lora_finetune,
)
from repro.zoo.zoo import ModelZoo, ZooConfig, build_zoo
from repro.zoo.cache import (
    build_default_zoo,
    default_cache_dir,
    get_or_build_zoo,
    load_zoo,
    save_zoo,
    zoo_cache_key,
)

__all__ = [
    "Dataset",
    "DatasetSpec",
    "TaskUniverse",
    "IMAGE_TARGETS",
    "IMAGE_SOURCES",
    "TEXT_TARGETS",
    "TEXT_SOURCES",
    "FamilyConfig",
    "ModelSpec",
    "IMAGE_FAMILIES",
    "TEXT_FAMILIES",
    "build_feature_extractor",
    "family_config",
    "sample_model_specs",
    "ZooModel",
    "PretrainConfig",
    "pretrain_model",
    "FinetuneConfig",
    "FinetuneResult",
    "full_finetune",
    "lora_finetune",
    "ModelZoo",
    "ZooConfig",
    "build_zoo",
    "build_default_zoo",
    "default_cache_dir",
    "get_or_build_zoo",
    "load_zoo",
    "save_zoo",
    "zoo_cache_key",
]
