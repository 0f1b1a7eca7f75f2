"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §4).  The zoos are built once and cached on disk, so the first
run pays the build cost and later runs only pay the experiment itself.
"""

from __future__ import annotations

import pytest

from repro.zoo import ZooConfig, get_or_build_zoo


@pytest.fixture(scope="session")
def image_zoo():
    return get_or_build_zoo(ZooConfig.default(modality="image", seed=0))


@pytest.fixture(scope="session")
def text_zoo():
    return get_or_build_zoo(ZooConfig.default(modality="text", seed=0))


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
