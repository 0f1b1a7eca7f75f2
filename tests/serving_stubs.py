"""Stub zoo/pipeline doubles shared by the serving concurrency tests.

A real fit on the tiny zoo takes hundreds of milliseconds; the
deterministic queue/overflow tests instead force exact timings with a
service whose "fit" is a controllable sleep that returns a lightweight
fake pipeline.  The artifact helpers at the end read, rewrite and
stamp registry artifact files for the registry and crash-safety tests.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from repro.core import TransferGraphConfig
from repro.fleet.wire import decode_frame
from repro.serving import ArtifactRegistry, SelectionService
from repro.strategies import SelectionStrategy


class StubZoo:
    def __init__(self, targets=("t0", "t1", "t2", "t3")):
        self._targets = list(targets)

    def dataset_names(self):
        return list(self._targets)

    def target_names(self):
        return list(self._targets)

    def model_ids(self):
        return ["m0", "m1", "m2"]


class StubFitted:
    def __init__(self, target, scores=None):
        self.target = target
        #: model_id -> score; None keeps the legacy reverse-index scores
        self.scores = scores

    def rank(self, model_ids):
        if self.scores is None:
            return [(m, float(len(model_ids) - i))
                    for i, m in enumerate(model_ids)]
        return sorted(((m, float(self.scores[m])) for m in model_ids),
                      key=lambda kv: (-kv[1], kv[0]))

    def predict(self, model_ids):
        if self.scores is None:
            return np.arange(len(model_ids), dtype=float)
        return np.asarray([self.scores[m] for m in model_ids], dtype=float)


class StubStrategy(SelectionStrategy):
    """A SelectionStrategy double with fixed per-model scores.

    ``scores`` maps model_id -> score served for every target (so
    cross-strategy correlations are exactly computable in tests);
    ``fit_seconds`` makes the fit a controllable sleep and
    ``fit_weight`` feeds the gateway's weighted budget math.
    """

    requires_history = False

    def __init__(self, spec, scores, *, fit_seconds=0.0, fit_weight=1.0):
        self.spec = spec
        self.name = spec
        self.scores = dict(scores)
        self.fit_seconds = fit_seconds
        self.fit_weight = fit_weight

    def fit(self, zoo, target):
        if self.fit_seconds:
            time.sleep(self.fit_seconds)
        return StubFitted(target, self.scores)

    def fingerprint(self):
        return f"stub-{self.spec}"

    # pack/unpack double as the process-fit wire format, so stub
    # strategies can ride the process fit plane in tests too
    def pack(self, fitted, zoo):
        meta = {"kind": "stub", "target": fitted.target,
                "spec": self.spec, "scores": fitted.scores}
        return meta, {}

    def unpack(self, meta, arrays, zoo):
        return StubFitted(meta["target"], meta["scores"])

    def rank(self, zoo, target):
        return self.fit(zoo, target).rank(zoo.model_ids())

    def scores_for_target(self, zoo, target):
        return dict(self.scores)


def install_stub_fit(service: SelectionService, fit_seconds=0.0,
                     fail_first=0) -> None:
    """Replace a service's strategy fit with a controllable sleep."""
    lock, counter = threading.Lock(), [0]

    def fake_fit(zoo, target):
        if fit_seconds:
            time.sleep(fit_seconds)
        with lock:
            counter[0] += 1
            if counter[0] <= fail_first:
                raise RuntimeError(f"injected fit failure #{counter[0]}")
        return StubFitted(target)

    service.strategy.fit = fake_fit


def stub_service(targets=("t0", "t1", "t2", "t3"), fit_seconds=0.0,
                 fail_first=0, cache_size=32) -> SelectionService:
    """A SelectionService whose fits sleep instead of fitting.

    ``fail_first=k`` makes the first k fits raise, to test error
    propagation through coalesced futures.
    """
    service = SelectionService(StubZoo(targets), TransferGraphConfig(),
                               cache_size=cache_size)
    install_stub_fit(service, fit_seconds=fit_seconds, fail_first=fail_first)
    return service


def stub_gateway(names=("alpha", "beta"), targets=("t0", "t1", "t2", "t3"),
                 fit_seconds=0.0, strategies=(), **namespace_kwargs):
    """A SelectionGateway whose namespaces serve stub zoos.

    Each namespace gets its own StubZoo and sleep-fit service; extra
    kwargs (max_pending_fits, fit_workers, ...) apply to every
    namespace's router.  ``strategies`` adds extra rankers (e.g.
    :class:`StubStrategy` instances) to every namespace's map.
    """
    from repro.serving import SelectionGateway

    gateway = SelectionGateway()
    for name in names:
        service = gateway.add_namespace(name, StubZoo(targets),
                                        TransferGraphConfig(),
                                        strategies=strategies,
                                        **namespace_kwargs)
        install_stub_fit(service, fit_seconds=fit_seconds)
    return gateway


#: three-strategy score tables over StubZoo's m0/m1/m2 roster with known
#: pairwise relationships: ``agree`` ranks exactly like the default stub
#: fit (m0 > m1 > m2), ``flip`` ranks the reverse, ``tied`` is constant
STUB_SCORES = {
    "agree": {"m0": 3.0, "m1": 2.0, "m2": 1.0},
    "flip": {"m0": 1.0, "m1": 2.0, "m2": 3.0},
    "tied": {"m0": 1.0, "m1": 1.0, "m2": 1.0},
}


# ---------------------------------------------------------------------- #
# artifact files: read, rewrite, and a generation-stamped raw strategy
# ---------------------------------------------------------------------- #
def read_artifact(path):
    """The ``(meta, arrays)`` one registry artifact file holds."""
    frame = decode_frame(path.read_bytes()[4:])
    return frame.meta, frame.arrays


def rewrite_artifact(registry, target, strategy, edit):
    """Re-save an artifact with ``edit(meta, arrays)`` applied in place.

    The result is a well-formed file (fresh digest) holding different
    contents, as if an older or foreign writer had produced it.
    """
    meta, arrays = read_artifact(registry.path_for(target, strategy))
    edit(meta, arrays)
    return registry.save_packed(meta, arrays, strategy, target)


class RawStrategy(SelectionStrategy):
    """Stores a packed ``(meta, arrays)`` pair as given; ``unpack`` hands
    both back, so only the registry's codec stands between a damaged
    file and the caller."""

    spec = name = "raw"

    def fingerprint(self):
        return "raw-artifacts"

    def unpack(self, meta, arrays, zoo):
        return meta, arrays


def generation(g, size=1 << 14):
    """A packed artifact whose meta and every array carry generation ``g``."""
    meta = {"generation": g, "target": "t0"}
    arrays = {
        "ints": np.full(size, g, dtype=np.int64),
        "floats": np.full((size // 4, 4), float(g)),
    }
    return meta, arrays


def whole_generation(loaded):
    """The generation of a loaded ``(meta, arrays)``; fails on a mix."""
    meta, arrays = loaded
    g = meta["generation"]
    for name, array in arrays.items():
        assert (array == g).all(), f"{name} is not generation {g}"
    return g


def save_generations(root, first, started):
    """Save generations ``first, first + 1, ...`` of ``t0`` until killed."""
    registry, strategy = ArtifactRegistry(root), RawStrategy()
    started.set()
    for g in itertools.count(first):
        registry.save_packed(*generation(g), strategy, "t0")
