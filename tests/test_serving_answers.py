"""Materialised answers: warm reads are lookups, and lookups stay exact.

Each fitted target's whole answer (best-first ranking + model→score
map) is computed once, when its pipeline enters the service cache, and
the router answers warm requests inline on the event loop by indexing
it.  These tests pin the three things that design has to keep:

- a warm answer still suspends once, so a client looping on warm reads
  cannot starve other tasks on the loop;
- served rankings are exactly the offline ``strategy.fit(...).rank``
  across fresh fits, refreshes and LRU eviction + registry revival;
- a refresh racing warm reads swaps the whole answer at once.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serving import (
    Answer,
    ArtifactRegistry,
    AsyncSelectionRouter,
    SelectionService,
)
from repro.strategies import get_strategy

from serving_stubs import stub_service


def run(coro):
    return asyncio.run(coro)


class TestWarmAnswersYield:
    @pytest.mark.parametrize("call", [
        lambda router: router.rank("t0"),
        lambda router: router.score_batch([("m1", "t0")]),
    ], ids=["rank", "score_batch"])
    def test_warm_call_lets_a_scheduled_task_run(self, call):
        """One warm call is enough for a concurrently scheduled task to
        run: without the suspension a reader looping on warm answers
        would never let a writer resume."""
        router = AsyncSelectionRouter(stub_service())

        async def scenario():
            await call(router)  # cold: fit and cache t0
            ran = []

            async def other():
                ran.append(True)

            task = asyncio.ensure_future(other())
            await call(router)  # warm: must still suspend once
            seen = bool(ran)
            await task
            return seen

        try:
            assert run(scenario())
            assert router.stats()["cache_hits"] == 1
        finally:
            router.close()

    def test_cache_get_returns_the_stored_answer(self):
        service = stub_service()
        service.rank("t0")
        answer = service.cache_get("t0")
        assert isinstance(answer, Answer)
        assert answer.ranking == service.rank("t0")
        assert answer.scores == dict(answer.ranking)
        assert service.cache_get("t0") is answer


SPECS = ("tg:lr,n2v,all", "lr:all", "logme", "random")


class TestServedEqualsOffline:
    @pytest.mark.parametrize("spec", SPECS)
    def test_fresh_revived_and_refreshed_rankings_are_exact(
            self, spec, tiny_image_zoo, tmp_path, bumped_history):
        zoo = tiny_image_zoo
        model_ids = zoo.model_ids()
        # the bumped history row belongs to the first target, so the
        # second one is the target whose training labels it changes
        _, target, other = zoo.target_names()[:3]
        strategy = get_strategy(spec, embedding_dim=16)
        service = SelectionService(zoo, strategy,
                                   registry=ArtifactRegistry(tmp_path),
                                   cache_size=1)
        router = AsyncSelectionRouter(service)

        def offline():
            return strategy.fit(zoo, target).rank(model_ids)

        try:
            fresh = run(router.rank(target))
            assert fresh == offline()
            assert run(router.score_batch([(m, target) for m in model_ids])
                       ).tolist() == [dict(fresh)[m] for m in model_ids]

            run(router.rank(other))  # cache_size=1: evicts target
            assert service.cached_targets() == [other]
            assert run(router.rank(target)) == offline()
            assert service.stats()["registry_hits"] == 1

            with bumped_history(delta=0.05):
                refreshed = service.refresh(target)
                served = run(router.rank(target))
                assert served == refreshed.rank(model_ids)
                if not spec.startswith("tg:"):
                    # no incremental state: a refresh is a clean refit
                    assert served == offline()
            assert service.stats()["refreshes"] == 1
        finally:
            router.close()


class TestRefreshRace:
    def test_racing_reads_serve_the_old_or_the_new_ranking(self,
                                                           tiny_image_zoo):
        zoo = tiny_image_zoo
        source, target = zoo.target_names()[:2]
        row = zoo.catalog.history_for_dataset(source)[0]
        original, bumped = row["accuracy"], row["accuracy"] * 0.5
        strategy = get_strategy("lr:all")
        service = SelectionService(zoo, strategy)
        router = AsyncSelectionRouter(service)

        def write(accuracy: float) -> None:
            zoo.catalog.record_history(row["model_id"], source, accuracy,
                                       epochs=row["epochs"])

        def write_and_refresh(accuracy: float) -> None:
            write(accuracy)
            service.refresh(target)

        async def race() -> list:
            served, writing = [], [True]

            async def reader():
                while writing[0]:
                    served.append(await router.rank(target))

            async def writer():
                try:
                    for i in range(6):
                        await asyncio.to_thread(
                            write_and_refresh, bumped if i % 2 == 0 else original)
                finally:
                    writing[0] = False

            await asyncio.gather(reader(), reader(), writer())
            return served

        try:
            old = run(router.rank(target))
            write(bumped)
            new = strategy.fit(zoo, target).rank(zoo.model_ids())
            write(original)
            assert new != old

            served = run(race())
            assert served
            assert all(r == old or r == new for r in served)
            assert any(r == new for r in served)
            # the entry was swapped, never dropped: no read ever missed
            assert service.stats()["cache_misses"] == 1
            assert service.stats()["refreshes"] == 6
        finally:
            write(original)
            router.close()
