"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_arguments(self):
        args = build_parser().parse_args(
            ["--scale", "tiny", "rank", "dtd", "--top", "3"])
        assert args.command == "rank"
        assert args.target == "dtd"
        assert args.top == 3
        assert args.scale == "tiny"

    def test_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.modality == "image"
        assert args.predictor == "xgb"

    def test_rejects_bad_modality(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--modality", "audio", "stats"])

    def test_serve_sim_concurrency_arguments(self):
        args = build_parser().parse_args(
            ["serve-sim", "--concurrency", "8", "--max-pending-fits", "2",
             "--partition"])
        assert args.concurrency == 8
        assert args.max_pending_fits == 2
        assert args.partition is True

    def test_serve_sim_concurrency_defaults_serial(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.concurrency == 1
        assert args.partition is False

    def test_serve_sim_rejects_zero_concurrency(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--concurrency", "0"])

    def test_registry_gc_arguments(self, tmp_path):
        args = build_parser().parse_args(
            ["registry-gc", "--registry-dir", str(tmp_path), "--dry-run"])
        assert args.command == "registry-gc"
        assert args.dry_run is True

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0",
             "--namespace", "img=image:tiny",
             "--namespace", "txt=text:tiny",
             "--fit-workers", "4"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.namespaces == [("img", "image", "tiny"),
                                   ("txt", "text", "tiny")]
        assert args.fit_workers == 4

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.namespaces is None
        assert args.warmup is False

    def test_serve_rejects_bad_namespace_specs(self):
        from repro.cli import parse_namespace_spec

        for bad in ("noequals", "name=", "=image", "n=audio",
                    "n=image:huge", "a/b=image", "..=image"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--namespace", bad])
        assert parse_namespace_spec("n=text:tiny") == ("n", "text", "tiny")
        # omitted scale resolves to the global --scale flag at serve time
        assert parse_namespace_spec("n=text") == ("n", "text", None)

    def test_serve_rejects_duplicate_namespace_names(self, capsys):
        assert main(["serve", "--namespace", "a=image:tiny",
                     "--namespace", "a=text:tiny"]) == 2
        assert "duplicate namespace" in capsys.readouterr().err

    def test_rank_rejects_non_positive_top(self):
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["rank", "dtd", "--top", bad])


class TestCommands:
    """End-to-end CLI runs on the tiny preset (uses the shared cache)."""

    ARGS = ["--scale", "tiny", "--seed", "7"]

    def test_build_zoo(self, capsys):
        assert main(self.ARGS + ["build-zoo"]) == 0
        out = capsys.readouterr().out
        assert "zoo ready" in out

    def test_stats(self, capsys):
        assert main(self.ARGS + ["stats"]) == 0
        out = capsys.readouterr().out
        assert "num_dd_edges" in out
        assert "link examples" in out

    def test_rank_unknown_target(self, capsys):
        assert main(self.ARGS + ["rank", "not_a_dataset"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_rank_known_target(self, capsys):
        assert main(self.ARGS + ["rank", "caltech101", "--top", "2",
                                 "--predictor", "lr"]) == 0
        out = capsys.readouterr().out
        assert "top 2 models for caltech101" in out

    def test_serve_sim_concurrent(self, capsys, tmp_path):
        assert main(self.ARGS + ["serve-sim", "--queries", "6",
                                 "--predictor", "lr", "--concurrency", "3",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "18 queries over 3 async clients" in out
        assert "coalesced" in out
        assert "peak fit queue" in out

    def test_registry_gc(self, capsys, tmp_path):
        # A junk namespace that no live config can ever match.
        junk = tmp_path / "deadbeefdeadbeefdead" / "sometarget"
        junk.mkdir(parents=True)
        (junk / "meta.json").write_text("{}")
        assert main(self.ARGS + ["registry-gc", "--predictor", "lr",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "namespaces removed      1" in out
        assert not junk.exists()

    def test_registry_gc_spares_other_live_strategies(self, capsys,
                                                      tmp_path):
        """Artifacts warmed under lr must survive a gc run with the
        default (xgb) flags — any servable strategy is live unless
        --only-strategy narrows the sweep."""
        assert main(self.ARGS + ["warmup", "--predictor", "lr",
                                 "--registry-dir", str(tmp_path)]) == 0
        capsys.readouterr()

        assert main(self.ARGS + ["registry-gc",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "servable strategies" in out
        assert "namespaces removed      0" in out
        assert "artifacts kept          3" in out

        assert main(self.ARGS + ["registry-gc", "--only-strategy",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "namespaces removed      1" in out

    def test_registry_gc_dry_run_keeps_files(self, capsys, tmp_path):
        junk = tmp_path / "deadbeefdeadbeefdead" / "sometarget"
        junk.mkdir(parents=True)
        (junk / "meta.json").write_text("{}")
        assert main(self.ARGS + ["registry-gc", "--predictor", "lr",
                                 "--registry-dir", str(tmp_path),
                                 "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert junk.exists()


class TestServeEndToEnd:
    """`repro serve` as a real subprocess, hit over HTTP (the same
    exchange the CI smoke-test step runs)."""

    def test_serve_answers_http(self, tmp_path):
        import json
        import re
        import subprocess
        import sys as _sys
        import urllib.request

        process = subprocess.Popen(
            [_sys.executable, "-m", "repro", "--scale", "tiny", "--seed",
             "7", "serve", "--port", "0", "--predictor", "lr",
             "--namespace", "img=image:tiny",
             "--strategy", "lr:basic", "--strategy", "logme",
             "--registry-dir", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            url = None
            for _ in range(200):           # zoo may build on first run
                line = process.stdout.readline()
                if not line:
                    raise AssertionError("serve exited before listening")
                match = re.search(r"serving on (http://[\d.:]+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url is not None

            with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as r:
                assert r.status == 200
                health = json.loads(r.read())
            assert health["status"] == "ok"
            assert health["namespaces"] == ["img"]
            # default first, remaining specs sorted
            assert health["strategies"]["img"] == ["tg:lr,n2v,all",
                                                   "logme", "lr:basic"]

            def rank(strategy=None):
                payload = {"namespace": "img", "target": "caltech101",
                           "top_k": 3}
                if strategy is not None:
                    payload["strategy"] = strategy
                request = urllib.request.Request(
                    f"{url}/v1/rank", data=json.dumps(payload).encode(),
                    method="POST")
                with urllib.request.urlopen(request, timeout=60) as r:
                    assert r.status == 200
                    return json.loads(r.read())

            # Acceptance: three strategy families through one gateway —
            # the TG default (omitted field), an LR baseline, and a
            # transferability-only ranker.
            for strategy in (None, "lr:basic", "logme"):
                ranking = rank(strategy)
                assert ranking["kind"] == "rank_response"
                assert ranking["target"] == "caltech101"
                assert len(ranking["ranking"]) == 3
                assert ranking.get("strategy") == strategy
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestStrategyFlags:
    def test_rank_accepts_strategy_spec(self):
        args = build_parser().parse_args(
            ["--scale", "tiny", "rank", "dtd", "--strategy", "logme"])
        assert args.strategy == "logme"

    def test_rank_rejects_unknown_strategy_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank", "dtd", "--strategy", "nope"])

    def test_serve_collects_repeatable_strategies(self):
        args = build_parser().parse_args(
            ["serve", "--strategy", "logme", "--strategy", "lr:all+logme",
             "--shed-start", "0.75"])
        assert args.strategies == ["logme", "lr:all+logme"]
        assert args.shed_start == 0.75

    def test_serve_defaults_have_no_extra_strategies(self):
        args = build_parser().parse_args(["serve"])
        assert args.strategies is None
        assert args.shed_start == 1.0

    def test_registry_gc_gateway_flag(self):
        args = build_parser().parse_args(["registry-gc", "--gateway"])
        assert args.gateway is True

    def test_serve_sim_shed_start_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--shed-start", "1.5"])


class TestStrategyCommands:
    """Transferability strategies fit without Stage 2/3, so these runs
    stay cheap even from a cold registry."""

    ARGS = ["--scale", "tiny", "--seed", "7"]

    def test_rank_with_transferability_strategy(self, capsys, tmp_path):
        assert main(self.ARGS + ["rank", "caltech101", "--top", "2",
                                 "--strategy", "logme",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "top 2 models for caltech101 (LogME)" in out

    def test_warmup_with_strategy_writes_score_tables(self, capsys,
                                                      tmp_path):
        assert main(self.ARGS + ["warmup", "--strategy", "random",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(Random, thread executor)" in out
        from repro.serving import ArtifactRegistry
        from repro.strategies import get_strategy

        registry = ArtifactRegistry(tmp_path)
        assert len(registry.targets(get_strategy("random"))) == 3

    def test_serve_sim_with_strategy(self, capsys, tmp_path):
        assert main(self.ARGS + ["serve-sim", "--queries", "6",
                                 "--strategy", "random",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(Random," in out

    def test_registry_gc_gateway_layout(self, capsys, tmp_path):
        # a namespace shard holding one junk fingerprint directory
        junk = tmp_path / "img" / "deadbeefdeadbeefdead" / "sometarget"
        junk.mkdir(parents=True)
        (junk / "meta.json").write_text("{}")
        assert main(self.ARGS + ["registry-gc", "--gateway",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "gateway layout" in out
        assert "namespaces removed      1" in out
        assert not junk.exists()
        assert (tmp_path / "img").is_dir()  # shard dir survives


class TestRegistryGCStrategySafety:
    """Regressions: the sweep must never eat servable artifacts."""

    ARGS = ["--scale", "tiny", "--seed", "7"]

    def test_explicit_parameterized_strategy_stays_live(self, capsys,
                                                        tmp_path):
        """random:5 is CLI-servable but not enumerable; naming it via
        --strategy must keep its artifacts through a default sweep."""
        assert main(self.ARGS + ["warmup", "--strategy", "random:5",
                                 "--registry-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["registry-gc", "--strategy", "random:5",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "namespaces removed      0" in out
        assert "artifacts kept          3" in out

    def test_gateway_sweep_never_judges_catalog_staleness(self, capsys,
                                                          tmp_path):
        """Shards may serve different zoos (heterogeneous --namespace),
        so --gateway must keep artifacts whose catalog fingerprint does
        not match the CLI's own zoo."""
        from repro.serving import ArtifactRegistry, SelectionService
        from repro.strategies import get_strategy
        from repro.zoo import ZooConfig, get_or_build_zoo
        from serving_stubs import rewrite_artifact

        zoo = get_or_build_zoo(ZooConfig.tiny(modality="image", seed=7))
        shard = ArtifactRegistry(tmp_path / "other")
        strategy = get_strategy("random")
        service = SelectionService(zoo, strategy, registry=shard)
        target = zoo.target_names()[0]
        service.warmup([target])
        # Simulate a shard fitted against a different zoo's catalog.
        path = rewrite_artifact(
            shard, target, strategy,
            lambda meta, _: meta.update(catalog_fingerprint="f" * 20))

        assert main(self.ARGS + ["registry-gc", "--gateway",
                                 "--registry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artifacts kept          1" in out
        assert path.exists()


class TestServedEvaluateFlags:
    def test_evaluate_served_arguments(self):
        args = build_parser().parse_args(
            ["evaluate", "--served", "--strategy", "logme",
             "--strategy", "random", "--reference", "logme",
             "--top-k", "5", "--output", "out.json"])
        assert args.served is True
        assert args.strategies == ["logme", "random"]
        assert args.reference == "logme"
        assert args.top_k == 5
        assert str(args.output) == "out.json"

    def test_evaluate_defaults_stay_offline(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.served is False
        assert args.strategies is None
        assert args.reference is None
        assert args.top_k == 3
        assert args.output is None

    def test_evaluate_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--strategy", "nope"])

    def test_serve_fit_budget_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--fit-budget", "logme=16",
             "--fit-budget", "tg:lr,n2v,all=2"])
        assert args.fit_budgets == [("logme", 16), ("tg:lr,n2v,all", 2)]
        assert args.weighted_fit_budgets is False

    def test_serve_weighted_fit_budgets_flag(self):
        args = build_parser().parse_args(["serve", "--weighted-fit-budgets"])
        assert args.weighted_fit_budgets is True
        assert args.fit_budgets is None

    def test_serve_rejects_malformed_fit_budgets(self):
        for bad in ("logme", "logme=", "=3", "logme=zero", "logme=0",
                    "nope=3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--fit-budget", bad])


class TestServedEvaluateCommand:
    """`evaluate --served` end to end on the tiny preset."""

    def test_writes_the_benchmark_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_compare.json"
        assert main(["--scale", "tiny", "--seed", "7", "evaluate",
                     "--served", "--predictor", "lr",
                     "--strategy", "logme", "--strategy", "random",
                     "--top-k", "3", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "served comparison" in printed
        assert "reference tg:lr,n2v,all" in printed
        assert str(out) in printed

        report = json.loads(out.read_text())
        assert report["benchmark"] == "compare_served"
        assert report["reference"] == "tg:lr,n2v,all"
        assert set(report["strategies"]) == {"tg:lr,n2v,all", "logme",
                                             "random"}
        for row in report["strategies"].values():
            assert row["targets_shed"] == 0
            assert row["targets_ok"] == len(report["targets"])
        # the reference correlates perfectly with itself; weighted
        # budgets give the heavy TG strategy the shallow queue
        reference = report["strategies"]["tg:lr,n2v,all"]
        assert reference["mean_pearson"] == 1.0
        assert reference["mean_top_k_overlap"] == 1.0
        assert reference["fit_budget"] < report["strategies"]["logme"][
            "fit_budget"]
