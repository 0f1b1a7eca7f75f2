"""The docs toolchain: protocol renderer, link checker, CLI entry points."""

import json
from pathlib import Path

from repro.cli import main
from repro.docs import (
    check_links,
    check_protocol_doc,
    render_protocol_doc,
    write_protocol_doc,
)
from repro.docs.links import cli_subcommands, doc_files
from repro.docs.protocol import PROTOCOL_DOC_PATH, SNAPSHOT_PATH
from repro.fleet import wire

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestProtocolDoc:
    def test_render_covers_every_message_and_frame(self):
        doc = render_protocol_doc(REPO_ROOT)
        snapshot = json.loads(
            (REPO_ROOT / SNAPSHOT_PATH).read_text(encoding="utf-8"))
        for message in snapshot["messages"]:
            assert f"### `{message}`" in doc
        for name in wire._FRAME_NAMES.values():
            assert f"| `{name}` |" in doc
        assert str(wire.WIRE_VERSION) in doc

    def test_committed_doc_is_fresh(self):
        # the same gate CI runs: a stale docs/protocol.md fails here first
        assert check_protocol_doc(REPO_ROOT) == []

    def test_check_reports_missing_and_stale(self, tmp_path):
        root = tmp_path
        (root / "benchmarks/baselines").mkdir(parents=True)
        (root / SNAPSHOT_PATH).write_text(
            (REPO_ROOT / SNAPSHOT_PATH).read_text(encoding="utf-8"),
            encoding="utf-8")
        problems = check_protocol_doc(root)
        assert problems and "missing" in problems[0]

        write_protocol_doc(root)
        assert check_protocol_doc(root) == []

        doc = root / PROTOCOL_DOC_PATH
        doc.write_text(doc.read_text(encoding="utf-8") + "\ndrift\n",
                       encoding="utf-8")
        problems = check_protocol_doc(root)
        assert problems and "stale" in problems[0]


class TestLinkChecker:
    def test_repo_docs_are_clean(self):
        assert check_links(REPO_ROOT) == []

    def test_doc_files_readme_first(self):
        files = doc_files(REPO_ROOT)
        assert files[0].name == "README.md"
        assert any(f.name == "architecture.md" for f in files)

    def test_cli_subcommands_parsed_from_parser(self):
        commands = cli_subcommands()
        assert {"serve", "docs", "registry-gc"} <= commands

    def test_broken_relative_link_flagged(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "see [missing](docs/nope.md)\n", encoding="utf-8")
        problems = check_links(tmp_path)
        assert len(problems) == 1
        assert "docs/nope.md" in problems[0]

    def test_resolving_link_and_external_links_pass(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs/ok.md").write_text("hi\n", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "[ok](docs/ok.md) [web](https://example.com) [anchor](#x)\n",
            encoding="utf-8")
        assert check_links(tmp_path) == []

    def test_cross_file_anchor_must_name_a_heading(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs/ok.md").write_text(
            "# Present heading\n\n```sh\n# not a heading\n```\n",
            encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "[ok](docs/ok.md#present-heading)\n"
            "[gone](docs/ok.md#missing)\n"
            "[fenced](docs/ok.md#not-a-heading)\n",
            encoding="utf-8")
        problems = check_links(tmp_path)
        assert len(problems) == 2
        assert "README.md:2:" in problems[0]
        assert "docs/ok.md#missing" in problems[0]
        assert "README.md:3:" in problems[1]

    def test_unknown_cli_subcommand_flagged(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "```sh\npython -m repro frobnicate --fast\n```\n",
            encoding="utf-8")
        problems = check_links(tmp_path)
        assert len(problems) == 1
        assert "frobnicate" in problems[0]

    def test_cli_outside_fences_ignored(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "prose mentioning repro frobnicate is fine\n", encoding="utf-8")
        assert check_links(tmp_path) == []

    def test_markdown_names_in_code_must_resolve(self, tmp_path):
        """A ``*.md`` name in src/, benchmarks/ or examples/ Python must
        exist from the repo root or from docs/; tests/ is not scanned."""
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs/fidelity.md").write_text("# F\n", encoding="utf-8")
        (tmp_path / "README.md").write_text("# R\n", encoding="utf-8")
        module = tmp_path / "src/pkg/mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            '"""See NOTES.md §2 and docs/fidelity.md, fidelity.md,\n'
            'README.md and docs/*.md; index.mdx is not markdown."""\n'
            "# RESULTS.md explains it\n"
            'URL = "https://example.com/GONE.md"\n',
            encoding="utf-8")
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks/bench.py").write_text(
            "# see docs/missing.md\n", encoding="utf-8")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests/test_fixture.py").write_text(
            "# names NOWHERE.md on purpose\n", encoding="utf-8")
        problems = check_links(tmp_path)
        assert len(problems) == 3
        assert "src/pkg/mod.py:1:" in problems[0]
        assert "'NOTES.md'" in problems[0]
        assert "src/pkg/mod.py:3:" in problems[1]
        assert "'RESULTS.md'" in problems[1]
        assert "benchmarks/bench.py:1:" in problems[2]
        assert "'docs/missing.md'" in problems[2]


class TestDocsCli:
    def test_docs_requires_a_mode(self, capsys):
        assert main(["docs"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_docs_check_passes_on_repo(self, capsys):
        assert main(["docs", "--protocol", "--check", "--check-links",
                     "--root", str(REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_docs_check_fails_on_drift(self, tmp_path, capsys):
        (tmp_path / "benchmarks/baselines").mkdir(parents=True)
        (tmp_path / SNAPSHOT_PATH).write_text(
            (REPO_ROOT / SNAPSHOT_PATH).read_text(encoding="utf-8"),
            encoding="utf-8")
        assert main(["docs", "--protocol", "--check",
                     "--root", str(tmp_path)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_docs_protocol_writes(self, tmp_path, capsys):
        (tmp_path / "benchmarks/baselines").mkdir(parents=True)
        (tmp_path / SNAPSHOT_PATH).write_text(
            (REPO_ROOT / SNAPSHOT_PATH).read_text(encoding="utf-8"),
            encoding="utf-8")
        assert main(["docs", "--protocol", "--root", str(tmp_path)]) == 0
        assert (tmp_path / PROTOCOL_DOC_PATH).exists()
