"""The ``repro analyze`` suite: fixture trees, self-check, CLI contract.

Two kinds of coverage:

- **fixture tests** — each rule must fire on the planted violations in
  ``tests/analysis_fixtures/bad/`` and stay silent on the corrected
  twins in ``tests/analysis_fixtures/good/`` (which also exercises
  ``# analyze: ignore[...]`` suppression and ``*_locked`` exemptions);
- **self-check** — the suite must be clean over this repository itself,
  and breaking the real ``serving/protocol.py`` schema (removing or
  retyping a field relative to the committed snapshot) must fail the
  ``wire-schema`` rule — the property the CI ``analysis`` job gates on.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Finding,
    Project,
    SNAPSHOT_PATH,
    all_rules,
    extract_schema,
    format_findings,
    run_analysis,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis_fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"

RULE_IDS = [cls.id for cls in all_rules()]


def _messages(findings, rule):
    return [f.message for f in findings if f.rule == rule]


# --------------------------------------------------------------------- #
# bad fixture: every rule fires on the planted lines
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bad_findings():
    return run_analysis(BAD)


def test_every_rule_fires_on_bad_fixture(bad_findings):
    assert {f.rule for f in bad_findings} == set(RULE_IDS)


def test_lock_discipline_flags_unguarded_read(bad_findings):
    [message] = _messages(bad_findings, "lock-discipline")
    assert "Counter._hits" in message
    assert "self._lock" in message
    [finding] = [f for f in bad_findings if f.rule == "lock-discipline"]
    assert finding.path == "src/repro/serving/counter.py"
    assert "with self._lock" in finding.hint


def test_async_blocking_flags_each_primitive(bad_findings):
    messages = _messages(bad_findings, "async-blocking")
    assert len(messages) == 11
    for needle in ("time.sleep", "open()", "future.result", "strategy.fit",
                   "sqlite3.connect", "conn.execute", ".read_bytes()",
                   ".read_text()", ".write_bytes()", ".write_text()",
                   "np.load"):
        assert any(needle in m for m in messages), needle


def test_wire_schema_flags_every_break(bad_findings):
    messages = _messages(bad_findings, "wire-schema")
    assert len(messages) == 4
    assert any("RankResponse was removed" in m for m in messages)
    assert any("request_id was removed" in m for m in messages)
    assert any("top_k was retyped" in m for m in messages)
    assert any("trace is a new required field" in m for m in messages)


def test_layering_flags_upward_import_and_protocol_import(bad_findings):
    messages = _messages(bad_findings, "import-layering")
    assert len(messages) == 2
    assert any("upward dependency" in m for m in messages)
    assert any("stdlib-only" in m for m in messages)


def test_pickle_boundary_flags_lock_lambda_and_nested_submit(bad_findings):
    messages = _messages(bad_findings, "pickle-boundary")
    assert len(messages) == 2
    assert any("threading.Lock" in m for m in messages)
    assert any("lambda" in m for m in messages)


def test_rule_filter_scopes_the_run():
    findings = run_analysis(BAD, ["lock-discipline"])
    assert findings and all(f.rule == "lock-discipline" for f in findings)


# --------------------------------------------------------------------- #
# good fixture: corrected twins (and suppressions) are silent
# --------------------------------------------------------------------- #
def test_good_fixture_is_clean():
    assert run_analysis(GOOD) == []


def test_suppression_comment_is_load_bearing(tmp_path):
    """Stripping the ignore comment in good/counter.py revives the finding."""
    root = tmp_path / "repo"
    shutil.copytree(GOOD, root)
    counter = root / "src/repro/serving/counter.py"
    text = counter.read_text(encoding="utf-8")
    assert "# analyze: ignore[lock-discipline]" in text
    counter.write_text(
        text.replace("  # analyze: ignore[lock-discipline]", ""),
        encoding="utf-8",
    )
    findings = run_analysis(root, ["lock-discipline"])
    assert [f.line for f in findings] == [29]


# --------------------------------------------------------------------- #
# self-check: this repository holds its own invariants
# --------------------------------------------------------------------- #
def test_repo_tree_is_clean():
    assert run_analysis(REPO_ROOT) == []


def _schema_break_root(tmp_path, mutate):
    """A mini-repo with the *real* protocol.py and a doctored snapshot."""
    root = tmp_path / "repo"
    serving = root / "src/repro/serving"
    serving.mkdir(parents=True)
    real = REPO_ROOT / "src/repro/serving/protocol.py"
    (serving / "protocol.py").write_text(
        real.read_text(encoding="utf-8"), encoding="utf-8"
    )
    schema = copy.deepcopy(extract_schema(Project(REPO_ROOT)))
    mutate(schema)
    snapshot = root / SNAPSHOT_PATH
    snapshot.parent.mkdir(parents=True)
    snapshot.write_text(json.dumps(schema), encoding="utf-8")
    return root


def test_removing_a_live_protocol_field_fails(tmp_path):
    # A snapshot field the live module no longer has == a deleted field.
    def mutate(schema):
        fields = schema["messages"]["RankRequest"]["fields"]
        fields["legacy_hint"] = {"type": "str | None", "required": False}

    findings = run_analysis(
        _schema_break_root(tmp_path, mutate), ["wire-schema"]
    )
    assert [f.rule for f in findings] == ["wire-schema"]
    assert "RankRequest.legacy_hint was removed" in findings[0].message


def test_retyping_a_live_protocol_field_fails(tmp_path):
    def mutate(schema):
        schema["messages"]["RankRequest"]["fields"]["target"]["type"] = "bytes"

    findings = run_analysis(
        _schema_break_root(tmp_path, mutate), ["wire-schema"]
    )
    assert len(findings) == 1
    assert "RankRequest.target was retyped" in findings[0].message


def test_live_schema_matches_committed_snapshot():
    committed = json.loads(
        (REPO_ROOT / SNAPSHOT_PATH).read_text(encoding="utf-8")
    )
    assert extract_schema(Project(REPO_ROOT)) == committed


# --------------------------------------------------------------------- #
# runner machinery and the CLI face the CI job drives
# --------------------------------------------------------------------- #
def test_unknown_rule_is_an_analysis_error():
    with pytest.raises(AnalysisError, match="unknown rule"):
        run_analysis(BAD, ["no-such-rule"])


def test_findings_are_stably_ordered(bad_findings):
    keys = [f.sort_key() for f in bad_findings]
    assert keys == sorted(keys)


def test_format_findings_json_report(bad_findings):
    report = json.loads(format_findings(bad_findings, "json"))
    assert report["count"] == len(bad_findings)
    assert report["ok"] is False
    assert report["findings"][0]["rule"] == bad_findings[0].rule
    clean = json.loads(format_findings([], "json"))
    assert clean == {"count": 0, "findings": [], "ok": True}


def test_format_findings_human_includes_hint():
    finding = Finding(
        rule="demo", path="src/x.py", line=3, message="boom", hint="fix it"
    )
    text = format_findings([finding])
    assert "src/x.py:3: [demo] boom" in text
    assert "fix: fix it" in text


def test_cli_exit_codes(capsys):
    assert main(["analyze", "--root", str(GOOD)]) == 0
    assert "clean" in capsys.readouterr().out
    assert main(["analyze", "--root", str(BAD), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["count"] > 0


def test_cli_update_schema_round_trips(tmp_path, capsys):
    root = tmp_path / "repo"
    shutil.copytree(GOOD, root)
    snapshot = root / SNAPSHOT_PATH
    snapshot.unlink()
    assert main(["analyze", "--root", str(root), "--rule", "wire-schema"]) == 1
    assert "no committed schema snapshot" in capsys.readouterr().out
    assert main(["analyze", "--root", str(root), "--update-schema"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--root", str(root)]) == 0
    regenerated = json.loads(snapshot.read_text(encoding="utf-8"))
    committed = json.loads(
        (GOOD / SNAPSHOT_PATH).read_text(encoding="utf-8")
    )
    assert regenerated == committed
