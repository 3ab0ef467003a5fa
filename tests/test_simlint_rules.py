"""Concurrency + protocol rule families, the pipeline, and formats.

Every SIM1xx rule is exercised twice from fixtures under
``tests/lint_fixtures/``: a ``*_pos.py`` snippet that must fire it and
a ``*_neg.py`` snippet that must stay silent — no rule is allowed to
be vacuously clean.  The real coordinator/runner sources are checked
against the lease model, the pipeline is proven to parse each file
exactly once, and the machine formats are pinned by a golden file.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.simlint import (
    LintConfig,
    lint_items,
    lint_sources,
    render_json,
    render_sarif,
    run_simlint,
)
from repro.cluster.lease_model import (
    API_CONTRACT,
    HANDLER_OPS,
    HANDLER_ROUTES,
    LEASE_TRANSITIONS,
    LeaseProtocolViolation,
    LeaseSanitizer,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"

NEW_RULES = [
    "SIM101", "SIM102", "SIM103", "SIM104", "SIM105", "SIM106",
    "SIM107", "SIM108", "SIM109",
]


def fixture_items(name: str):
    """(virtual_path, source) for one fixture, honoring ``# lint-as:``."""
    source = (FIXTURES / name).read_text()
    path = "src/repro/service/fixture.py"
    first = source.splitlines()[0] if source else ""
    if first.startswith("# lint-as:"):
        path = first.split(":", 1)[1].strip()
    return [(path, source)]


def codes(findings):
    return [finding.code for finding in findings]


class TestFixtures:
    @pytest.mark.parametrize("code", NEW_RULES)
    def test_positive_fixture_fires(self, code):
        name = f"{code.lower()}_pos.py"
        found = codes(lint_sources(fixture_items(name)))
        assert code in found, f"{name} must fire {code}, got {found}"

    @pytest.mark.parametrize("code", NEW_RULES)
    def test_negative_fixture_stays_silent(self, code):
        name = f"{code.lower()}_neg.py"
        found = codes(lint_sources(fixture_items(name)))
        assert code not in found, f"{name} must not fire {code}: {found}"

    @pytest.mark.parametrize("code", NEW_RULES)
    def test_suppression_silences_new_rules(self, code):
        [(path, source)] = fixture_items(f"{code.lower()}_pos.py")
        silenced = "\n".join(
            f"{line}  # simlint: disable" for line in source.splitlines()
        )
        assert codes(lint_sources([(path, silenced)])) == []


class TestLeaseModelStatic:
    def test_real_cluster_sources_pass_protocol_rules(self):
        config = LintConfig(enable=frozenset({"SIM107", "SIM108"}))
        findings = run_simlint([str(REPO / "src" / "repro" / "cluster")],
                               config)
        assert findings == []

    def test_model_tables_are_consistent(self):
        # every route a handler claims exists in the contract, every
        # handler performing transitions is a declared handler, and
        # the state machine covers every transition op except grant
        # (which starts from idle).
        for route in HANDLER_ROUTES.values():
            assert route in API_CONTRACT
        assert set(HANDLER_ROUTES) <= set(HANDLER_OPS)
        granted_ops = {
            op for (_state, op) in LEASE_TRANSITIONS if _state == "granted"
        }
        assert granted_ops == {"heartbeat", "complete", "expire_due"}


class TestLeaseSanitizer:
    def test_legal_lifecycle_passes(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        sanitizer.observe_heartbeat("l1", hit=True)
        sanitizer.observe_complete("l1", hit=True)
        # late duplicate refused after settle: legal
        sanitizer.observe_complete("l1", hit=False)
        assert sanitizer.transitions_checked == 4
        assert "j1" in sanitizer.settled

    def test_expiry_and_redelivery_passes(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        sanitizer.observe_expire("l1")
        sanitizer.observe_heartbeat("l1", hit=False)
        sanitizer.observe_grant("l2", "j1", "r2", 2)
        sanitizer.observe_complete("l2", hit=True)

    def test_double_grant_raises(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        with pytest.raises(LeaseProtocolViolation, match="at most one"):
            sanitizer.observe_grant("l2", "j1", "r2", 2)

    def test_grant_after_settle_raises(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        sanitizer.observe_complete("l1", hit=True)
        with pytest.raises(LeaseProtocolViolation, match="settled"):
            sanitizer.observe_grant("l2", "j1", "r1", 2)

    def test_non_monotonic_attempt_raises(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        sanitizer.observe_expire("l1")
        with pytest.raises(LeaseProtocolViolation, match="monotonically"):
            sanitizer.observe_grant("l2", "j1", "r1", 1)

    def test_lost_live_lease_raises(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        with pytest.raises(LeaseProtocolViolation, match="lost a live"):
            sanitizer.observe_heartbeat("l1", hit=False)

    def test_violation_carries_history_window(self):
        sanitizer = LeaseSanitizer()
        sanitizer.observe_grant("l1", "j1", "r1", 1)
        with pytest.raises(LeaseProtocolViolation) as excinfo:
            sanitizer.observe_grant("l2", "j1", "r2", 2)
        assert any(e.op == "grant" for e in excinfo.value.window)

    def test_lease_table_wires_sanitizer_from_env(self, monkeypatch):
        from repro.cluster.leases import LeaseTable

        monkeypatch.setenv("STFM_SIM_LEASE_SANITIZE", "1")
        table = LeaseTable(ttl=5.0)
        assert table.sanitizer is not None
        lease = table.grant("j1", "r1", now=0.0, attempt=1)
        table.heartbeat(lease.id, now=1.0)
        assert table.complete(lease.id) is not None
        assert table.sanitizer.transitions_checked == 3

        monkeypatch.setenv("STFM_SIM_LEASE_SANITIZE", "0")
        assert LeaseTable(ttl=5.0).sanitizer is None

    def test_lease_table_expiry_path_is_observed(self, monkeypatch):
        from repro.cluster.leases import LeaseTable

        monkeypatch.setenv("STFM_SIM_LEASE_SANITIZE", "1")
        table = LeaseTable(ttl=5.0)
        lease = table.grant("j1", "r1", now=0.0, attempt=1)
        assert table.expire_due(now=10.0) == [lease]
        assert table.complete(lease.id) is None  # late duplicate
        regrant = table.grant("j1", "r2", now=11.0, attempt=2)
        assert regrant.attempt == 2
        assert table.sanitizer.transitions_checked == 4


class TestPipeline:
    def _items(self):
        items = []
        for fixture in sorted(FIXTURES.glob("sim*_*.py")):
            [(path, source)] = fixture_items(fixture.name)
            items.append((f"{fixture.stem}/{path}", source))
        return items

    def test_parses_each_file_once(self):
        items = self._items()
        first = lint_items(items)
        assert first.stats.files == len(items)
        assert first.stats.parsed == first.stats.files
        assert first.findings  # the *_pos fixtures fire
        assert lint_items(items).findings == first.findings


class TestOutputFormats:
    def _findings(self):
        config = LintConfig(enable=frozenset({"SIM101"}))
        return lint_sources(fixture_items("sim101_pos.py"), config)

    def test_json_matches_golden(self):
        rendered = render_json(self._findings())
        golden = (FIXTURES / "golden_sim101.json").read_text().rstrip("\n")
        assert rendered == golden

    def test_json_is_machine_readable(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["version"] == 1
        assert payload["count"] == len(payload["findings"]) > 0
        first = payload["findings"][0]
        assert set(first) == {
            "path", "line", "col", "code", "message", "fixit"
        }

    def test_sarif_shape(self):
        findings = self._findings()
        sarif = json.loads(render_sarif(findings))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        assert len(run["results"]) == len(findings)
        result = run["results"][0]
        assert result["ruleId"] == "SIM101"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == findings[0].line
