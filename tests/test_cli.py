"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCliSecurity:
    def test_security_prints_thresholds(self, capsys):
        assert main(["security", "--windows", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "TRH-D" in out
        assert "53" in out  # the FM safety bound

    def test_security_with_attack(self, capsys):
        code = main(["security", "--windows", "4", "--attack-acts", "4000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo" in out
        assert "mitigations" in out


class TestCliCatalog:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("bwaves", "ConnComp", "triad"):
            assert name in out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "128 B" in out


class TestCliRun:
    def test_run_small(self, capsys):
        code = main(
            ["run", "--workload", "wrf", "--mechanism", "autorfm",
             "--threshold", "4", "--requests", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown vs Zen baseline" in out
        assert "AutoRFM-4" in out

    def test_run_unknown_workload_fails(self, capsys):
        assert main(["run", "--workload", "nope", "--requests", "10"]) == 2

    def test_run_baseline_mechanism(self, capsys):
        code = main(
            ["run", "--workload", "wrf", "--mechanism", "none",
             "--mapping", "zen", "--requests", "300"]
        )
        assert code == 0
        assert "baseline" in capsys.readouterr().out

    def test_sweep_small(self, capsys):
        code = main(
            ["sweep", "--workloads", "wrf", "--threshold", "8",
             "--requests", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RFM-8" in out and "AutoRFM-8" in out

    def test_sweep_unknown_workload_fails(self):
        assert main(["sweep", "--workloads", "nope", "--requests", "10"]) == 2


class TestCliAuditAndTradeoffs:
    def test_tradeoffs(self, capsys):
        assert main(["tradeoffs", "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "MINT" in out and "Mithril" in out

    def test_audit_small(self, capsys):
        code = main(["audit", "--acts", "400", "--row", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst row pressure" in out
        assert "timing violations" in out


class TestCliReproduce:
    def test_list_experiments(self, capsys):
        assert main(["reproduce", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig3_rfm_slowdown" in out
        assert "table6_rm_vs_fm" in out

    def test_unknown_experiment(self, capsys):
        assert main(["reproduce", "definitely-not-a-thing"]) == 2


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_mechanism(self):
        with pytest.raises(SystemExit):
            main(["run", "--mechanism", "magic"])


class TestCliSubmitFallback:
    def test_submit_without_daemon_executes_in_process(self, capsys):
        """`repro submit` degrades to the plain runner when no daemon is
        listening on the socket."""
        code = main([
            "submit", "--workloads", "xz", "--mechanism", "autorfm",
            "--threshold", "4", "--requests", "300",
            "--socket", "/tmp/rsvc-definitely-absent.sock",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "executing in-process" in captured.err
        assert "xz (in-process)" in captured.out
        assert "cycles" in captured.out

    def test_submit_rejects_unknown_workload(self, capsys):
        code = main([
            "submit", "--workloads", "nope",
            "--socket", "/tmp/rsvc-definitely-absent.sock",
        ])
        assert code == 2
        assert "unknown workloads" in capsys.readouterr().err


class _StubClient:
    """Stands in for :class:`repro.svc.SweepClient`: answers every
    ``result`` with one canned response."""

    response: dict = {}

    def __init__(self, socket_path=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def result(self, job_id, wait=True, timeout=None):
        return self.response


SIM_PAYLOAD = {
    "setup": {"mechanism": "autorfm"},
    "mapping": "rubix",
    "seed": 3,
    "stats": {
        "cycles": 1234, "refresh_windows": 2, "max_request_alerts": 1,
        "banks": [{"mitigations": 1, "rfm_commands": 2},
                  {"mitigations": 4, "rfm_commands": 0}],
        "cores": [],
    },
}
SECURITY_PAYLOAD = [
    {"max_pressure": 41, "max_pressure_row": 1001, "activations": 2000,
     "mitigations": 500, "victim_refreshes": 2000},
    {"max_pressure": 39, "max_pressure_row": 1003, "activations": 2000,
     "mitigations": 500, "victim_refreshes": 2000},
]
CAMPAIGN_PAYLOAD = {
    "tolerated_threshold": 17,
    "seeds_spent": 256,
    "probes": [{"threshold": 16, "verdict": "unsafe", "seeds": 12}],
    "fixed_cost_seeds": 800,
    "seeds_saved_pct": 68.0,
    "cell": {"tracker": "mint", "policy": "fractal", "window": 4},
}


class TestCliResult:
    @pytest.mark.parametrize("kind, payload, expected", [
        ("sim", SIM_PAYLOAD,
         "J000007 (executed): cycles 1234, mitigations 5, RFM commands 2, "
         "seed 3, mapping rubix"),
        ("security", SECURITY_PAYLOAD,
         "J000007 (executed): 2 seed(s), worst pressure 41.0"),
        ("campaign", CAMPAIGN_PAYLOAD,
         "J000007 (executed): tolerated threshold 17, 1 probe(s), "
         "256 seeds spent (68.0% saved)"),
    ])
    def test_result_summarizes_every_kind(
        self, monkeypatch, capsys, kind, payload, expected
    ):
        import repro.svc

        monkeypatch.setattr(repro.svc, "SweepClient", _StubClient)
        monkeypatch.setattr(_StubClient, "response", {
            "ok": True, "state": "done", "kind": kind,
            "from_cache": False, "result": payload,
        })
        assert main(["result", "J000007"]) == 0
        assert capsys.readouterr().out.strip() == expected
