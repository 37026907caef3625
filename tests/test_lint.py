"""Unit tests for the ``repro.lint`` static-analysis suite.

Each pass is exercised with positive fixtures (must flag) and negative
fixtures (must stay silent); the suppression layers — pragmas and the
checked-in baseline — and the three report formats are covered separately,
and the CLI's exit contract is tested end to end on a seeded violation.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import (
    ALL_PASSES,
    ALL_RULES,
    Baseline,
    BaselineEntry,
    BaselineError,
    lint_source,
    render,
    run_lint,
)
from repro.lint.base import ModuleSource

SIM_PATH = "src/repro/sim/fixture.py"
NON_SIM_PATH = "src/repro/analysis/fixture.py"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rules_hit(text, path=SIM_PATH):
    """The set of rule ids the full pass suite reports for a snippet."""
    return {f.rule_id for f in lint_source(text, path=path)}


# ----------------------------------------------------------------------
# Per-pass positive fixtures: each snippet must trigger its rule.
# ----------------------------------------------------------------------

POSITIVE = [
    ("DET001", "import time\nt = time.time()\n"),
    ("DET001", "import time\nt = time.perf_counter()\n"),
    ("DET001", "import datetime\nd = datetime.datetime.now()\n"),
    ("DET001", "from datetime import datetime\nd = datetime.utcnow()\n"),
    ("DET002", "import random\nx = random.random()\n"),
    ("DET002", "import random\nrandom.seed(7)\n"),
    ("DET002", "import numpy as np\nx = np.random.rand(4)\n"),
    ("DET002", "import numpy as np\nnp.random.seed(0)\n"),
    ("DET003", "import os\nx = os.environ['REPRO_X']\n"),
    ("DET003", "import os\nx = os.environ.get('REPRO_X', '1')\n"),
    ("DET003", "import os\nx = os.getenv('REPRO_X')\n"),
    ("DET004", "def f(d, x):\n    return d[id(x)]\n"),
    ("DET004", "def f(x):\n    return {id(x): 1}\n"),
    ("DET004", "def f(d, x):\n    return d.get(id(x))\n"),
    ("DET005", "def f(xs):\n    for x in set(xs):\n        pass\n"),
    ("DET005", "def f(xs):\n    s = {x + 1 for x in xs}\n"
               "    for x in s:\n        pass\n"),
    ("DET005", "def f(a, b):\n    for x in {a, b}:\n        pass\n"),
    ("RNG001", "import numpy as np\nrng = np.random.default_rng(42)\n"),
    ("RNG001", "import random\nrng = random.Random(0)\n"),
    ("RNG001", "import numpy as np\nss = np.random.SeedSequence(1234)\n"),
    ("RNG002", "import numpy as np\nrng = np.random.default_rng()\n"),
    ("RNG002", "import random\nrng = random.Random()\n"),
    ("CB001", "def f(engine):\n"
              "    engine.schedule(10, lambda: None)\n"),
    ("CB001", "def f(engine):\n"
              "    def cb():\n        pass\n"
              "    engine.schedule(10, cb)\n"),
    ("CB001", "def f(engine):\n"
              "    engine.schedule_in(5, callback=lambda: None)\n"),
    ("CKPT001", "class Tracker:\n"
                "    def __init__(self):\n"
                "        self.table = {}\n"),
    ("CKPT001", "from dataclasses import dataclass, field\n"
                "@dataclass\n"
                "class Q:\n"
                "    items: list = field(default_factory=list)\n"),
    ("OBS001", "def f(reg, name):\n    reg.counter(name)\n"),
    ("OBS002", "def f(reg):\n    reg.counter('BadName')\n"),
    ("OBS002", "def f(tr, a, b):\n    tr.span(a, b, 'lower_kind')\n"),
    ("OBS003", "def drain(heap, m):\n"
               "    while heap:\n"
               "        heap.pop()\n"
               "        m.inc()\n"),
    ("OBS003", "def drain(heap, h):\n"
               "    while heap:\n"
               "        h.observe(len(heap))\n"),
    ("OBS003", "def drain(heap, tr, t):\n"
               "    while heap:\n"
               "        tr.event(t, 'ACT')\n"),
    ("PAY001", "ROWS = [70000, 70010, 70020, 70030, "
               "70040, 70050, 70060, 70070]\n"),
    ("PAY001", "def attack():\n"
               "    return (1, 2, 3, 4, 5, 6, 7, 8, 9)\n"),
    ("SVC001", "import time\nt = time.time()\n"),
    ("SVC001", "import time\ntime.sleep(0.5)\n"),
    ("SVC001", "import time\nt = time.monotonic()\n"),
    ("SVC001", "import datetime\nd = datetime.datetime.now()\n"),
]


@pytest.mark.parametrize(
    "rule_id,snippet",
    POSITIVE,
    ids=[f"{r}-{i}" for i, (r, _) in enumerate(POSITIVE)],
)
def test_positive_fixture_is_flagged(rule_id, snippet):
    """Each violation fixture triggers exactly the rule it seeds."""
    path = SIM_PATH
    if rule_id == "PAY001":
        path = "src/repro/workloads/fixture.py"  # the pass's home packages
    elif rule_id == "SVC001":
        path = "src/repro/svc/fixture.py"  # the pass's home package
    assert rule_id in rules_hit(snippet, path=path), snippet


# ----------------------------------------------------------------------
# Per-pass negative fixtures: conforming code stays silent.
# ----------------------------------------------------------------------

NEGATIVE = [
    # Sim code that never touches a clock or global stream.
    ("DET001", "def f(engine):\n    return engine.now\n"),
    # Constructing a namespaced Generator is the RNG pass's business,
    # not global state.
    ("DET002", "import numpy as np\n"
               "def f(seed):\n    return np.random.default_rng(seed)\n"),
    # Env reads in their designated home are allowed.
    ("DET003", "import os\nx = os.environ.get('REPRO_X')\n"),
    # id() used outside a keyed position (logging/debug) is fine.
    ("DET004", "def f(x):\n    return id(x)\n"),
    # sorted(...) wrapping and literal constant sets are fine.
    ("DET005", "def f(xs):\n    for x in sorted(set(xs)):\n        pass\n"),
    ("DET005", "def f(x):\n    for k in {'a', 'b'}:\n        pass\n"),
    # Seeds that flow from a parameter or derivation are fine.
    ("RNG001", "import numpy as np\n"
               "def f(streams):\n"
               "    return np.random.default_rng("
               "streams.integer_seed('mc'))\n"),
    ("RNG002", "import random\n"
               "def f(seed):\n    return random.Random(seed)\n"),
    # Bound methods and partials are snapshot-safe callbacks.
    ("CB001", "import functools\n"
              "def f(engine, obj):\n"
              "    engine.schedule(10, obj.tick)\n"
              "    engine.schedule(20, functools.partial(obj.tick, 1))\n"),
    # Registered and frozen classes may hold containers.
    ("CKPT001", "from repro.ckpt import checkpointable\n"
                "@checkpointable(state=('table',))\n"
                "class Tracker:\n"
                "    def __init__(self):\n"
                "        self.table = {}\n"),
    ("CKPT001", "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class Spec:\n"
                "    rows: int = 0\n"),
    # Convention-conforming literal names pass both obs rules.
    ("OBS001", "def f(reg, tr, a, b):\n"
               "    reg.counter('mc.acts')\n"
               "    tr.span(a, b, 'SAUM')\n"),
    # Drain-boundary aggregation is the sanctioned pattern: plain-int
    # accumulation inside the loop, batched publication at the boundary.
    ("OBS003", "def drain(heap, h, tr, pending):\n"
               "    acts = 0\n"
               "    values = []\n"
               "    while heap:\n"
               "        heap.pop()\n"
               "        acts += 1\n"
               "        values.append(len(heap))\n"
               "    h.observe_many(values)\n"
               "    tr.emit_raw(pending)\n"),
    # Per-event emission outside any while loop is not this rule's business.
    ("OBS003", "def on_refresh(m):\n    m.inc()\n"),
    # Short parameter tuples stay below the sequence bar.
    ("PAY001", "WINDOWS = (4, 8, 16, 32)\n"),
    # Derived sequences (comprehensions) are not inlined literals.
    ("PAY001", "def rows(base):\n"
               "    return [base + 10 * i for i in range(64)]\n"),
    # Non-integer element kills the sequence reading.
    ("PAY001", "XS = [1, 2, 3, 4, 5, 6, 7, 'x']\n"),
    # Wall-clock access routed through the quarantined Clock object.
    ("SVC001", "def stale(clock, path, limit):\n"
               "    return clock.age_of(path) > limit\n"),
    # Event waits (not host-clock reads) are the sanctioned sleep.
    ("SVC001", "def loop(stop, interval):\n"
               "    while not stop.wait(interval):\n        pass\n"),
]


@pytest.mark.parametrize(
    "rule_id,snippet",
    NEGATIVE,
    ids=[f"{r}-neg-{i}" for i, (r, _) in enumerate(NEGATIVE)],
)
def test_negative_fixture_is_clean(rule_id, snippet):
    """Conforming code never trips the rule it is paired with."""
    path = SIM_PATH
    if rule_id == "DET003":
        path = "src/repro/sim/config.py"  # the allowlisted env home
    elif rule_id == "PAY001":
        path = "src/repro/security/fixture.py"  # the pass's home packages
    elif rule_id == "SVC001":
        path = "src/repro/svc/fixture.py"  # the pass's home package
    assert rule_id not in rules_hit(snippet, path=path), snippet


def test_sim_critical_scoping():
    """Determinism rules apply only inside the sim-critical packages."""
    clocky = "import time\nt = time.time()\n"
    assert "DET001" in rules_hit(clocky, path=SIM_PATH)
    assert "DET001" in rules_hit(clocky, path="src/repro/security/kernels.py")
    assert "DET001" not in rules_hit(clocky, path=NON_SIM_PATH)
    # RNG discipline, by contrast, is repo-wide.
    seeded = "import numpy as np\nrng = np.random.default_rng(3)\n"
    assert "RNG001" in rules_hit(seeded, path=NON_SIM_PATH)


def test_obs_package_exempt_from_naming():
    """repro.obs itself rebuilds series from recorded names legitimately."""
    snippet = "def f(reg, name):\n    reg.counter(name)\n"
    assert "OBS001" not in rules_hit(snippet, path="src/repro/obs/metrics.py")
    assert "OBS001" in rules_hit(snippet, path=NON_SIM_PATH)


def test_payload_literal_scoped_to_attack_packages():
    """PAY001 fires only where attack patterns are generated."""
    snippet = "ROWS = [1, 2, 3, 4, 5, 6, 7, 8]\n"
    assert "PAY001" in rules_hit(snippet, path="src/repro/workloads/mix.py")
    assert "PAY001" in rules_hit(snippet, path="src/repro/security/audit.py")
    # Tables elsewhere (configs, analytical constants) are fine.
    assert "PAY001" not in rules_hit(snippet, path=SIM_PATH)
    assert "PAY001" not in rules_hit(snippet, path=NON_SIM_PATH)


def test_svc_clock_scoped_to_svc_outside_the_quarantine():
    """SVC001 fires only in repro.svc, and never in the Clock quarantine."""
    clocky = "import time\nt = time.time()\ntime.sleep(1)\n"
    assert "SVC001" in rules_hit(clocky, path="src/repro/svc/fixture.py")
    # The quarantine module itself is the one sanctioned clock reader.
    assert "SVC001" not in rules_hit(clocky, path="src/repro/svc/clock.py")
    # Outside the service package this pass has no opinion (DET001 covers
    # the sim-critical tree with its own scoping).
    assert "SVC001" not in rules_hit(clocky, path=NON_SIM_PATH)


def test_obs_hotloop_scoped_to_hot_packages():
    """OBS003 fires only in the per-event packages (sim/mc/dram)."""
    snippet = "def drain(heap, m):\n    while heap:\n        m.inc()\n"
    assert "OBS003" in rules_hit(snippet, path=SIM_PATH)
    assert "OBS003" in rules_hit(snippet, path="src/repro/mc/controller.py")
    assert "OBS003" in rules_hit(snippet, path="src/repro/dram/bank.py")
    # Analytical loops may legitimately emit per iteration.
    assert "OBS003" not in rules_hit(snippet, path=NON_SIM_PATH)


# ----------------------------------------------------------------------
# Pragma suppression
# ----------------------------------------------------------------------

def test_pragma_suppresses_named_rule():
    """A same-line lint-ignore pragma downgrades the finding to suppressed."""
    text = ("import numpy as np\n"
            "rng = np.random.default_rng(0)  # repro: lint-ignore[RNG001]\n")
    findings = lint_source(text)
    assert [f.rule_id for f in findings] == ["RNG001"]
    assert findings[0].status == "suppressed"


def test_pragma_wildcard_and_mismatch():
    """``[*]`` suppresses anything; a wrong rule id suppresses nothing."""
    star = ("import time\n"
            "t = time.time()  # repro: lint-ignore[*]\n")
    assert all(f.status == "suppressed" for f in lint_source(star))
    wrong = ("import time\n"
             "t = time.time()  # repro: lint-ignore[RNG001]\n")
    assert any(
        f.rule_id == "DET001" and f.status == "new" for f in lint_source(wrong)
    )


def test_pragma_covers_multiline_statement():
    """A pragma anywhere on a node's [line, end_line] span applies."""
    text = ("import numpy as np\n"
            "rng = np.random.default_rng(\n"
            "    1234,  # repro: lint-ignore[RNG001]\n"
            ")\n")
    findings = lint_source(text)
    assert findings and all(f.status == "suppressed" for f in findings)


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------

def write_fixture(tmp_path, text):
    """Place a snippet on disk under a sim-critical-looking layout."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / "fixture.py"
    target.write_text(text)
    return str(target)


def test_baseline_add_and_expire_roundtrip(tmp_path):
    """New finding -> baselined; code healed -> stale entry reported."""
    bad = "import numpy as np\nrng = np.random.default_rng(7)\n"
    path = write_fixture(tmp_path, bad)
    result = run_lint([path], relative_to=str(tmp_path))
    assert not result.ok and len(result.new_findings) == 1

    baseline = Baseline.from_findings(result.new_findings)
    for entry in baseline.entries:
        entry.justification = "test fixture"
    baseline_file = tmp_path / "lint-baseline.json"
    baseline.save(str(baseline_file))

    reloaded = Baseline.load(str(baseline_file))
    result2 = run_lint([path], baseline=reloaded, relative_to=str(tmp_path))
    assert result2.ok
    assert len(result2.baselined_findings) == 1
    assert result2.baselined_findings[0].justification == "test fixture"
    assert result2.stale_baseline == []

    # Heal the code: the entry must be flagged stale, not silently kept.
    write_fixture(tmp_path, "import numpy as np\n"
                            "def f(seed):\n"
                            "    return np.random.default_rng(seed)\n")
    result3 = run_lint(
        [path], baseline=Baseline.load(str(baseline_file)),
        relative_to=str(tmp_path),
    )
    assert result3.ok and len(result3.stale_baseline) == 1


def test_stale_entries_only_for_scanned_files_and_rules_that_ran(tmp_path):
    """An entry is stale only when this run checked its file and rule."""
    path = write_fixture(tmp_path, "import numpy as np\n"
                                   "rng = np.random.default_rng(7)\n")

    def entry(rule, rel, context):
        return BaselineEntry(rule=rule, path=rel, context=context,
                             justification="test fixture")

    healed = entry("RNG001", "repro/sim/fixture.py",
                   "rng = np.random.default_rng(8)")
    unscanned = entry("RNG001", "repro/sim/other.py",
                      "rng = np.random.default_rng(7)")
    other_rule = entry("DET001", "repro/sim/fixture.py", "t = time.time()")
    baseline = Baseline([healed, unscanned, other_rule])

    result = run_lint([path], baseline=baseline, relative_to=str(tmp_path))
    assert result.stale_baseline == [other_rule, healed]
    filtered = run_lint([path], baseline=baseline, rule_filter=["RNG001"],
                        relative_to=str(tmp_path))
    assert filtered.stale_baseline == [healed]


def test_baseline_is_line_drift_tolerant(tmp_path):
    """Unrelated edits moving the flagged line keep the entry matching."""
    bad = "import numpy as np\nrng = np.random.default_rng(7)\n"
    path = write_fixture(tmp_path, bad)
    result = run_lint([path], relative_to=str(tmp_path))
    baseline = Baseline.from_findings(result.new_findings)
    for entry in baseline.entries:
        entry.justification = "test fixture"

    shifted = ("import numpy as np\n\n\nX = 1\n\n"
               "rng = np.random.default_rng(7)\n")
    write_fixture(tmp_path, shifted)
    result2 = run_lint([path], baseline=baseline, relative_to=str(tmp_path))
    assert result2.ok and len(result2.baselined_findings) == 1


def test_baseline_count_budget(tmp_path):
    """An entry's count caps how many identical findings it absorbs."""
    bad = ("import numpy as np\n"
           "a = np.random.default_rng(7)\n"
           "b = np.random.default_rng(7)\n")
    path = write_fixture(tmp_path, bad)
    baseline = Baseline([BaselineEntry(
        rule="RNG001", path="repro/sim/fixture.py",
        context="a = np.random.default_rng(7)", justification="one only",
    )])
    result = run_lint([path], baseline=baseline, relative_to=str(tmp_path))
    assert len(result.baselined_findings) == 1
    assert len(result.new_findings) == 1 and not result.ok


def test_baseline_requires_justification(tmp_path):
    """A silent suppression entry is rejected at load time."""
    payload = {"version": 1, "entries": [
        {"rule": "RNG001", "path": "x.py", "context": "rng = ..."},
    ]}
    target = tmp_path / "bad-baseline.json"
    target.write_text(json.dumps(payload))
    with pytest.raises(BaselineError):
        Baseline.load(str(target))


def test_baseline_rejects_unknown_version(tmp_path):
    """Future/garbage baseline versions fail loudly, not quietly."""
    target = tmp_path / "vnext.json"
    target.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(BaselineError):
        Baseline.load(str(target))


# ----------------------------------------------------------------------
# Report formats
# ----------------------------------------------------------------------

@pytest.fixture
def sample_result(tmp_path):
    """A LintResult with one new finding, for renderer checks."""
    path = write_fixture(
        tmp_path, "import numpy as np\nrng = np.random.default_rng(7)\n"
    )
    return run_lint([path], relative_to=str(tmp_path))


def test_text_report_shape(sample_result):
    """The text renderer names the rule and ends with the verdict line."""
    text = render(sample_result, "text")
    assert "RNG001" in text and "rng-literal-seed" in text
    assert text.strip().endswith("lint: FAIL (new findings)")


def test_json_report_shape(sample_result):
    """The JSON document carries ok/findings/summary with stable keys."""
    payload = json.loads(render(sample_result, "json"))
    assert payload["ok"] is False
    assert payload["summary"]["new"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "RNG001"
    assert finding["path"].endswith("repro/sim/fixture.py")
    assert finding["status"] == "new"
    assert isinstance(finding["line"], int) and finding["line"] >= 1


def test_sarif_report_shape(sample_result):
    """The SARIF document has the 2.1.0 skeleton code scanners expect."""
    payload = json.loads(render(sample_result, "sarif"))
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    (run,) = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert set(ALL_RULES) <= rule_ids
    (res,) = run["results"]
    assert res["ruleId"] == "RNG001" and res["level"] == "error"
    region = res["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_marks_suppressions(tmp_path):
    """Pragma-suppressed findings surface as inSource suppressions."""
    path = write_fixture(
        tmp_path,
        "import numpy as np\n"
        "rng = np.random.default_rng(7)  # repro: lint-ignore[RNG001]\n",
    )
    result = run_lint([path], relative_to=str(tmp_path))
    payload = json.loads(render(result, "sarif"))
    (res,) = payload["runs"][0]["results"]
    assert res["suppressions"] == [{"kind": "inSource"}]


# ----------------------------------------------------------------------
# CLI exit contract
# ----------------------------------------------------------------------

def run_cli(*argv, cwd=None):
    """Invoke ``python -m repro lint`` in a subprocess; return the result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, env=env, cwd=cwd or REPO_ROOT,
    )


def test_cli_exits_nonzero_on_seeded_violation(tmp_path):
    """A planted violation makes the CLI exit 1 and name the rule."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "seeded.py").write_text(
        "import time\n"
        "def tick(engine):\n"
        "    return time.time()\n"
    )
    proc = run_cli(str(pkg / "seeded.py"), "--baseline", "/nonexistent.json")
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_cli_exits_zero_on_clean_fixture(tmp_path):
    """A conforming file exits 0 with the PASS verdict."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(
        "def tick(engine):\n"
        "    return engine.now\n"
    )
    proc = run_cli(str(pkg / "clean.py"), "--baseline", "/nonexistent.json")
    assert proc.returncode == 0
    assert "lint: PASS" in proc.stdout


def test_cli_missing_path_exits_2():
    """Pointing the CLI at a missing path is a usage error, not a pass."""
    proc = run_cli("/no/such/path_xyz")
    assert proc.returncode == 2


def test_cli_unknown_rule_exits_2():
    """A --rule naming no rule is a usage error, not a silent pass."""
    proc = run_cli("--rule", "NOPE001", "src/repro/jobs.py")
    assert proc.returncode == 2
    assert "NOPE001" in proc.stderr
    assert run_cli("--rule", "RNG001", "src/repro/jobs.py").returncode == 0


def test_rule_filtered_update_baseline_keeps_unchecked_entries(tmp_path):
    """--update-baseline rewrites only what the run checked: a --rule
    CKPT001 run keeps every other rule's entry, justification included,
    and the rewritten file holds the committed entries."""
    committed = os.path.join(REPO_ROOT, "lint-baseline.json")
    copy = tmp_path / "baseline.json"
    with open(committed, encoding="utf-8") as handle:
        original = handle.read()
    copy.write_text(original)
    proc = run_cli("--update-baseline", "--rule", "CKPT001",
                   "--baseline", str(copy), "src/repro")
    assert proc.returncode == 0, proc.stderr

    def entries(text):
        return sorted(json.loads(text)["entries"],
                      key=lambda e: (e["path"], e["rule"], e["context"]))

    assert entries(copy.read_text()) == entries(original)
    rules = {e["rule"] for e in entries(original)}
    assert rules - {"CKPT001"}, "the copy must hold other rules' entries"


def test_cli_list_rules_names_every_rule():
    """--list-rules prints the full catalog."""
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ALL_RULES:
        assert rule_id in proc.stdout


def test_every_pass_exposes_registered_rules():
    """ALL_RULES is exactly the union of the passes' rule tuples."""
    from_passes = {
        rule.rule_id for lint_pass in ALL_PASSES for rule in lint_pass.rules
    }
    assert from_passes == set(ALL_RULES)


def test_syntax_error_becomes_parse_finding(tmp_path):
    """An unparseable file yields a PARSE finding instead of crashing."""
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    result = run_lint([str(target)], relative_to=str(tmp_path))
    assert not result.ok
    assert [f.rule_id for f in result.findings] == ["PARSE"]


def test_module_source_classifies_packages():
    """ModuleSource path parsing drives the sim-critical scoping."""
    sim = ModuleSource.from_text("x = 1\n", "src/repro/mc/controller.py")
    assert sim.is_sim_critical and sim.in_package("mc")
    kernels = ModuleSource.from_text("x = 1\n", "src/repro/security/kernels.py")
    assert kernels.is_sim_critical
    analysis = ModuleSource.from_text("x = 1\n", "src/repro/analysis/plots.py")
    assert not analysis.is_sim_critical
