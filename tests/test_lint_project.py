"""The whole-program lint layer: graph, dataflow, and the pass families.

Four layers of coverage:

* unit tests of :mod:`repro.lint.graph` (symbol table, call resolution,
  package-scoped reachability) and :mod:`repro.lint.dataflow` (tracked
  parameter closures) on small fixture trees;
* positive/negative fixtures per rule (WIRE002, CKPT002, ASYNC001)
  through the ``lint_project`` helper;
* discovery pins on the real tree: the passes must actually *find* the
  svc async roots — a pass that silently no-ops would otherwise look
  identical to a clean tree;
* end-to-end mutation tests: copy ``src/repro`` to a temp dir, seed one
  real violation (add a blocking call to the scheduler, drop a daemon op
  branch), and assert the full ``run_lint`` + committed-baseline pipeline
  flips to failing — exactly the CI exit-1 contract.

The job wire codec and cache key have no lint rules: they are derived
from the job dataclass fields, and ``tests/test_job_model.py`` checks
them directly.
"""

import json
import os
import shutil

import pytest

from repro.lint import (
    ALL_RULES,
    Baseline,
    BaselineEntry,
    build_project,
    lint_project,
    load_baseline,
    render,
    run_lint,
)
from repro.lint.base import ModuleSource
from repro.lint.dataflow import escaped_attribute_writes
from repro.lint.passes import AsyncBlockingPass, CkptFlowPass, WireSchemaPass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "lint-baseline.json")

PROJECT_PASSES = [WireSchemaPass(), CkptFlowPass(), AsyncBlockingPass()]


def modules_from(files):
    return [
        ModuleSource.from_text(text, path)
        for path, text in sorted(files.items())
    ]


def rules_hit(files):
    return {f.rule_id for f in lint_project(files)}


# ----------------------------------------------------------------------
# graph: symbol table and call resolution
# ----------------------------------------------------------------------

GRAPH_FILES = {
    "src/repro/analysis/alpha.py": '''
from repro.analysis.beta import helper, Widget

class Base:
    def shared(self):
        return 1

class Thing(Base):
    def top(self):
        self.middle()
        self.shared()

    def middle(self):
        helper()
        Widget()
''',
    "src/repro/analysis/beta.py": '''
def helper():
    return leaf()

def leaf():
    return 0

class Widget:
    def __init__(self):
        self.x = 0
''',
    "src/repro/svc/gamma.py": '''
from repro.analysis.beta import leaf

def svc_side():
    return leaf()
''',
}


def test_graph_indexes_functions_classes_and_methods():
    project = build_project(modules_from(GRAPH_FILES))
    assert "analysis.beta.helper" in project.functions
    assert "analysis.alpha.Thing.top" in project.functions
    assert "analysis.alpha.Thing" in project.classes
    assert project.classes["analysis.beta.Widget"].methods["__init__"]


def test_graph_resolves_self_import_and_constructor_calls():
    project = build_project(modules_from(GRAPH_FILES))
    callees = {
        s.callee for s in project.calls_from("analysis.alpha.Thing.top")
    }
    assert "analysis.alpha.Thing.middle" in callees
    # Inherited method resolves through the base-class walk.
    assert "analysis.alpha.Base.shared" in callees
    callees = {
        s.callee for s in project.calls_from("analysis.alpha.Thing.middle")
    }
    assert "analysis.beta.helper" in callees            # import binding
    assert "analysis.beta.Widget.__init__" in callees   # constructor


def test_graph_reachability_is_transitive_and_package_scoped():
    project = build_project(modules_from(GRAPH_FILES))
    origin = project.reachable(["analysis.alpha.Thing.top"])
    assert "analysis.beta.leaf" in origin           # top -> middle -> helper -> leaf
    assert origin["analysis.beta.leaf"] == "analysis.alpha.Thing.top"
    scoped = project.reachable(["svc.gamma.svc_side"], package="svc")
    assert "analysis.beta.leaf" not in scoped       # stays inside svc


# ----------------------------------------------------------------------
# dataflow: escaped attribute writes
# ----------------------------------------------------------------------

def test_escaped_writes_are_seen_and_own_methods_are_not():
    files = {
        "src/repro/mc/owner.py": '''
class Gadget:
    def __init__(self):
        self.inside = 0
        wire(self)

def wire(gadget: Gadget):
    gadget.outside = 1
''',
    }
    project = build_project(modules_from(files))
    cls = project.classes["mc.owner.Gadget"]
    writes = {(a.attr, a.function) for a in escaped_attribute_writes(project, cls)}
    assert ("outside", "mc.owner.wire") in writes
    assert not any(attr == "inside" for attr, _ in writes)


# ----------------------------------------------------------------------
# WIRE002 fixtures
# ----------------------------------------------------------------------

def svc_fixture(ops='("ping", "submit")', handled=("ping", "submit"),
                called=("ping", "submit")):
    branches = "\n".join(
        f'    if op == "{name}":\n        return {{"ok": True}}'
        for name in handled
    )
    calls = "\n".join(
        f'    def {name}(self):\n        return self._call("{name}")'
        for name in called
    )
    return {
        "src/repro/svc/protocol.py": f"OPS = {ops}\n",
        "src/repro/svc/scheduler.py": f'''
def serve(op):
{branches}
    return {{"ok": False}}
''',
        "src/repro/svc/client.py": f'''
class SweepClient:
    def _call(self, op, **fields):
        return {{"op": op}}
{calls}
''',
    }


def test_wire002_clean_when_all_three_agree():
    assert "WIRE002" not in rules_hit(svc_fixture())


def test_wire002_flags_op_without_daemon_branch():
    files = svc_fixture(handled=("ping",))
    wire = [f for f in lint_project(files) if f.rule_id == "WIRE002"]
    assert any(
        "'submit'" in f.message and "no daemon branch" in f.message
        for f in wire
    )


def test_wire002_flags_op_unknown_to_client():
    files = svc_fixture(called=("ping",))
    wire = [f for f in lint_project(files) if f.rule_id == "WIRE002"]
    assert any(
        "'submit'" in f.message and "never issues" in f.message
        for f in wire
    )


def test_wire002_flags_handled_and_called_ops_missing_from_ops():
    files = svc_fixture(
        handled=("ping", "submit", "mystery"),
        called=("ping", "submit", "rogue"),
    )
    wire = [f for f in lint_project(files) if f.rule_id == "WIRE002"]
    assert any("'mystery'" in f.message for f in wire)
    assert any("'rogue'" in f.message for f in wire)


# ----------------------------------------------------------------------
# CKPT002 fixtures
# ----------------------------------------------------------------------

def ckpt_fixture(contract='state=("raa",)', write="tracker.hooks = 1"):
    return {
        "src/repro/mc/cf.py": f'''
from repro.ckpt.contract import checkpointable

@checkpointable({contract})
class Tracker:
    def __init__(self):
        self.raa = 0
        attach(self)

def attach(tracker: Tracker):
    {write}
''',
    }


def test_ckpt002_flags_escaped_write_missing_from_contract():
    findings = [
        f for f in lint_project(ckpt_fixture()) if f.rule_id == "CKPT002"
    ]
    assert len(findings) == 1
    assert "`hooks`" in findings[0].message
    assert "mc.cf.attach" in findings[0].message


def test_ckpt002_clean_when_contract_declares_the_attribute():
    files = ckpt_fixture(contract='state=("raa",), derived=("hooks",)')
    assert "CKPT002" not in rules_hit(files)


def test_ckpt002_skips_non_literal_contracts():
    files = ckpt_fixture(contract="state=tuple(COMPUTED)")
    assert "CKPT002" not in rules_hit(files)


def test_ckpt002_ignores_writes_inside_own_methods():
    files = {
        "src/repro/mc/cf.py": '''
from repro.ckpt.contract import checkpointable

@checkpointable(state=("raa",))
class Tracker:
    def __init__(self):
        self.raa = 0
        self.undeclared = 1   # CKPT001/runtime walk territory, not 002
''',
    }
    assert "CKPT002" not in rules_hit(files)


# ----------------------------------------------------------------------
# ASYNC001 fixtures
# ----------------------------------------------------------------------

def test_async001_flags_blocking_sleep_through_a_sync_helper():
    files = {
        "src/repro/svc/loop.py": '''
import time

async def scheduler_loop():
    tick()

def tick():
    time.sleep(0.1)
''',
    }
    findings = [
        f for f in lint_project(files) if f.rule_id == "ASYNC001"
    ]
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message
    # The finding names the async root the blocking call is reachable from.
    assert "svc.loop.scheduler_loop" in findings[0].message


def test_async001_awaited_sleep_and_wait_for_wait_are_fine():
    files = {
        "src/repro/svc/loop.py": '''
import asyncio

async def scheduler_loop(event):
    await asyncio.sleep(0.05)
    await asyncio.wait_for(event.wait(), timeout=1.0)
''',
    }
    assert "ASYNC001" not in rules_hit(files)


def test_async001_flags_zero_arg_join_but_not_str_join():
    files = {
        "src/repro/svc/loop.py": '''
async def reaper(worker, names):
    worker.process.join()
    return ", ".join(names)
''',
    }
    findings = [f for f in lint_project(files) if f.rule_id == "ASYNC001"]
    assert len(findings) == 1
    assert "join" in findings[0].message


def test_async001_flags_subprocess_and_open_in_async_bodies():
    files = {
        "src/repro/svc/loop.py": '''
import subprocess

async def handler(path):
    subprocess.run(["true"])
    with open(path) as f:
        return f.read()
''',
    }
    hit = [f for f in lint_project(files) if f.rule_id == "ASYNC001"]
    assert any("subprocess.run" in f.message for f in hit)
    assert any("open(" in f.message for f in hit)


def test_async001_open_in_sync_helper_is_not_flagged():
    files = {
        "src/repro/svc/loop.py": '''
async def handler(path):
    return load(path)

def load(path):
    with open(path) as f:
        return f.read()
''',
    }
    assert "ASYNC001" not in rules_hit(files)


def test_async001_ignores_functions_outside_svc():
    files = {
        "src/repro/analysis/batch.py": '''
import time

async def not_the_daemon():
    time.sleep(1.0)
''',
    }
    assert "ASYNC001" not in rules_hit(files)


# ----------------------------------------------------------------------
# Real-tree discovery pins
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_project():
    from repro.lint.driver import discover_files, _display_path

    modules = []
    for filename in discover_files([SRC]):
        with open(filename, "r", encoding="utf-8") as handle:
            text = handle.read()
        modules.append(
            ModuleSource.from_text(text, _display_path(filename, REPO_ROOT))
        )
    return build_project(modules)


def test_real_tree_svc_async_roots_exist(real_project):
    roots = [
        f.qname for f in real_project.functions_in_package("svc")
        if f.is_async
    ]
    assert "svc.scheduler.SweepService._scheduler_loop" in roots
    assert "svc.scheduler.SweepService._serve_one" in roots


def test_real_tree_is_clean_for_all_project_passes():
    """The committed tree needs no baseline help for the new passes."""
    result = run_lint([SRC], passes=PROJECT_PASSES, relative_to=REPO_ROOT)
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.rule_id}: {f.message}" for f in result.findings
    )


# ----------------------------------------------------------------------
# End-to-end mutation tests: seeded violations must flip CI to failing
# ----------------------------------------------------------------------

def mutated_tree_result(tmp_path, rel_path, old, new):
    """Copy src/repro, apply one text mutation, run the full CI pipeline."""
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree)
    target = tree / rel_path
    text = target.read_text()
    assert old in text, f"mutation anchor vanished from {rel_path}: {old!r}"
    target.write_text(text.replace(old, new))
    return run_lint(
        [str(tree)],
        baseline=load_baseline(BASELINE),
        relative_to=str(tmp_path),
    )


def test_mutation_blocking_scheduler_call_fails_the_build(tmp_path):
    result = mutated_tree_result(
        tmp_path, "svc/scheduler.py",
        "            if op == \"ping\":",
        "            time.sleep(0.01)\n            if op == \"ping\":",
    )
    assert not result.ok
    assert any(
        f.rule_id == "ASYNC001" and "time.sleep" in f.message
        for f in result.new_findings
    )


def test_mutation_dropping_shutdown_branch_fails_the_build(tmp_path):
    result = mutated_tree_result(
        tmp_path, "svc/scheduler.py",
        'if op == "shutdown":', 'if op == "never":',
    )
    assert not result.ok
    assert any(
        f.rule_id == "WIRE002" and "'shutdown'" in f.message
        for f in result.new_findings
    )


# ----------------------------------------------------------------------
# SARIF shape for whole-program findings
# ----------------------------------------------------------------------

NEW_RULE_IDS = ("WIRE002", "CKPT002", "ASYNC001")


def write_wire_fixture_tree(tmp_path):
    """A svc tree with one WIRE002 finding: OPS declares an op no daemon
    branch handles."""
    for rel, source in svc_fixture(handled=("ping",)).items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return str(tmp_path / "src" / "repro")


def test_new_rules_are_registered_with_metadata():
    for rule_id in NEW_RULE_IDS:
        rule = ALL_RULES[rule_id]
        assert rule.name, rule_id
        assert rule.summary, rule_id


def test_sarif_driver_rules_include_whole_program_rules(tmp_path):
    tree = write_wire_fixture_tree(tmp_path)
    result = run_lint([tree], relative_to=str(tmp_path))
    payload = json.loads(render(result, "sarif"))
    assert payload["version"] == "2.1.0"
    rules = {r["id"]: r for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    for rule_id in NEW_RULE_IDS:
        assert rule_id in rules
        assert rules[rule_id]["shortDescription"]["text"]
        assert rules[rule_id]["helpUri"]


def test_sarif_whole_program_finding_has_physical_location(tmp_path):
    tree = write_wire_fixture_tree(tmp_path)
    result = run_lint([tree], relative_to=str(tmp_path))
    payload = json.loads(render(result, "sarif"))
    wire = [
        r for r in payload["runs"][0]["results"] if r["ruleId"] == "WIRE002"
    ]
    assert len(wire) == 1
    assert wire[0]["level"] == "error"   # NEW findings are errors
    location = wire[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith(
        "src/repro/svc/protocol.py"
    )
    region = location["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_baselined_whole_program_finding_is_external(tmp_path):
    tree = write_wire_fixture_tree(tmp_path)
    # Derive the baseline entry from the live finding so the anchor
    # context matches exactly the way a real `--update-baseline` would.
    (finding,) = run_lint(
        [tree], relative_to=str(tmp_path)
    ).new_findings
    baseline = Baseline(entries=[BaselineEntry(
        rule=finding.rule_id,
        path=finding.path,
        context=finding.context,
        justification="fixture: grandfathered for the SARIF shape test",
    )])
    result = run_lint([tree], baseline=baseline, relative_to=str(tmp_path))
    assert result.ok
    payload = json.loads(render(result, "sarif"))
    (res,) = payload["runs"][0]["results"]
    assert res["level"] == "warning"    # baselined findings are warnings
    (suppression,) = res["suppressions"]
    assert suppression["kind"] == "external"
    assert "fixture" in suppression["justification"]


# ----------------------------------------------------------------------
# `lint --changed` scoping (the make lint-fast path)
# ----------------------------------------------------------------------

def _git(args, cwd):
    import subprocess

    subprocess.run(
        ["git"] + args, cwd=cwd, check=True, capture_output=True,
        env={**os.environ,
             "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
    )


def test_git_changed_files_sees_modified_and_untracked_python(
    tmp_path, monkeypatch
):
    from repro.cli import _git_changed_files

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "stable.py").write_text("x = 1\n")
    (pkg / "touched.py").write_text("y = 1\n")
    (tmp_path / "outside.py").write_text("z = 1\n")
    _git(["init", "-q"], tmp_path)
    _git(["add", "."], tmp_path)
    _git(["commit", "-qm", "seed"], tmp_path)
    (pkg / "touched.py").write_text("y = 2\n")
    (pkg / "fresh.py").write_text("w = 1\n")          # untracked
    (pkg / "notes.txt").write_text("not python\n")    # wrong suffix
    (tmp_path / "outside.py").write_text("z = 2\n")   # outside scope
    monkeypatch.chdir(tmp_path)
    changed = _git_changed_files(["pkg"])
    assert changed is not None
    assert sorted(os.path.basename(p) for p in changed) == [
        "fresh.py", "touched.py",
    ]


def test_git_changed_files_returns_none_outside_a_checkout(
    tmp_path, monkeypatch
):
    from repro.cli import _git_changed_files

    monkeypatch.chdir(tmp_path)
    assert _git_changed_files(["pkg"]) is None


# ----------------------------------------------------------------------
# Wall-time budget
# ----------------------------------------------------------------------

def test_full_tree_interprocedural_lint_meets_time_budget():
    import time

    if os.environ.get("REPRO_SKIP_PERF_TESTS", "") == "1":
        pytest.skip("perf tests disabled via REPRO_SKIP_PERF_TESTS=1")
    start = time.perf_counter()
    run_lint([SRC], baseline=load_baseline(BASELINE), relative_to=REPO_ROOT)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"full-tree lint took {elapsed:.1f}s (budget 10s)"
