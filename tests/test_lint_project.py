"""The whole-program lint layer: the call graph and the ASYNC001 pass.

Four layers of coverage:

* unit tests of :mod:`repro.lint.graph` (symbol table, call resolution,
  package-scoped reachability) on small fixture trees;
* positive/negative ASYNC001 fixtures through the ``lint_project``
  helper;
* discovery pins on the real tree: the pass must actually *find* the
  svc async roots — a pass that silently no-ops would otherwise look
  identical to a clean tree;
* end-to-end mutation tests: copy ``src/repro`` to a temp dir, seed one
  real violation, and assert the build fails — a blocking call in the
  scheduler flips the full ``run_lint`` + committed-baseline pipeline to
  failing (the CI exit-1 contract), and a dropped daemon op handler makes
  the scheduler import fail.

Some contracts have no lint rule because they hold by construction: the
job wire codec and cache key are derived from the job dataclass fields
(``tests/test_job_model.py``), the daemon's op table is built from
``protocol.OPS`` at import, and the checkpoint contract is checked on
every capture (``tests/test_ckpt_contract.py``).
"""

import json
import os
import shutil
import subprocess
import sys

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
from repro.lint.passes import AsyncBlockingPass

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "lint-baseline.json")

PROJECT_PASSES = [AsyncBlockingPass()]


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

def mutated_tree(tmp_path, rel_path, old, new):
    """Copy src/repro under ``tmp_path`` and apply one text mutation."""
    tree = tmp_path / "src" / "repro"
    shutil.copytree(SRC, tree)
    target = tree / rel_path
    text = target.read_text()
    assert old in text, f"mutation anchor vanished from {rel_path}: {old!r}"
    target.write_text(text.replace(old, new))
    return tree


def mutated_tree_result(tmp_path, rel_path, old, new):
    """One text mutation, then the full CI lint pipeline over the copy."""
    tree = mutated_tree(tmp_path, rel_path, old, new)
    return run_lint(
        [str(tree)],
        baseline=load_baseline(BASELINE),
        relative_to=str(tmp_path),
    )


def test_mutation_blocking_scheduler_call_fails_the_build(tmp_path):
    result = mutated_tree_result(
        tmp_path, "svc/scheduler.py",
        "            return await self._handlers[op](self, message)",
        "            time.sleep(0.01)\n"
        "            return await self._handlers[op](self, message)",
    )
    assert not result.ok
    assert any(
        f.rule_id == "ASYNC001" and "time.sleep" in f.message
        for f in result.new_findings
    )


def _import_scheduler(tmp_path):
    return subprocess.run(
        [sys.executable, "-c", "import repro.svc.scheduler"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
    )


def test_mutation_dropping_shutdown_branch_fails_the_build(tmp_path):
    mutated_tree(
        tmp_path, "svc/scheduler.py",
        "    async def _op_shutdown(", "    async def _shutdown(",
    )
    proc = _import_scheduler(tmp_path)
    assert proc.returncode != 0
    assert "TypeError" in proc.stderr and "'shutdown'" in proc.stderr


def test_mutation_undeclared_op_handler_fails_the_build(tmp_path):
    mutated_tree(
        tmp_path, "svc/scheduler.py",
        "    async def _op_shutdown(", "    async def _op_halt(",
    )
    proc = _import_scheduler(tmp_path)
    assert proc.returncode != 0
    assert "'halt'" in proc.stderr and "'shutdown'" in proc.stderr


# ----------------------------------------------------------------------
# SARIF shape for whole-program findings
# ----------------------------------------------------------------------

NEW_RULE_IDS = ("ASYNC001",)


def write_async_fixture_tree(tmp_path):
    """A svc tree with one finding, ASYNC001: a process join on the
    event loop."""
    target = tmp_path / "src" / "repro" / "svc" / "loop.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        "async def reaper(worker):\n"
        "    worker.process.join()\n"
    )
    return str(tmp_path / "src" / "repro")


def test_new_rules_are_registered_with_metadata():
    for rule_id in NEW_RULE_IDS:
        rule = ALL_RULES[rule_id]
        assert rule.name, rule_id
        assert rule.summary, rule_id


def test_sarif_driver_rules_include_whole_program_rules(tmp_path):
    tree = write_async_fixture_tree(tmp_path)
    result = run_lint([tree], relative_to=str(tmp_path))
    payload = json.loads(render(result, "sarif"))
    assert payload["version"] == "2.1.0"
    rules = {r["id"]: r for r in payload["runs"][0]["tool"]["driver"]["rules"]}
    for rule_id in NEW_RULE_IDS:
        assert rule_id in rules
        assert rules[rule_id]["shortDescription"]["text"]
        assert rules[rule_id]["helpUri"]


def test_sarif_whole_program_finding_has_physical_location(tmp_path):
    tree = write_async_fixture_tree(tmp_path)
    result = run_lint([tree], relative_to=str(tmp_path))
    payload = json.loads(render(result, "sarif"))
    hits = [
        r for r in payload["runs"][0]["results"] if r["ruleId"] == "ASYNC001"
    ]
    assert len(hits) == 1
    assert hits[0]["level"] == "error"   # NEW findings are errors
    location = hits[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith(
        "src/repro/svc/loop.py"
    )
    region = location["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_baselined_whole_program_finding_is_external(tmp_path):
    tree = write_async_fixture_tree(tmp_path)
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
