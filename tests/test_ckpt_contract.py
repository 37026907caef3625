"""The state contract, checked where it matters: at capture.

Every registered class declares its attributes as live state, derived
wiring, or construction constants (:mod:`repro.ckpt.contract`). Each
capture checks every object it serialises against that declaration
(:func:`repro.ckpt.contract.checked_contract`) and raises
:class:`ContractError` on an attribute the declaration does not classify,
however it was bound. These tests pin that refusal for the three ways an
attribute can appear (own method, outside helper, ``setattr``) and run a
capture corpus that reaches every registered simulator class, so a class
whose contract has drifted from its instances fails here.
"""

import dataclasses

import pytest

import repro.cpu.system  # noqa: F401  (registers the full simulator tree)
import repro.trackers.graphene  # noqa: F401  (not reachable from a setup)
import repro.trackers.hydra  # noqa: F401  (imported lazily by build_tracker)
import repro.trackers.trr  # noqa: F401  (not reachable from a setup)
from repro.ckpt import capture, restore
from repro.ckpt import contract as contract_module
from repro.ckpt import state as state_module
from repro.ckpt.contract import (
    REGISTRY,
    ContractError,
    capture_fields,
    checkpointable,
    effective_contract,
)
from repro.cpu.system import SimulatedSystem
from repro.mc.setup import MECHANISMS, POLICIES, TRACKERS, MitigationSetup
from repro.obs import ObsConfig, Observability
from repro.sim.cmdlog import CommandLog
from repro.sim.config import SystemConfig
from repro.sim.rng import RngStreams
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

#: The small test geometry (``tests/conftest.py::small_config``).
CONFIG = SystemConfig(
    num_cores=2,
    num_subchannels=2,
    banks_per_subchannel=4,
    rows_per_bank=4096,
    subarrays_per_bank=16,
    llc_size_bytes=64 * 1024,
)
SEED = 3


def _simulator_classes():
    """Registered classes of the simulator itself (not test fixtures)."""
    return sorted(
        (cls for cls in REGISTRY if cls.__module__.startswith("repro.")),
        key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
    )


def _corpus_setups():
    """Every tracker x policy x mechanism of ``repro.mc.setup``.

    Only ``rfm`` and ``autorfm`` build the configured tracker and policy
    (``smd`` always builds PARA + blast-radius, the others none), so the
    product is taken there and each other mechanism runs once.
    """
    for mechanism in MECHANISMS:
        if mechanism in ("rfm", "autorfm"):
            for tracker in TRACKERS:
                for policy in POLICIES:
                    yield MitigationSetup(
                        mechanism, threshold=4, tracker=tracker, policy=policy
                    )
        else:
            yield MitigationSetup(
                mechanism, threshold=4, prac_trh_d=30, blockhammer_trh=50
            )


#: Controller variants off the default closed-page path.
VARIANTS = (
    {"page_policy": "open"},
    {"write_drain": True},
    {"refresh_mode": "same_bank"},
)


def _capture_mid_run(setup, config=CONFIG, obs=None, every=6000):
    """Run one short system, capturing at every segment boundary."""
    traces = make_rate_traces(WORKLOADS["lbm"], config, requests=100,
                              seed=SEED)
    system = SimulatedSystem(traces, setup, config, "zen", seed=SEED,
                             command_log=CommandLog(), obs=obs)
    system.start()
    return _run_capturing(system, every)


def _run_capturing(system, every=6000):
    snapshots = []
    system.run(checkpoint_every=every,
               on_checkpoint=lambda s, b: snapshots.append(capture(s, b)))
    assert snapshots, "the run ended before its next segment boundary"
    return snapshots


@pytest.fixture(scope="module")
def corpus():
    """Classes every capture of the corpus checked, plus the snapshots."""
    checked = set()
    real = contract_module.checked_contract

    def spy(obj):
        checked.add(type(obj))
        return real(obj)

    snapshots = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contract_module, "checked_contract", spy)
        mp.setattr(state_module, "checked_contract", spy)
        for setup in _corpus_setups():
            snapshots += _capture_mid_run(setup)
        autorfm = MitigationSetup("autorfm", threshold=4)
        for overrides in VARIANTS:
            config = dataclasses.replace(CONFIG, **overrides)
            snapshots += _capture_mid_run(autorfm, config=config)
        observed = Observability(ObsConfig(metrics=True, trace=True))
        observed_run = _capture_mid_run(autorfm, obs=observed)
        snapshots += observed_run
        # The resume path of a segmented run: restore, run on, capture.
        snapshots += _run_capturing(restore(observed_run[0]))
        # Graphene and TRR are built by the security models, never by a
        # MitigationSetup: capture exercised instances directly.
        streams = RngStreams(SEED)
        for tracker in (
            repro.trackers.graphene.GrapheneTracker(
                entries=8, mitigation_count=4, rng=streams.get("graphene")
            ),
            repro.trackers.trr.TrrTracker(rng=streams.get("trr")),
        ):
            for row in (1, 2, 1, 3, 1, 1, 2, 1):
                tracker.on_activation(row)
            tracker.select_for_mitigation()
            capture_fields(tracker)
    return checked, snapshots


class TestContractLint:
    def test_registry_is_populated(self):
        # The simulator import above must have registered the whole tree;
        # a collapsing registry would make the coverage below vacuous.
        assert len(_simulator_classes()) > 30

    @pytest.mark.parametrize(
        "cls",
        _simulator_classes(),
        ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
    )
    def test_every_assigned_attribute_is_classified(self, cls, corpus):
        # Passes when some corpus capture checked an instance of ``cls``
        # (or of a subclass): that capture raises on any attribute the
        # contract leaves unclassified. An attribute bound only on a path
        # the corpus never runs is first checked by a production capture.
        checked, _ = corpus
        assert any(issubclass(seen, cls) for seen in checked), (
            f"{cls.__module__}.{cls.__qualname__} never passed through a "
            f"capture; extend the corpus so its contract is checked"
        )

    def test_lazily_bound_state_is_captured(self, corpus):
        # The same-bank refresh cursor is bound outside __init__; it must
        # show up (and so be checked) in at least one capture.
        _, snapshots = corpus
        assert any("_ref_cursor" in s.payload["controller"] for s in snapshots)
        assert not all(
            "_ref_cursor" in s.payload["controller"] for s in snapshots
        )

    def test_expected_classes_are_registered(self):
        from repro.cpu.core import Core
        from repro.dram.bank import Bank
        from repro.mc.controller import MemoryController
        from repro.obs.metrics import MetricsRegistry
        from repro.rfm.rfm import RfmController
        from repro.sim.engine import Engine
        from repro.sim.stats import SimStats
        from repro.trackers.hydra import HydraTracker
        from repro.trackers.mint import MintTracker

        for cls in (Engine, RngStreams, SimStats, Bank, MemoryController,
                    Core, SimulatedSystem, RfmController, MintTracker,
                    HydraTracker, MetricsRegistry):
            assert cls in REGISTRY, f"{cls.__qualname__} lost its contract"

    def test_every_tracker_is_registered(self):
        from repro.mc.setup import build_tracker

        streams = RngStreams(0)
        for name in TRACKERS:
            setup = MitigationSetup(mechanism="autorfm", tracker=name)
            tracker = build_tracker(setup, streams, bank=0)
            assert type(tracker) in REGISTRY, (
                f"tracker {name!r} ({type(tracker).__qualname__}) has no "
                f"state contract"
            )


@checkpointable(state=("raa",))
class _Probe:
    """A contract that classifies only ``raa``."""

    def __init__(self):
        self.raa = 0

    def tick(self):
        self.raa += 1
        self.sneaky = 1  # never declared


def _attach(probe: _Probe):
    """An outside helper writing state onto the object it was passed."""
    probe.hooks = 1


def _live_system():
    setup = MitigationSetup("autorfm", threshold=4)
    traces = make_rate_traces(WORKLOADS["lbm"], CONFIG, requests=40,
                              seed=SEED)
    system = SimulatedSystem(traces, setup, CONFIG, "zen", seed=SEED,
                             obs=Observability(ObsConfig(metrics=True,
                                                         trace=True)))
    system.start()
    system.engine.run(until=500)
    return system


class TestCaptureRejectsUnclassified:
    """``capture`` refuses a system holding an unclassified attribute."""

    @pytest.mark.parametrize("bind", [
        lambda probe: probe.tick(),
        _attach,
        lambda probe: setattr(probe, "dynamic", 1),
    ], ids=["own-method", "outside-helper", "setattr"])
    def test_nested_object(self, bind):
        system = _live_system()
        probe = _Probe()
        # A nested tracker slot: capture reaches it through encode_value.
        system.controller.banks[0].autorfm.tracker = probe
        capture(system)  # classified attributes only: fine
        bind(probe)
        with pytest.raises(ContractError, match="_Probe") as info:
            capture(system)
        (extra,) = set(vars(probe)) - {"raa"}
        assert extra in str(info.value)

    @pytest.mark.parametrize("target", [
        lambda s: s,
        lambda s: s.streams,
        lambda s: s.controller._streams,
        lambda s: s.obs.metrics,
        lambda s: s.obs.tracer,
        lambda s: s.controller,
        lambda s: s.cores[1],
    ], ids=["system", "streams", "mc-streams", "metrics", "tracer",
            "controller", "core"])
    def test_registered_object(self, target):
        system = _live_system()
        setattr(target(system), "unclassified_attr", 1)
        with pytest.raises(ContractError, match="unclassified_attr"):
            capture(system)


class TestContractMechanics:
    def test_overlapping_fields_rejected(self):
        with pytest.raises(ContractError):
            @checkpointable(state=("x",), derived=("x",))
            class Bad:  # noqa: F811
                pass

    def test_lint_catches_undeclared_attribute(self):
        @checkpointable(state=("declared",))
        class Partial:
            def __init__(self):
                self.declared = 0

            def tick(self):
                self.sneaky = 1  # never declared

        obj = Partial()
        assert capture_fields(obj) == {"declared": 0}
        obj.tick()
        with pytest.raises(ContractError, match="sneaky"):
            capture_fields(obj)

    def test_lint_sees_dataclass_fields(self):
        from repro.ckpt.contract import checkpointable_dataclass

        @checkpointable_dataclass
        @dataclasses.dataclass
        class Record:
            a: int = 0
            b: str = ""

        assert capture_fields(Record(1, "x")) == {"a": 1, "b": "x"}
        assert set(effective_contract(Record).state_fields) == {"a", "b"}

    def test_contract_unions_across_inheritance(self):
        @checkpointable(state=("base_state",))
        class Base:
            def __init__(self):
                self.base_state = 0

        @checkpointable(state=("sub_state",))
        class Sub(Base):
            def __init__(self):
                super().__init__()
                self.sub_state = 1

        fields = effective_contract(Sub).state_fields
        assert "base_state" in fields and "sub_state" in fields
        assert capture_fields(Sub()) == {"base_state": 0, "sub_state": 1}

    def test_unclassified_slot_is_caught(self):
        @checkpointable(state=("value",))
        class Slotted:
            __slots__ = ("value", "spare")

            def __init__(self):
                self.value = 0

        obj = Slotted()
        assert capture_fields(obj) == {"value": 0}  # unset slot: no attr
        obj.spare = 1
        with pytest.raises(ContractError, match="spare"):
            capture_fields(obj)

    def test_simulator_import_loads_no_lint_module(self):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        probe = (
            "import sys, repro.cpu.system, repro.ckpt.state\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.lint' or m.startswith('repro.lint.')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"
