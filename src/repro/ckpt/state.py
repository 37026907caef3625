"""System-level capture and restore.

:func:`capture` walks a live :class:`~repro.cpu.system.SimulatedSystem`
through the per-class state contracts (:mod:`repro.ckpt.contract`) and
produces a :class:`~repro.ckpt.snapshot.Snapshot`; :func:`restore`
reconstructs the system from the snapshot's metadata (config, setup,
mapping, seed, traces) and overlays the captured live state *in place* —
RNG generators, metric objects, and stats records are mutated, never
replaced, so every pre-resolved reference inside the system observes the
restored values.

Event-heap entries serialise as ``(time, seq, owner, method, args)``
descriptors. Every schedule site uses bound methods or
``functools.partial`` over bound methods of exactly two owners — the
memory controller (``"mc"``) and the cores (``"core/<i>"``) — so a
callback round-trips without pickling code objects.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ckpt.contract import (
    CodecError,
    capture_fields,
    checked_contract,
    decode_value,
    encode_value,
    restore_fields,
)
from repro.ckpt.snapshot import (
    CKPT_FORMAT_VERSION,
    SNAPSHOT_SUFFIX,
    Snapshot,
    SnapshotError,
    load_snapshot,
    save_snapshot,
)
from repro.cpu.system import SimulatedSystem
from repro.mc.request import Request
from repro.mc.setup import MitigationSetup
from repro.obs import Observability, ObsConfig
from repro.sim.config import DramTiming, SystemConfig
from repro.sim.rng import _child_seed
from repro.workloads.trace import Trace


# ----------------------------------------------------------------------
# Callback (heap entry) codec
# ----------------------------------------------------------------------

def _owners(system: SimulatedSystem) -> Dict[str, Any]:
    owners: Dict[str, Any] = {"mc": system.controller}
    for i, core in enumerate(system.cores):
        owners[f"core/{i}"] = core
    return owners


def _encode_callback(callback: Any, owner_ids: Dict[int, str]) -> Dict[str, Any]:
    if isinstance(callback, partial):
        if callback.keywords:
            raise CodecError(
                f"cannot serialise partial with keywords: {callback!r}"
            )
        func = callback.func
        args = callback.args
    else:
        func = callback
        args = ()
    owner = getattr(func, "__self__", None)
    key = owner_ids.get(id(owner)) if owner is not None else None
    if key is None:
        raise CodecError(
            f"event callback {callback!r} is not a bound method of the "
            f"controller or a core; checkpointing requires serialisable "
            f"schedule sites"
        )
    return {
        "o": key,
        "m": func.__name__,
        "a": [encode_value(a) for a in args],
    }


def _decode_callback(data: Dict[str, Any], owners: Dict[str, Any]) -> Any:
    owner = owners.get(data["o"])
    if owner is None:
        raise SnapshotError(f"snapshot references unknown owner {data['o']!r}")
    method = getattr(owner, data["m"], None)
    if method is None or not callable(method):
        raise SnapshotError(
            f"snapshot references unknown method "
            f"{data['o']}.{data['m']}"
        )
    args = [decode_value(a) for a in data["a"]]
    if not args:
        return method
    return partial(method, *args)


# ----------------------------------------------------------------------
# Request codec (queues, write buffers, pending completions)
# ----------------------------------------------------------------------

def _encode_request(request: Request, owner_ids: Dict[int, str]) -> Dict[str, Any]:
    on_complete = None
    if request.on_complete is not None:
        on_complete = _encode_callback(request.on_complete, owner_ids)
    return {
        "core": request.core_id,
        "addr": int(request.line_addr),
        "write": bool(request.is_write),
        "arrival": request.arrival,
        "alerts": request.alerts,
        "retry_at": request.retry_at,
        "order": request._order,
        "cb": on_complete,
    }


def _decode_request(
    data: Dict[str, Any], system: SimulatedSystem, owners: Dict[str, Any]
) -> Request:
    request = Request(
        core_id=data["core"],
        line_addr=data["addr"],
        is_write=data["write"],
        arrival=data["arrival"],
        alerts=data["alerts"],
        retry_at=data["retry_at"],
    )
    request._order = data["order"]
    # Location is pure function of address and mapping; recompute rather
    # than serialise.
    location = system.mapping.locate(request.line_addr)
    request.row = location.row
    request.flat_bank = location.flat_bank(system.config.banks_per_subchannel)
    if data["cb"] is not None:
        request.on_complete = _decode_callback(data["cb"], owners)
    return request


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------

@contextmanager
def _profiled(system: SimulatedSystem, phase: str):
    obs = system.obs
    if obs is None:
        yield
        return
    with obs.profiler.phase(phase):
        yield
    obs.profiler.count(phase, 1)


def _trace_to_dict(trace: Trace) -> Dict[str, Any]:
    return {
        "gaps": [int(g) for g in trace.gaps],
        "addrs": [int(a) for a in trace.addrs],
        "writes": [bool(w) for w in trace.writes],
        "tail_instructions": int(trace.tail_instructions),
        "name": trace.name,
    }


def _check_bespoke_contracts(system: SimulatedSystem) -> None:
    """Contract-check the registered objects :func:`capture` serialises
    by hand rather than through :func:`capture_fields`."""
    objects: List[Any] = [
        system, system.streams, system.controller._streams,
    ]
    obs = system.obs
    if obs is not None and obs.enabled:
        if obs.metrics is not None:
            objects.append(obs.metrics)
            objects.extend(metric for _, _, metric in obs.metrics.series())
        if obs.tracer is not None:
            objects.append(obs.tracer)
    for obj in objects:
        checked_contract(obj)


def capture(system: SimulatedSystem, boundary: Optional[int] = None) -> Snapshot:
    """Capture the full live state of ``system`` into a :class:`Snapshot`.

    ``boundary`` stamps the segment boundary this snapshot closes (used by
    segment-resumable sweeps); it defaults to the engine's current cycle.
    Capture cost is published to the run's wall-clock profiler as phase
    ``ckpt.capture`` — deliberately *not* into the deterministic metrics
    registry, which must stay bit-identical between straight and resumed
    runs. Raises :class:`~repro.ckpt.contract.ContractError` when any
    object it serialises holds an attribute its state contract does not
    classify.
    """
    with _profiled(system, "ckpt.capture"):
        engine = system.engine
        controller = system.controller
        # Deferred observability accumulations must land in the registry /
        # tracer before their state is serialised; an extra flush at an
        # arbitrary cycle never changes the final values.
        if system.obs is not None and system.obs.enabled:
            system.flush_obs()
        _check_bespoke_contracts(system)
        owner_ids = {id(obj): key for key, obj in _owners(system).items()}

        meta: Dict[str, Any] = {
            "cycle": engine.now,
            "boundary": engine.now if boundary is None else int(boundary),
            "seed": system.seed,
            "mapping": system.mapping_name,
            "setup": dataclasses.asdict(system.setup),
            "config": dataclasses.asdict(system.config),
            "obs": (
                dataclasses.asdict(system.obs.config)
                if system.obs is not None
                else None
            ),
            "command_log": system.command_log is not None,
            "traces": [_trace_to_dict(t) for t in system.traces],
        }

        payload: Dict[str, Any] = {
            "engine": capture_fields(
                engine,
                overrides={
                    "_heap": lambda e: [
                        [time, seq, _encode_callback(cb, owner_ids)]
                        for (time, seq, cb) in e._heap
                    ]
                },
            ),
            "rng": {
                "root": system.streams.getstate(),
                "mc": controller._streams.getstate(),
            },
            "stats": capture_fields(system.stats),
            "controller": capture_fields(
                controller,
                overrides={
                    "queues": lambda c: [
                        [_encode_request(r, owner_ids) for r in q]
                        for q in c.queues
                    ],
                    "_write_buffers": lambda c: [
                        [_encode_request(r, owner_ids) for r in b]
                        for b in c._write_buffers
                    ],
                },
            ),
            "cores": [capture_fields(core) for core in system.cores],
            "started": system._started,
        }
        if system.command_log is not None:
            payload["command_log"] = capture_fields(system.command_log)
        obs = system.obs
        if obs is not None and obs.enabled:
            payload["obs"] = {
                "metrics": (
                    obs.metrics.dump_state() if obs.metrics is not None else None
                ),
                "tracer": (
                    obs.tracer.dump_state() if obs.tracer is not None else None
                ),
            }
    return Snapshot(meta=meta, payload=payload, version=CKPT_FORMAT_VERSION)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def _config_from_meta(data: Dict[str, Any]) -> SystemConfig:
    fields = dict(data)
    timing = DramTiming(**fields.pop("timing"))
    return SystemConfig(timing=timing, **fields)


def restore(
    snapshot: Snapshot,
    trace_stream=None,
) -> SimulatedSystem:
    """Rebuild a live :class:`SimulatedSystem` from ``snapshot``.

    The system is reconstructed from the snapshot's metadata exactly as
    :func:`repro.cpu.system.simulate` would build it (same constructor
    path, same derived wiring), then the captured live state is overlaid.
    The returned system is already started; call ``.run(...)`` to continue
    the simulation. Restore cost lands in the profiler as phase
    ``ckpt.restore``.

    ``trace_stream`` optionally re-attaches a streaming sink for the span
    tracer (streams are process-local and never serialised).
    """
    meta = snapshot.meta
    config = _config_from_meta(meta["config"])
    setup = MitigationSetup(**meta["setup"])
    traces = [Trace(**t) for t in meta["traces"]]
    obs = None
    if meta["obs"] is not None:
        obs = Observability(ObsConfig(**meta["obs"]), trace_stream=trace_stream)
    command_log = None
    if meta.get("command_log"):
        from repro.sim.cmdlog import CommandLog

        command_log = CommandLog()

    system = SimulatedSystem(
        traces,
        setup=setup,
        config=config,
        mapping=meta["mapping"],
        seed=meta["seed"],
        command_log=command_log,
        obs=obs,
    )
    with _profiled(system, "ckpt.restore"):
        _overlay(system, snapshot.payload)
    return system


def _overlay(system: SimulatedSystem, payload: Dict[str, Any]) -> None:
    owners = _owners(system)
    controller = system.controller

    # RNG streams first: nothing below draws randomness during restore,
    # but stream objects are shared references and must be mutated early
    # so any later consumer sees restored state.
    system.streams.setstate(payload["rng"]["root"])
    controller._streams.setstate(payload["rng"]["mc"])

    # The freshly constructed controller scheduled its refresh machinery
    # into the new engine; the serialised heap replaces all of it.
    restore_fields(
        system.engine,
        payload["engine"],
        overrides={
            "_heap": lambda engine, data: setattr(
                engine,
                "_heap",
                [
                    (time, seq, _decode_callback(cb, owners))
                    for time, seq, cb in data
                ],
            )
        },
    )

    restore_fields(system.stats, payload["stats"])
    restore_fields(
        controller,
        payload["controller"],
        overrides={
            "queues": lambda c, data: setattr(
                c,
                "queues",
                [
                    [_decode_request(r, system, owners) for r in q]
                    for q in data
                ],
            ),
            "_write_buffers": lambda c, data: setattr(
                c,
                "_write_buffers",
                [
                    [_decode_request(r, system, owners) for r in b]
                    for b in data
                ],
            ),
        },
    )
    for core, data in zip(system.cores, payload["cores"]):
        restore_fields(core, data)
    if system.command_log is not None and "command_log" in payload:
        restore_fields(system.command_log, payload["command_log"])
    obs = system.obs
    obs_payload = payload.get("obs")
    if obs is not None and obs_payload is not None:
        if obs.metrics is not None and obs_payload["metrics"] is not None:
            obs.metrics.restore_state(obs_payload["metrics"])
        if obs.tracer is not None and obs_payload["tracer"] is not None:
            obs.tracer.restore_state(obs_payload["tracer"])
    system._started = bool(payload.get("started", True))


# ----------------------------------------------------------------------
# Fork (multi-seed studies)
# ----------------------------------------------------------------------

#: Stream-name prefixes reseeded by :func:`fork` by default: every source
#: of mitigation randomness, leaving workload/trace streams untouched.
FORK_STREAM_PREFIXES = ("tracker", "fractal", "rowswap", "aqua")


def fork(
    snapshot: Snapshot,
    seed: int,
    streams: Tuple[str, ...] = FORK_STREAM_PREFIXES,
    trace_stream=None,
) -> SimulatedSystem:
    """Restore ``snapshot`` and reseed selected RNG streams for a fork.

    Multi-seed replication à la the MINT security methodology: warm up one
    simulation, snapshot it, then fan out many continuations that share
    the warmed-up architectural state but draw fresh mitigation
    randomness. Only streams whose name matches a prefix in ``streams``
    are reseeded (derived from ``seed`` and the stream name, so two forks
    with the same seed are identical and different seeds are independent);
    everything else — heap, queues, counters, stats — continues
    bit-identically from the snapshot.
    """
    system = restore(snapshot, trace_stream=trace_stream)
    registry = system.controller._streams
    for name in sorted(registry._streams):
        if any(
            name == prefix or name.startswith(prefix + "/")
            for prefix in streams
        ):
            fresh = np.random.default_rng(_child_seed(seed, f"fork/{name}"))
            registry._streams[name].bit_generator.state = (
                fresh.bit_generator.state
            )
    return system


# ----------------------------------------------------------------------
# Periodic checkpoint writer (manifest-keeping)
# ----------------------------------------------------------------------

class CheckpointWriter:
    """Writes snapshots into a directory and maintains its manifest.

    Each snapshot lands as ``ckpt-<boundary><suffix>`` via the atomic
    write-then-rename in :func:`repro.ckpt.snapshot.save_snapshot`; the
    manifest (see :mod:`repro.analysis.storage`) records file name, cycle,
    digest, and size, and is rewritten atomically after every snapshot so
    a crash can lose at most the newest entry, never corrupt older ones.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        from repro.analysis.storage import load_checkpoint_manifest

        try:
            manifest = load_checkpoint_manifest(directory)
            self.entries: List[Dict[str, Any]] = list(manifest["entries"])
        except (FileNotFoundError, ValueError):
            self.entries = []

    def write(self, snapshot: Snapshot) -> str:
        """Persist one snapshot and update the manifest; returns its path."""
        from repro.analysis.storage import save_checkpoint_manifest

        name = f"ckpt-{snapshot.boundary:015d}{SNAPSHOT_SUFFIX}"
        path = os.path.join(self.directory, name)
        digest = save_snapshot(snapshot, path)
        entry = {
            "file": name,
            "cycle": snapshot.cycle,
            "boundary": snapshot.boundary,
            "sha256": digest,
            "bytes": os.path.getsize(path),
        }
        self.entries = [e for e in self.entries if e.get("file") != name]
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e["boundary"])
        save_checkpoint_manifest(
            self.directory,
            self.entries,
            meta={"seed": snapshot.meta.get("seed"),
                  "mapping": snapshot.meta.get("mapping")},
        )
        return path

    def latest(self) -> Optional[str]:
        """Path of the newest snapshot written (or already present)."""
        if not self.entries:
            return None
        return os.path.join(self.directory, self.entries[-1]["file"])


def load_latest(directory: str) -> Optional[Snapshot]:
    """Load the newest *valid* snapshot in a checkpoint directory.

    Walks the manifest newest-first, verifying integrity; corrupt or
    missing files are skipped (a crash mid-write leaves older snapshots
    usable). Returns ``None`` when nothing valid exists.
    """
    from repro.analysis.storage import load_checkpoint_manifest

    try:
        manifest = load_checkpoint_manifest(directory)
    except (FileNotFoundError, ValueError):
        return None
    for entry in sorted(
        manifest["entries"], key=lambda e: e["boundary"], reverse=True
    ):
        path = os.path.join(directory, entry["file"])
        try:
            return load_snapshot(path)
        except (FileNotFoundError, SnapshotError):
            continue
    return None
