"""Deterministic checkpoint/restore for the simulator (``repro.ckpt``).

Three layers:

* :mod:`repro.ckpt.contract` — per-class *state contracts*: every
  checkpointable class declares exactly which attributes are live state,
  which are derived wiring, and which are construction constants; every
  capture checks each object it serialises against its contract and
  raises :class:`ContractError` on an attribute the contract does not
  classify, so a state omission is an error, not a silent divergence.
* :mod:`repro.ckpt.snapshot` — the versioned, integrity-hashed on-disk
  format (canonical JSON, gzipped, sha256 over the body, atomic
  write-then-rename).
* :mod:`repro.ckpt.state` — :func:`capture` / :func:`restore` /
  :func:`fork` over a live :class:`~repro.cpu.system.SimulatedSystem`,
  plus the manifest-keeping :class:`CheckpointWriter` used by
  ``simulate(checkpoint_every=..., checkpoint_dir=...)``.

The determinism guarantee: a run checkpointed at any segment boundary and
restored produces byte-identical stats exports, metrics snapshots, and
JSONL traces to the same run executed straight through.
"""

from repro.ckpt.contract import (
    REGISTRY,
    CodecError,
    ContractError,
    StateContract,
    capture_fields,
    checked_contract,
    checkpointable,
    checkpointable_dataclass,
    class_by_name,
    class_name,
    decode_value,
    effective_contract,
    encode_value,
    is_checkpointable,
    register_value_type,
    restore_fields,
)
from repro.ckpt.snapshot import (
    CKPT_FORMAT_VERSION,
    SNAPSHOT_FORMAT,
    SNAPSHOT_SUFFIX,
    Snapshot,
    SnapshotError,
    SnapshotIntegrityError,
    canonical_json,
    load_snapshot,
    save_snapshot,
    snapshot_digest,
)
# The state layer imports the whole simulator (repro.cpu.system), and the
# simulator's low-level modules import repro.ckpt.contract — which executes
# this package __init__. Loading the state layer lazily (PEP 562) breaks
# that cycle while keeping ``from repro.ckpt import capture`` working.
_STATE_EXPORTS = (
    "FORK_STREAM_PREFIXES",
    "CheckpointWriter",
    "capture",
    "fork",
    "load_latest",
    "restore",
)


def __getattr__(name):
    if name in _STATE_EXPORTS:
        from repro.ckpt import state

        return getattr(state, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "REGISTRY",
    "CodecError",
    "ContractError",
    "StateContract",
    "capture_fields",
    "checked_contract",
    "checkpointable",
    "checkpointable_dataclass",
    "class_by_name",
    "class_name",
    "decode_value",
    "effective_contract",
    "encode_value",
    "is_checkpointable",
    "register_value_type",
    "restore_fields",
    "CKPT_FORMAT_VERSION",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_SUFFIX",
    "Snapshot",
    "SnapshotError",
    "SnapshotIntegrityError",
    "canonical_json",
    "load_snapshot",
    "save_snapshot",
    "snapshot_digest",
    "FORK_STREAM_PREFIXES",
    "CheckpointWriter",
    "capture",
    "fork",
    "load_latest",
    "restore",
]
