"""Span tracer: a bounded, cycle-stamped JSONL event timeline.

Each emitted record is one JSON object per line with stable sorted keys:

* point events — ``{"t": <cycle>, "kind": "ACT", "bank": 3, "row": 70000}``
* spans — the same plus ``"end": <cycle>`` (SAUM busy intervals, RFM
  stalls, mitigation windows).

Memory is bounded by a ring buffer (``capacity`` events, oldest evicted
first, emission order preserved); attaching a ``stream`` additionally
writes every event through as it is emitted, so arbitrarily long runs can
stream to disk while the in-memory tail stays small.

Records are flat tuples, not dicts. Each starts with its *template*: the
record's canonical JSONL line with a ``%d`` for every field value and a
leading ``%.0s`` that consumes the template itself, so ``record[0] %
record`` renders the line in one formatting call. :func:`layout` compiles
one template per (kind, field names) pair; the built-in hooks resolve
theirs once at import and append ``(template, *values)`` with the values
in sorted field-name order. Events with a non-int field (:meth:`event` /
:meth:`span` callers may pass floats and strings) are encoded with
``json`` when emitted and kept as ``(_JSON_LINE, line)``. :meth:`events`,
:meth:`dump_state` and :meth:`restore_state` convert to and from dicts at
the boundary, so JSONL bytes, snapshots and the ring's eviction order are
the same as for one dict per record.

Determinism contract: timestamps are the integer engine cycles the caller
passes in — this module never reads the wall clock — so serial and
parallel runs of the same seed produce byte-identical JSONL.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, IO, List, Optional, Sequence, Tuple, Union
from repro.ckpt.contract import checkpointable

Field = Union[int, float, str]
#: One ring record: ``(template, *values)``; see the module docstring.
Record = Tuple[Any, ...]

#: Well-known event kinds (callers may emit others; these are the ones the
#: built-in instrumentation produces and docs/observability.md documents).
ACT = "ACT"
ALERT = "ALERT"
RETRY = "RETRY"
RFM_STALL = "RFM"
REF = "REF"
SAUM = "SAUM"
MITIGATION = "MITIGATION"
VICTIM_REFRESH = "VICTIM_REFRESH"


# One shared encoder: json.dumps with non-default options constructs a
# fresh JSONEncoder per call.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Template of a record carrying a pre-encoded JSON line.
_JSON_LINE = "%.0s%s\n"

# Memo of layout(), a pure function, both ways: (kind, field names) ->
# template and template -> (kind, field names). Entries never change.
_TEMPLATES: Dict[Tuple[str, Tuple[str, ...]], str] = {}
_LAYOUTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {}


def layout(kind: str, *fields: str) -> str:
    """The template of ``kind`` records whose values are the int
    ``fields``, which must be given in sorted order (the order of the
    values in the record tuple and of the keys in the JSONL line)."""
    key = (kind, fields)
    template = _TEMPLATES.get(key)
    if template is not None:
        return template
    if list(fields) != sorted(set(fields)) or "kind" in fields:
        raise ValueError(
            f"layout fields must be sorted, unique and exclude 'kind': "
            f"{fields!r}"
        )
    parts = dict.fromkeys(fields, "%d")
    parts["kind"] = _ENCODE(kind).replace("%", "%%")
    body = ",".join(
        _ENCODE(name).replace("%", "%%") + ":" + parts[name]
        for name in sorted(parts)
    )
    template = "%.0s{" + body + "}\n"
    _TEMPLATES[key] = template
    _LAYOUTS[template] = key
    return template


def _record(event: Dict[str, Field]) -> Record:
    """The ring record of one event dict."""
    kind = event.get("kind")
    names = tuple(sorted(name for name in event if name != "kind"))
    if type(kind) is str and all(type(event[n]) is int for n in names):
        return (layout(kind, *names),) + tuple(event[n] for n in names)
    return (_JSON_LINE, _ENCODE(event))


def _event(record: Record) -> Dict[str, Field]:
    """The event dict of one ring record (a fresh dict)."""
    template = record[0]
    if template == _JSON_LINE:
        return json.loads(record[1])
    kind, names = _LAYOUTS[template]
    event: Dict[str, Field] = dict(zip(names, record[1:]))
    event["kind"] = kind
    return event


@checkpointable(
    state=("_buffer", "emitted"),
    const=("capacity",),
    derived=("stream",),
)
class SpanTracer:
    """Ring-buffered event recorder with optional streaming flush."""

    def __init__(self, capacity: int = 65536, stream: Optional[IO[str]] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stream = stream
        self._buffer: Deque[Record] = deque(maxlen=capacity)
        #: Events emitted over the tracer's lifetime (kept + evicted).
        self.emitted = 0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def event(self, cycle: int, kind: str, **fields: Field) -> None:
        """Record a point event at engine cycle ``cycle``."""
        record: Dict[str, Field] = {"t": cycle, "kind": kind}
        record.update(fields)
        self.emit_raw((_record(record),))

    def span(self, start: int, end: int, kind: str, **fields: Field) -> None:
        """Record an interval ``[start, end)`` in engine cycles."""
        if end < start:
            raise ValueError(f"span ends ({end}) before it starts ({start})")
        self.event(start, kind, end=end, **fields)

    def emit_raw(self, records: Sequence[Record]) -> None:
        """Bulk-append pre-built record tuples, in order (deferred emission).

        The drain-boundary aggregation path appends ``(template, *values)``
        tuples (templates from :func:`layout`) on the hot path, queues
        them, and hands the whole batch over here at the next boundary;
        the result — ring contents, ``emitted`` total, stream bytes — is
        identical to calling :meth:`event` once per record at the moment
        each was queued.
        """
        self.emitted += len(records)
        self._buffer.extend(records)
        if self.stream is not None:
            self.stream.write("".join([r[0] % r for r in records]))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer (oldest-first)."""
        return self.emitted - len(self._buffer)

    def events(self) -> List[Dict[str, Field]]:
        """Retained events, in emission order (fresh dicts)."""
        return [_event(r) for r in self._buffer]

    def to_jsonl(self) -> str:
        """Retained events as JSONL (one canonical line per event)."""
        return "".join([r[0] % r for r in self._buffer])

    def write(self, path: str) -> int:
        """Write the retained timeline to ``path``; returns event count."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return len(self._buffer)

    def clear(self) -> None:
        """Drop the retained events (the emitted total keeps counting)."""
        self._buffer.clear()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, object]:
        """Lossless state: the retained ring plus the lifetime total."""
        return {"emitted": self.emitted, "events": self.events()}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`dump_state` dump in place (ring is replaced,
        the attached ``stream``, if any, is left untouched)."""
        self.emitted = int(state["emitted"])
        self._buffer.clear()
        self._buffer.extend(_record(e) for e in state["events"])

    def __len__(self) -> int:
        return len(self._buffer)
