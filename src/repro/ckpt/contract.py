"""Explicit per-class state contracts for checkpointing.

Every class whose live state goes into a snapshot declares, via the
:func:`checkpointable` decorator, exactly which attributes are *state*
(captured and restored), which are *derived* (rebuilt at construction:
caches, wiring, observability hooks), and which are *const* (fixed by the
configuration the snapshot's metadata reconstructs). There is no blind
``__dict__`` pickling, and no attribute escapes the contract either:
:func:`checked_contract` runs on every object a capture serialises and
raises :class:`ContractError` when the object holds an attribute its
contract does not classify, however that attribute was bound (its own
methods, a helper it was passed to, ``setattr``). A checkpoint is refused
at the point where it would otherwise silently drop state.

This module imports nothing from ``repro`` beyond the standard library
and numpy, so any layer (sim, dram, trackers, mc, cpu, obs) can register
its classes without import cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple

import numpy as np


class ContractError(ValueError):
    """A state contract is malformed, missing, or leaves an attribute of
    an object being captured unclassified."""


@dataclass(frozen=True)
class StateContract:
    """The three-way classification of one class's attributes."""

    state_fields: Tuple[str, ...]
    derived_fields: Tuple[str, ...] = ()
    const_fields: Tuple[str, ...] = ()

    def __post_init__(self):
        seen: Set[str] = set()
        for group in (self.state_fields, self.derived_fields, self.const_fields):
            for name in group:
                if name in seen:
                    raise ContractError(
                        f"attribute {name!r} classified more than once"
                    )
                seen.add(name)

    @property
    def all_fields(self) -> FrozenSet[str]:
        return frozenset(
            self.state_fields + self.derived_fields + self.const_fields
        )


#: Class -> its *directly declared* contract (not the MRO union).
REGISTRY: Dict[type, StateContract] = {}

#: Qualified class name -> class, for decoding nested object payloads.
_BY_NAME: Dict[str, type] = {}


def checkpointable(
    *,
    state: Tuple[str, ...] = (),
    derived: Tuple[str, ...] = (),
    const: Tuple[str, ...] = (),
) -> Callable[[type], type]:
    """Class decorator registering a :class:`StateContract`.

    A subclass only declares the attributes it introduces; the effective
    contract is the union over the MRO (see :func:`effective_contract`).
    """

    def register(cls: type) -> type:
        name = f"{cls.__module__}.{cls.__qualname__}"
        REGISTRY[cls] = StateContract(tuple(state), tuple(derived), tuple(const))
        _BY_NAME[name] = cls
        return cls

    return register


def register_class(cls, **kwargs) -> type:
    """Imperative form of :func:`checkpointable` for third-party classes."""
    return checkpointable(**kwargs)(cls)


def checkpointable_dataclass(
    cls: Optional[type] = None,
    *,
    derived: Tuple[str, ...] = (),
    const: Tuple[str, ...] = (),
) -> Any:
    """Register a dataclass: every field not listed as derived/const is state.

    Dataclass field declarations already *are* the explicit attribute list,
    so restating them in the decorator would only invite drift.
    """

    def register(klass: type) -> type:
        if not dataclasses.is_dataclass(klass):
            raise ContractError(
                f"{class_name(klass)} is not a dataclass"
            )
        skip = set(derived) | set(const)
        state = tuple(
            f.name for f in dataclasses.fields(klass) if f.name not in skip
        )
        return checkpointable(state=state, derived=derived, const=const)(klass)

    if cls is None:
        return register
    return register(cls)


def is_checkpointable(cls: type) -> bool:
    """True when ``cls`` itself declared a state contract."""
    return cls in REGISTRY


def class_name(cls: type) -> str:
    """Qualified name used to reference ``cls`` inside snapshots."""
    return f"{cls.__module__}.{cls.__qualname__}"


def class_by_name(name: str) -> type:
    """Inverse of :func:`class_name` over the registered classes."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ContractError(f"unknown checkpointable class {name!r}") from None


def effective_contract(cls: type) -> StateContract:
    """Union of the contracts declared along ``cls``'s MRO.

    Field order: subclass declarations come after base-class ones, so a
    restore fills base state first (bases rarely depend on subclass state,
    the reverse is plausible).
    """
    state: list = []
    derived: list = []
    const: list = []
    found = False
    for klass in reversed(cls.__mro__):
        contract = REGISTRY.get(klass)
        if contract is None:
            continue
        found = True
        state.extend(f for f in contract.state_fields if f not in state)
        derived.extend(f for f in contract.derived_fields if f not in derived)
        const.extend(f for f in contract.const_fields if f not in const)
    if not found:
        raise ContractError(
            f"{class_name(cls)} is not registered as checkpointable"
        )
    return StateContract(tuple(state), tuple(derived), tuple(const))


def checked_contract(obj: Any) -> StateContract:
    """``obj``'s effective contract, after checking it classifies ``obj``.

    Raises :class:`ContractError` naming the class and the attributes when
    ``obj`` holds an instance attribute (in ``__dict__`` or a filled slot)
    outside the contract's state/derived/const fields. Attributes bound
    lazily are checked on the captures that see them.
    """
    cls = type(obj)
    contract = effective_contract(cls)
    names = set(getattr(obj, "__dict__", ()))
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.update(s for s in slots if hasattr(obj, s))
    unclassified = names - contract.all_fields
    if unclassified:
        raise ContractError(
            f"{class_name(cls)} holds attributes its state contract does "
            f"not classify: {sorted(unclassified)}; add each to state= "
            f"(live, checkpointed), derived= (rebuilt by the constructor) "
            f"or const= (construction input)"
        )
    return contract


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
#
# Snapshots are canonical JSON, so every captured value must encode to the
# JSON data model without losing its Python type. Containers are tagged:
# a raw JSON object in an encoded payload is ALWAYS a tag wrapper (plain
# dicts become {"__k__": "dict", "items": [[k, v], ...]}, which also
# preserves insertion order and non-string keys such as the (bank, row)
# tuples in BlockHammer's throttle table). Registered checkpointable
# instances nest as {"__obj__": name, "fields": {...}} and restore *in
# place* into the object the reconstructed system already holds. Small
# frozen value types (e.g. MitigationRequest) register an explicit
# encode/decode pair via :func:`register_value_type`.

_VALUE_CODECS: Dict[str, Tuple[type, Callable, Callable]] = {}
_VALUE_TAGS: Dict[type, str] = {}

_MISSING = object()


class CodecError(ValueError):
    """A value cannot be encoded or decoded."""


def register_value_type(
    tag: str, cls: type, encode: Callable[[Any], Any], decode: Callable[[Any], Any]
) -> None:
    """Register a frozen value type with an explicit encode/decode pair."""
    if tag in _VALUE_CODECS and _VALUE_CODECS[tag][0] is not cls:
        raise ContractError(f"value tag {tag!r} already registered")
    _VALUE_CODECS[tag] = (cls, encode, decode)
    _VALUE_TAGS[cls] = tag


def encode_value(value: Any) -> Any:
    """Encode one Python value into the tagged-JSON data model."""
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    cls = type(value)
    tag = _VALUE_TAGS.get(cls)
    if tag is not None:
        return {"__val__": tag, "data": _VALUE_CODECS[tag][1](value)}
    if cls in REGISTRY:
        return {"__obj__": class_name(cls), "fields": capture_fields(value)}
    if cls is tuple:
        return {"__k__": "tuple", "items": [encode_value(v) for v in value]}
    if cls is list:
        return [encode_value(v) for v in value]
    if cls is deque:
        return {
            "__k__": "deque",
            "maxlen": value.maxlen,
            "items": [encode_value(v) for v in value],
        }
    if cls is OrderedDict:
        return {
            "__k__": "odict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if cls is dict:
        return {
            "__k__": "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, bool):  # IntEnum/bool subclasses
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str(value)
    raise CodecError(f"cannot encode value of type {class_name(cls)}: {value!r}")


def decode_value(encoded: Any, existing: Any = _MISSING) -> Any:
    """Decode a tagged-JSON value, restoring nested objects in place.

    ``existing`` is the value the freshly reconstructed system currently
    holds for this slot; nested checkpointable objects are mutated in place
    (so aliases elsewhere in the system observe the restored state) and
    lists are decoded element-wise against their existing counterparts.
    """
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, list):
        if isinstance(existing, (list, tuple)) and len(existing) == len(encoded):
            return [decode_value(e, x) for e, x in zip(encoded, existing)]
        return [decode_value(e) for e in encoded]
    if isinstance(encoded, dict):
        if "__obj__" in encoded:
            cls = class_by_name(encoded["__obj__"])
            if existing is _MISSING or existing is None:
                raise CodecError(
                    f"no live object to restore {encoded['__obj__']} into"
                )
            if type(existing) is not cls:
                raise CodecError(
                    f"snapshot holds {encoded['__obj__']} but the live "
                    f"object is {class_name(type(existing))}"
                )
            restore_fields(existing, encoded["fields"])
            return existing
        if "__val__" in encoded:
            tag = encoded["__val__"]
            if tag not in _VALUE_CODECS:
                raise CodecError(f"unknown value tag {tag!r}")
            return _VALUE_CODECS[tag][2](encoded["data"])
        kind = encoded.get("__k__")
        if kind == "tuple":
            return tuple(decode_value(v) for v in encoded["items"])
        if kind == "deque":
            out = deque(maxlen=encoded["maxlen"])
            out.extend(decode_value(v) for v in encoded["items"])
            return out
        if kind == "odict":
            return OrderedDict(
                (decode_value(k), decode_value(v)) for k, v in encoded["items"]
            )
        if kind == "dict":
            return {
                decode_value(k): decode_value(v) for k, v in encoded["items"]
            }
        raise CodecError(f"unrecognised encoded mapping: {sorted(encoded)!r}")
    raise CodecError(f"cannot decode value {encoded!r}")


# ----------------------------------------------------------------------
# Generic field capture / restore
# ----------------------------------------------------------------------

Overrides = Optional[Dict[str, Callable]]


def capture_fields(obj: Any, overrides: Overrides = None) -> Dict[str, Any]:
    """Capture ``obj``'s contract state fields into a plain dict.

    ``overrides`` maps a field name to ``fn(obj) -> encoded`` for fields
    with bespoke encodings (e.g. the engine's event heap). Attributes that
    do not exist yet (created lazily, such as the controller's same-bank
    refresh cursor) are simply omitted and left untouched on restore.
    Raises :class:`ContractError` when ``obj`` holds an attribute its
    contract does not classify (see :func:`checked_contract`).
    """
    contract = checked_contract(obj)
    out: Dict[str, Any] = {}
    for name in contract.state_fields:
        if overrides and name in overrides:
            out[name] = overrides[name](obj)
            continue
        value = getattr(obj, name, _MISSING)
        if value is _MISSING:
            continue
        out[name] = encode_value(value)
    return out


def restore_fields(obj: Any, data: Dict[str, Any], overrides: Overrides = None) -> None:
    """Restore a :func:`capture_fields` dict onto a live object."""
    contract = effective_contract(type(obj))
    for name in contract.state_fields:
        if name not in data:
            continue
        if overrides and name in overrides:
            overrides[name](obj, data[name])
            continue
        existing = getattr(obj, name, _MISSING)
        decoded = decode_value(data[name], existing)
        setattr(obj, name, decoded)
