"""The job model: one base for every kind of job the runner executes.

A job is a frozen dataclass describing *what* to compute — a timing
simulation (:class:`repro.analysis.runner.Job`), a batched Monte-Carlo
attack replay (:class:`repro.analysis.runner.SecurityJob`) or a
threshold-campaign cell (:class:`repro.security.campaign.CampaignJob`).
Everything that crosses a process or a run boundary is derived from the
dataclass fields instead of written by hand per kind:

* the versioned **wire dict** (:meth:`JobSpec.to_wire` /
  :meth:`JobSpec.from_wire`) the sweep daemon receives from clients;
* the sha256 **cache key** (:meth:`JobSpec.key`), shaped by field
  metadata: :data:`KEY_BLIND` fields are execution strategies that never
  enter the key, :func:`keyed_when` fields enter it only while a gate
  field is set, and :func:`resolved_from` fields key their run-context
  default when left ``None``;
* the **cache entry** a result is stored as (``section`` plus
  ``encode_result``/``decode_result``) and the **executor** a worker runs
  (:meth:`JobSpec.execute`, reached through :func:`run_job`).

Each subclass registers itself under its ``kind`` tag in
:data:`JobSpec.kinds`; that registry is the one place a new job kind is
added, and the runner, the sweep daemon, its workers and the client all
dispatch through it.

This module imports nothing else from ``repro`` at load time, so the job
dataclasses can live next to the code that executes them without import
cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, Type

#: Bump when the simulator's observable behaviour changes (new stats
#: fields, timing fixes, ...): every existing cache entry self-invalidates
#: because the version participates in the cache key.
#:
#: v2: the observed engine drain samples heap depth on a persistent
#: lifetime event ordinal (so checkpoint-segmented drains sample exactly
#: like straight ones), which moved the sampling points of observed runs.
CACHE_SCHEMA_VERSION = 2

#: Schema version of the *job wire format* — the plain-JSON form a job
#: takes when it travels out of process (to the ``repro.svc`` sweep
#: daemon, or any other scheduler). Distinct from
#: :data:`CACHE_SCHEMA_VERSION` on purpose: the cache schema names result
#: *artifacts*, the wire schema names job *descriptions*. Bump whenever a
#: field changes meaning in a way an old daemon would silently misread.
JOB_WIRE_SCHEMA_VERSION = 1

#: Field metadata for an execution strategy (a timing backend, a
#: checkpoint segment length): it cannot change the result, so it never
#: enters the cache key and a result computed either way answers for both.
KEY_BLIND: Dict[str, Any] = {"key_blind": True}


def keyed_when(gate: str) -> Dict[str, Any]:
    """Field metadata: key the field only while field ``gate`` is set.

    Fields added after a kind's first cache entries were written are gated
    on themselves (or on the field that makes them meaningful), so every
    entry written before they existed stays addressable under its
    original hash.
    """
    return {"keyed_when": gate}


def resolved_from(context_attr: str) -> Dict[str, Any]:
    """Field metadata: a ``None`` value keys (and runs) as the
    :class:`RunContext` attribute ``context_attr``."""
    return {"resolved_from": context_attr}


#: The attack vocabulary the Monte-Carlo job kinds share.
ATTACKS = ("round_robin", "single_sided", "double_sided", "half_double")
TRACKERS = ("mint", "mint-transitive", "graphene", "para")
POLICIES = ("fractal", "blast")
KERNEL_BACKENDS = ("numpy", "scalar")


@dataclass(frozen=True)
class RunContext:
    """What a batch of jobs runs against, decided by the runner or the
    daemon rather than by the job itself."""

    #: :class:`repro.sim.config.SystemConfig` of timing simulations (key
    #: material of the kinds with ``flat_key``).
    config: Any = None
    #: Default per-core request slice for jobs that leave theirs ``None``.
    requests: Optional[int] = None
    schema_version: int = CACHE_SCHEMA_VERSION
    #: Where resumable jobs persist segment snapshots / seed-pool
    #: frontiers (``None``: nowhere, the job runs straight through).
    cache_dir: Optional[str] = None
    #: Restart from the newest persisted snapshot instead of from zero.
    resume: bool = False


_DEFAULT_CONTEXT = RunContext()


@dataclass(frozen=True)
class _FieldPlan:
    """How one dataclass field is decoded off the wire and keyed."""

    name: str
    decode: Optional[Callable[[Any], Any]]
    key_blind: bool
    keyed_when: Optional[str]
    resolved_from: Optional[str]


class JobSpec:
    """Base of every job dataclass; see the module docstring.

    Subclasses are frozen dataclasses that set the class attributes below
    and implement :meth:`execute`.
    """

    #: kind tag -> job class, filled as subclasses are defined.
    kinds: ClassVar[Dict[str, Type["JobSpec"]]] = {}

    #: Wire ``kind`` tag and registry key.
    kind: ClassVar[str]
    #: Name of the cache-entry field holding a stored result.
    section: ClassVar[str]
    #: Key layout: ``True`` puts the fields at the top level of the key
    #: payload beside the run context's system config (timing results
    #: depend on it); ``False`` nests them as ``{"kind", "job"}``.
    flat_key: ClassVar[bool] = False
    #: JSON type a stored result must have (checked on every cache read).
    result_type: ClassVar[type] = object
    #: Profile counter names: (jobs submitted, unique jobs or ``None``,
    #: jobs executed).
    profile_counters: ClassVar[Tuple[str, Optional[str], str]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "kind" in cls.__dict__:
            JobSpec.kinds[cls.kind] = cls

    # ------------------------------------------------------------------
    # Wire codec
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """Versioned plain-JSON form of this job."""
        wire: Dict[str, Any] = {
            "kind": self.kind, "schema": JOB_WIRE_SCHEMA_VERSION,
        }
        for plan in self._plan():
            wire[plan.name] = _plain(getattr(self, plan.name))
        return wire

    @classmethod
    def from_wire(cls, data: Any) -> "JobSpec":
        """Inverse of :meth:`to_wire`; validates kind, schema version and
        field names (nested ones included). On :class:`JobSpec` itself it
        decodes any registered kind."""
        if not isinstance(data, dict):
            raise ValueError(
                f"job wire payload must be an object, "
                f"got {type(data).__name__}"
            )
        kind = data.get("kind")
        if cls is JobSpec:
            if kind not in JobSpec.kinds:
                raise ValueError(f"unknown job wire kind {kind!r}")
            cls = JobSpec.kinds[kind]
        elif kind != cls.kind:
            raise ValueError(
                f"expected a {cls.kind!r} job payload, got kind={kind!r}"
            )
        schema = data.get("schema")
        if schema != JOB_WIRE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported job wire schema {schema!r} "
                f"(this build speaks {JOB_WIRE_SCHEMA_VERSION})"
            )
        fields = {k: v for k, v in data.items() if k not in ("kind", "schema")}
        _reject_unknown(cls, fields)
        for plan in cls._plan():
            if plan.decode is not None and fields.get(plan.name) is not None:
                fields[plan.name] = plan.decode(fields[plan.name])
        return cls(**fields)  # type: ignore[call-arg]

    # ------------------------------------------------------------------
    # Cache key
    # ------------------------------------------------------------------
    def key(self, context: Optional[RunContext] = None) -> str:
        """Stable content hash of this job's full input: its key-material
        fields plus, from ``context``, the schema version and (for
        ``flat_key`` kinds) the system config and default request slice."""
        ctx = _DEFAULT_CONTEXT if context is None else context
        material: Dict[str, Any] = {}
        for plan in self._plan():
            if plan.key_blind:
                continue
            if (plan.keyed_when is not None
                    and getattr(self, plan.keyed_when) is None):
                continue
            value = getattr(self, plan.name)
            if value is None and plan.resolved_from is not None:
                value = getattr(ctx, plan.resolved_from)
                if value is None:
                    raise ValueError(
                        f"{type(self).__name__}.{plan.name} is unset and "
                        f"the run context has no {plan.resolved_from!r}"
                    )
            material[plan.name] = _plain(value)
        if self.flat_key:
            payload = dict(material, schema=ctx.schema_version,
                           config=_config_plain(ctx.config))
        else:
            payload = {"schema": ctx.schema_version, "kind": self.kind,
                       "job": material}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Execution and stored results
    # ------------------------------------------------------------------
    def execute(self, key: str, context: RunContext) -> Any:
        """Compute this job's result (runs in a worker process)."""
        raise NotImplementedError

    @classmethod
    def encode_result(cls, value: Any) -> Any:
        """The plain-JSON form a result is cached as."""
        return value

    @classmethod
    def decode_result(cls, raw: Any) -> Any:
        """Inverse of :meth:`encode_result`; raises ``ValueError``,
        ``KeyError`` or ``TypeError`` on a malformed entry."""
        if not isinstance(raw, cls.result_type):
            raise ValueError(f"malformed {cls.section} entry")
        return raw

    @classmethod
    def summary(cls, payload: Any) -> str:
        """One line describing a result in its :meth:`encode_result`
        form (what the sweep daemon serves)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @classmethod
    def _plan(cls) -> Tuple[_FieldPlan, ...]:
        """Per-field codec and key rules, resolved once per class."""
        plan = cls.__dict__.get("_field_plan")
        if plan is None:
            hints = typing.get_type_hints(cls)
            plan = tuple(
                _FieldPlan(
                    name=f.name,
                    decode=_decoder(hints[f.name]),
                    key_blind=bool(f.metadata.get("key_blind")),
                    keyed_when=f.metadata.get("keyed_when"),
                    resolved_from=f.metadata.get("resolved_from"),
                )
                for f in dataclasses.fields(cls)  # type: ignore[arg-type]
            )
            cls._field_plan = plan  # type: ignore[attr-defined]
        return plan


def run_job(payload: Tuple[JobSpec, str, RunContext]) -> Any:
    """Worker entry point: ``(job, key, context)`` -> result.

    Module-level so a process pool can pickle it; the job travels as the
    (picklable) dataclass and rebuilds its inputs inside the worker.
    """
    job, key, context = payload
    return job.execute(key, context)


def check_attack_fields(job: Any) -> None:
    """Validation shared by the Monte-Carlo job kinds' ``__post_init__``.

    A corpus ``scenario`` pins its manifest version (and, where the kind
    has one, its compiled-rows digest) and normalizes ``scenario_params``
    to sorted ``(name, value)`` pairs; without a scenario every other
    scenario field must stay unset. Then ``attack``/``tracker``/``policy``
    /``backend`` must name known choices.
    """
    group = [
        f.name for f in dataclasses.fields(job)
        if f.metadata.get("keyed_when") == "scenario" and f.name != "scenario"
    ]
    if job.scenario is not None:
        from repro.payload import load_scenario

        meta = load_scenario(job.scenario)
        if job.scenario_version is None:
            object.__setattr__(job, "scenario_version", meta.version)
        elif job.scenario_version != meta.version:
            raise ValueError(
                f"scenario {job.scenario!r} is version {meta.version} "
                f"in the corpus, not {job.scenario_version!r}"
            )
        if "scenario_digest" in group:
            if job.scenario_digest is None:
                object.__setattr__(job, "scenario_digest", meta.rows_sha256)
            elif job.scenario_digest != meta.rows_sha256:
                raise ValueError(
                    f"scenario {job.scenario!r} compiles to digest "
                    f"{meta.rows_sha256[:12]}..., not "
                    f"{str(job.scenario_digest)[:12]}..."
                )
        declared = dict(meta.params)
        raw = (
            job.scenario_params.items()
            if isinstance(job.scenario_params, dict)
            else job.scenario_params
        )
        normalized = tuple(sorted((str(k), int(v)) for k, v in raw))
        for name, _ in normalized:
            if name not in declared:
                raise ValueError(
                    f"scenario {job.scenario!r} declares no parameter "
                    f"{name!r} (has {sorted(declared)})"
                )
        object.__setattr__(job, "scenario_params", normalized)
    elif any(_is_set(getattr(job, name)) for name in group):
        raise ValueError(f"{'/'.join(group)} require a scenario")
    for name, choices in (
        ("attack", ATTACKS), ("tracker", TRACKERS), ("policy", POLICIES),
    ):
        value = getattr(job, name)
        if value not in choices:
            raise ValueError(
                f"unknown {name} {value!r}; expected one of {choices}"
            )
    if job.backend not in KERNEL_BACKENDS:
        raise ValueError(f"unknown backend {job.backend!r}")


def _is_set(value: Any) -> bool:
    if isinstance(value, (tuple, list, dict)):
        return bool(value)
    return value is not None


# ----------------------------------------------------------------------
# Field codecs
# ----------------------------------------------------------------------
#: The last config keyed and its ``dataclasses.asdict`` form: a runner or
#: daemon keys every job under one config object.
_LAST_CONFIG: Tuple[Any, Dict[str, Any]] = (None, {})


def _config_plain(config: Any) -> Dict[str, Any]:
    """The key form of a (frozen) system config, derived once per config
    object in a row; callers must not mutate it."""
    global _LAST_CONFIG
    if _LAST_CONFIG[0] is not config:
        _LAST_CONFIG = (config, dataclasses.asdict(config))
    return _LAST_CONFIG[1]


def _plain(value: Any) -> Any:
    """JSON form of a field value: dataclasses as dicts, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)  # type: ignore[arg-type]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _retuple(value: Any) -> Any:
    """Inverse of :func:`_plain` for (nested) tuple fields."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    return value


def _decoder(hint: Any) -> Optional[Callable[[Any], Any]]:
    """How a field of type ``hint`` is rebuilt from its JSON form."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is typing.Union and len(args) == 1:
        hint = args[0]  # Optional[X]: None passes through undecoded
    if dataclasses.is_dataclass(hint):
        nested: type = hint  # type: ignore[assignment]

        def decode(raw: Any) -> Any:
            if not isinstance(raw, dict):
                raise ValueError(
                    f"{nested.__name__} wire field must be an object"
                )
            _reject_unknown(nested, raw)
            return nested(**raw)

        return decode
    if hint is tuple or typing.get_origin(hint) is tuple:
        return _retuple
    return None


def _reject_unknown(cls: type, fields: Dict[str, Any]) -> None:
    unknown = set(fields) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} wire fields: {sorted(unknown)}"
        )

