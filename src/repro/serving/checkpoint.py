"""Checkpoints of serving state, and the one canonical state encoding.

A checkpoint captures everything needed to recreate a tenant's serving
state on another switch instance: the admission spec, the live policy
(serialized as a DAG document — it may differ from the admitted one after
hot-swaps), the SMBM state (bit-faithful: stored words, FIFO enqueue
order, version counter), and the plan-epoch watermark.  A
:class:`SwitchCheckpoint` bundles one :class:`TenantCheckpoint` per
admitted tenant plus the shared pipeline geometry, so a whole switch can
be rebuilt.

A checkpoint has no file of its own: its :meth:`SwitchCheckpoint.payload`
is the args of a ``checkpoint`` record in the write-ahead log
(:meth:`Controller.checkpoint <repro.serving.controller.Controller.checkpoint>`),
trusted exactly as every other frame is — length, checksum, structure.
:meth:`SwitchCheckpoint.from_payload` decodes it back, or raises
:class:`~repro.errors.CheckpointError` for a payload it cannot decode —
never a half-restored switch.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any

from repro.core.pipeline import PipelineParams
from repro.core.policy import policy_from_dict, policy_to_dict
from repro.errors import CheckpointError, ConfigurationError
from repro.tenancy.manager import TenantSpec

__all__ = [
    "TenantCheckpoint",
    "SwitchCheckpoint",
    "canonical_bytes",
    "spec_to_dict",
    "spec_from_dict",
]


def _normalize_key(key: Any) -> str:
    """Exactly json.dumps's key coercion (bool before int: True is an
    int whose JSON key form is ``"true"``, not ``"True"``)."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return str(key)
    if isinstance(key, float):
        return repr(key)
    raise TypeError(f"unserializable dict key {key!r}")


def _normalize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {_normalize_key(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def canonical_bytes(payload: dict[str, Any]) -> bytes:
    """One byte string per state, the "same state?" comparison every
    golden-twin check makes: sorted keys, no whitespace variance, UTF-8.
    JSON maps int dict keys to strings, and int keys sort numerically
    while their string forms sort lexicographically (10 < 2 as strings),
    so keys are stringified *before* the sorted dump: a live snapshot
    and one decoded from the log encode to the exact same bytes."""
    return json.dumps(
        _normalize(payload), sort_keys=True, separators=(",", ":")
    ).encode()


# -- tenant spec (de)serialization ----------------------------------------------------


def spec_to_dict(spec: TenantSpec) -> dict[str, Any]:
    """Serialize an admission spec (policy DAG included) to a JSON-safe
    document — the one spelling every persisted form shares: the WAL's
    ``add_tenant`` record and the tenant checkpoint both embed it.

    Every dataclass field is carried by name, so a field added to
    :class:`TenantSpec` is persisted without touching this module.
    """
    doc = {f.name: getattr(spec, f.name) for f in fields(TenantSpec)}
    doc["policy"] = policy_to_dict(spec.policy)
    return doc


def spec_from_dict(raw: Mapping[str, Any]) -> TenantSpec:
    """Rebuild an admission spec from :func:`spec_to_dict` output.  Keys
    naming no current field (a document written when the spec still had
    them, e.g. ``memoize``) are ignored, so old logs stay replayable."""
    try:
        doc = {f.name: raw[f.name] for f in fields(TenantSpec)}
        doc["policy"] = policy_from_dict(raw["policy"])
        return TenantSpec(**doc)
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise CheckpointError(
            f"malformed tenant spec document: {exc!r}"
        ) from None


# -- tenant / switch checkpoints ------------------------------------------------------


@dataclass(frozen=True)
class TenantCheckpoint:
    """One tenant's complete serving state, slice-agnostic.

    :meth:`payload` is *the* definition of a tenant's state — what a
    checkpoint record logs, what restore, recovery and migration carry,
    and what TH015
    (:func:`repro.analysis.conformance.diff_tenant_payloads`, the one
    "same state?" predicate, also the live-migration cutover gate)
    compares key by key.  It is flat: the spec's keys beside
    ``smbm_state`` and ``plan_epoch``.  A new state component is one
    payload key plus one export/restore pair on
    :class:`~repro.switch.filter_module.FilterModule`, called from
    ``snapshot_tenant`` / ``restore_tenant`` — nothing else: the diff,
    the gate and the log walk whatever keys are there.  A key beside the
    spec's own fields rides in :attr:`spec`, which ignores it on decode.

    ``spec`` is the :func:`spec_to_dict` document the tenant re-enters
    with: its ``policy`` is the *live* policy (post any hot-swaps on the
    source), so the destination compiles exactly the plan that was
    serving, and its ``columns`` is the *count* of Cell columns, not the
    physical indices — the destination switch allocates its own strip,
    so checkpoints taken on different switches with identical tenant
    state compare equal.

    The policy's cross-packet state is the ``units`` key
    (:meth:`FilterModule.export_units
    <repro.switch.filter_module.FilterModule.export_units>`): the LFSR
    registers, round-robin pointers and weights, and
    :attr:`~repro.core.policy.Policy.feedback` registers.  Only a policy
    with units or feedback writes it, so a stateless payload keeps the
    bytes it had before the key existed; a payload without it (a
    stateless tenant, or one logged before the key existed) restores the
    units from the seed.  The live-migration gate leaves it out of its
    comparison: the source keeps serving, and stepping its units, until
    the cutover commits, and the state moves with the commit
    (:meth:`LiveMigration.complete
    <repro.serving.migration.LiveMigration.complete>`).
    """

    spec: dict[str, Any]
    smbm_state: dict[str, Any]
    plan_epoch: int

    @property
    def units(self) -> dict[str, Any] | None:
        """The ``units`` key, or ``None`` where the payload has none."""
        return self.spec.get("units")

    def payload(self) -> dict[str, Any]:
        return {**self.spec, "smbm_state": self.smbm_state,
                "plan_epoch": self.plan_epoch}

    @classmethod
    def from_payload(cls, raw: Mapping[str, Any]) -> TenantCheckpoint:
        try:
            spec = dict(raw)
            state = dict(spec.pop("smbm_state"))
            # A payload read back from the log has JSON's string dict
            # keys; SMBM row ids are ints again from here on.
            for key in ("rows", "seq"):
                state[key] = {int(rid): v for rid, v in state[key].items()}
            ckpt = cls(smbm_state=state,
                       plan_epoch=int(spec.pop("plan_epoch")), spec=spec)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"malformed tenant checkpoint payload: {exc!r}"
            ) from None
        spec_from_dict(spec)  # prove the spec decodes before anyone trusts it
        return ckpt


@dataclass(frozen=True)
class SwitchCheckpoint:
    """A whole switch instance: shared geometry plus every tenant.

    :meth:`from_payload` takes the args of a ``checkpoint`` WAL record
    as they are and ignores the keys beside the payload (the marker's
    high-water mark and homing state).
    """

    metric_names: tuple[str, ...]
    params: dict[str, int]
    smbm_capacity: int
    tenants: tuple[TenantCheckpoint, ...]

    @classmethod
    def build(
        cls,
        metric_names: tuple[str, ...] | list[str],
        params: PipelineParams,
        smbm_capacity: int,
        tenants: list[TenantCheckpoint] | tuple[TenantCheckpoint, ...],
    ) -> SwitchCheckpoint:
        return cls(
            metric_names=tuple(metric_names),
            params={"n": params.n, "k": params.k, "f": params.f,
                    "chain_length": params.chain_length},
            smbm_capacity=smbm_capacity,
            tenants=tuple(tenants),
        )

    def payload(self) -> dict[str, Any]:
        return {
            "metric_names": list(self.metric_names),
            "params": dict(self.params),
            "smbm_capacity": self.smbm_capacity,
            "tenants": [t.payload() for t in self.tenants],
        }

    @classmethod
    def from_payload(cls, raw: Mapping[str, Any]) -> SwitchCheckpoint:
        try:
            return cls(
                metric_names=tuple(str(m) for m in raw["metric_names"]),
                params={k: int(v) for k, v in raw["params"].items()},
                smbm_capacity=int(raw["smbm_capacity"]),
                tenants=tuple(
                    TenantCheckpoint.from_payload(t) for t in raw["tenants"]
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"malformed switch checkpoint payload: {exc!r}"
            ) from None
