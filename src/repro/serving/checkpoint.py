"""Versioned, checksummed checkpoints of serving state.

A checkpoint captures everything needed to recreate a tenant's serving
state on another switch instance: the admission spec, the live policy
(serialized as a DAG document — it may differ from the admitted one after
hot-swaps), the SMBM state (bit-faithful: stored words, FIFO enqueue
order, version counter), and the plan-epoch watermark.  A
:class:`SwitchCheckpoint` bundles one :class:`TenantCheckpoint` per
admitted tenant plus the shared pipeline geometry, so a whole switch can
be rebuilt from disk.

The on-disk format is defensive: a magic string, an explicit format
version, and a SHA-256 checksum over the canonically-encoded payload.
:func:`load_checkpoint` raises :class:`~repro.errors.CheckpointError` for
anything it cannot *prove* trustworthy — unknown magic or format,
truncated or non-JSON bytes, checksum mismatch, structurally invalid
payload — never a half-restored switch.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.core.kufpu import KUnaryConfig
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Binary,
    Conditional,
    Node,
    Policy,
    TableRef,
    Unary,
    postorder,
)
from repro.errors import CheckpointError, ConfigurationError
from repro.serving._atomic import atomic_write_text, canonical_bytes, checksum_hex
from repro.tenancy.manager import TenantSpec

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_FORMAT",
    "TenantCheckpoint",
    "SwitchCheckpoint",
    "policy_to_dict",
    "policy_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "thanos-checkpoint"
#: Bump on any incompatible payload change; loaders reject what they do
#: not understand rather than guessing.
CHECKPOINT_FORMAT = 1


# -- policy (de)serialization ---------------------------------------------------------


def policy_to_dict(policy: Policy) -> dict[str, Any]:
    """Serialize a policy DAG to a JSON-safe document.

    Nodes are emitted in deterministic post-order with local indices, so
    shared sub-DAGs (the same node object reachable twice — shared fan-out)
    survive the round trip as shared references, not duplicated operators:
    structure, not just semantics, is preserved.  ``feedback`` (input line
    -> index of the bound node) is present only when the policy binds one,
    so a policy without feedback keeps the bytes it always had.
    """
    order = postorder(policy.root)
    index = {node.node_id: i for i, node in enumerate(order)}
    nodes: list[dict[str, Any]] = []
    for node in order:
        children = [index[child.node_id] for child in node.children()]
        if isinstance(node, TableRef):
            doc: dict[str, Any] = {"type": "table", "input": node.input_index}
        elif isinstance(node, Unary):
            cfg = node.config
            doc = {
                "type": "unary",
                "op": cfg.opcode.value,
                "k": cfg.k,
                "attr": cfg.attr,
                "rel": None if cfg.rel_op is None else cfg.rel_op.value,
                "val": cfg.val,
                "child": children[0],
            }
        elif isinstance(node, Binary):
            doc = {
                "type": "binary",
                "op": node.opcode.value,
                "left": children[0],
                "right": children[1],
                "choice": node.choice,
            }
        elif isinstance(node, Conditional):
            doc = {
                "type": "conditional",
                "primary": children[0],
                "fallback": children[1],
            }
        else:  # pragma: no cover - exhaustive over the node algebra
            raise ConfigurationError(f"unserializable node type {type(node)!r}")
        nodes.append(doc)
    doc = {"name": policy.name, "root": len(nodes) - 1, "nodes": nodes}
    if policy.feedback:
        doc["feedback"] = {str(line): index[bound.node_id]
                           for line, bound in policy.feedback.items()}
    return doc


def policy_from_dict(doc: Mapping[str, Any]) -> Policy:
    """Rebuild a policy from :func:`policy_to_dict` output."""
    try:
        raw_nodes = doc["nodes"]
        root_index = doc["root"]
        name = doc["name"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed policy document: {exc!r}") from None
    built: list[Node] = []

    def ref(i: object) -> Node:
        if not isinstance(i, int) or not 0 <= i < len(built):
            raise CheckpointError(
                f"policy document node reference {i!r} is not a prior node"
            )
        return built[i]

    try:
        for raw in raw_nodes:
            kind = raw["type"]
            if kind == "table":
                node: Node = TableRef(input_index=raw["input"])
            elif kind == "unary":
                node = Unary(
                    config=KUnaryConfig(
                        UnaryOp(raw["op"]),
                        k=raw["k"],
                        attr=raw["attr"],
                        rel_op=None if raw["rel"] is None else RelOp(raw["rel"]),
                        val=raw["val"],
                    ),
                    child=ref(raw["child"]),
                )
            elif kind == "binary":
                node = Binary(
                    opcode=BinaryOp(raw["op"]),
                    left=ref(raw["left"]),
                    right=ref(raw["right"]),
                    choice=raw["choice"],
                )
            elif kind == "conditional":
                node = Conditional(
                    primary=ref(raw["primary"]), fallback=ref(raw["fallback"])
                )
            else:
                raise CheckpointError(
                    f"policy document has unknown node type {kind!r}"
                )
            built.append(node)
        feedback = {int(line): ref(i)
                    for line, i in doc.get("feedback", {}).items()}
        return Policy(ref(root_index), name=str(name), feedback=feedback)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            ConfigurationError) as exc:
        raise CheckpointError(f"malformed policy document: {exc!r}") from None


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
    checkpoint file stores, what restore, recovery and migration carry,
    and what TH015
    (:func:`repro.analysis.conformance.diff_tenant_payloads`, the one
    "same state?" predicate, also the live-migration cutover gate)
    compares key by key.  It is flat: the spec's keys beside
    ``smbm_state`` and ``plan_epoch``.  A new state component is one
    payload key plus one export/restore pair on
    :class:`~repro.switch.filter_module.FilterModule`, called from
    ``snapshot_tenant`` / ``restore_tenant`` — nothing else: the diff,
    the gate and the file format walk whatever keys are there.

    ``spec`` is the :func:`spec_to_dict` document the tenant re-enters
    with: its ``policy`` is the *live* policy (post any hot-swaps on the
    source), so the destination compiles exactly the plan that was
    serving, and its ``columns`` is the *count* of Cell columns, not the
    physical indices — the destination switch allocates its own strip,
    so checkpoints taken on different switches with identical tenant
    state compare equal.

    *Not* captured yet: the cross-packet state of the compiled policy —
    LFSR registers, round-robin pointers and weights, and
    :attr:`~repro.core.policy.Policy.feedback` registers.  A restored,
    recovered or migrated stateful tenant restarts them from the seed and
    from zeros (ROADMAP item 4(c); the ``STATEFUL_4C`` cases in
    ``tests/serving`` are its strict-xfail landing pad).
    """

    spec: dict[str, Any]
    smbm_state: dict[str, Any]
    plan_epoch: int

    def payload(self) -> dict[str, Any]:
        return {**self.spec, "smbm_state": self.smbm_state,
                "plan_epoch": self.plan_epoch}

    @classmethod
    def from_payload(cls, raw: Mapping[str, Any]) -> TenantCheckpoint:
        try:
            spec = dict(raw)
            ckpt = cls(smbm_state=dict(spec.pop("smbm_state")),
                       plan_epoch=int(spec.pop("plan_epoch")), spec=spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed tenant checkpoint payload: {exc!r}"
            ) from None
        spec_from_dict(spec)  # prove the spec decodes before anyone trusts it
        return ckpt


@dataclass(frozen=True)
class SwitchCheckpoint:
    """A whole switch instance: shared geometry plus every tenant."""

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

    def pipeline_params(self) -> PipelineParams:
        return PipelineParams(**self.params)

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
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed switch checkpoint payload: {exc!r}"
            ) from None


# -- on-disk format -------------------------------------------------------------------


# The canonical encoding + checksum the on-disk format rests on is shared
# with the write-ahead log (repro.serving._atomic); re-exported here under
# the historical name because tests and callers pattern-match on it.
_canonical_bytes = canonical_bytes


def _reintify_smbm_state(state: dict[str, Any]) -> dict[str, Any]:
    """Undo JSON's string-keyed dicts inside an SMBM state document."""
    state = dict(state)
    for key in ("rows", "seq"):
        if key in state and isinstance(state[key], dict):
            state[key] = {int(k): v for k, v in state[key].items()}
    if isinstance(state.get("rows"), dict):
        state["rows"] = {
            rid: dict(row) for rid, row in state["rows"].items()
        }
    if "metric_names" in state:
        state["metric_names"] = list(state["metric_names"])
    return state


def save_checkpoint(
    path: str | pathlib.Path, checkpoint: SwitchCheckpoint
) -> pathlib.Path:
    """Write a checkpoint file: magic + format + payload + SHA-256.

    The write goes through a same-directory temporary file and an atomic
    rename, so a crash mid-write can leave a stale checkpoint or none —
    never a truncated one that parses.
    """
    path = pathlib.Path(path)
    payload = checkpoint.payload()
    body = {
        "magic": CHECKPOINT_MAGIC,
        "format": CHECKPOINT_FORMAT,
        "sha256": checksum_hex(_canonical_bytes(payload)),
        "payload": payload,
    }
    return atomic_write_text(path, json.dumps(body, sort_keys=True, indent=1))


def load_checkpoint(path: str | pathlib.Path) -> SwitchCheckpoint:
    """Read and verify a checkpoint file, or raise CheckpointError."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint: {exc}", path=str(path)
        ) from None
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint is not valid JSON (truncated?): {exc}",
            path=str(path),
        ) from None
    if not isinstance(body, dict) or body.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"not a thanos checkpoint (magic={body.get('magic')!r} "
            f"if it parsed at all)" if isinstance(body, dict)
            else "not a thanos checkpoint (top level is not an object)",
            path=str(path),
        )
    if body.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {body.get('format')!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})",
            path=str(path),
        )
    payload = body.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint payload missing", path=str(path))
    digest = checksum_hex(_canonical_bytes(payload))
    if digest != body.get("sha256"):
        raise CheckpointError(
            f"checkpoint checksum mismatch: stored {body.get('sha256')!r}, "
            f"computed {digest!r} — the file is corrupt",
            path=str(path),
        )
    checkpoint = SwitchCheckpoint.from_payload(payload)
    # JSON round-trip turned the SMBM row/seq dict keys into strings;
    # normalise here so restore sites see the exact export_state() shape.
    tenants = tuple(
        replace(t, smbm_state=_reintify_smbm_state(t.smbm_state))
        for t in checkpoint.tenants
    )
    return SwitchCheckpoint(
        metric_names=checkpoint.metric_names,
        params=checkpoint.params,
        smbm_capacity=checkpoint.smbm_capacity,
        tenants=tenants,
    )
