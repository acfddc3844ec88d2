"""The control-op table: what each control op carries and does, stated once.

:data:`CONTROL_OPS` maps an op kind to a :class:`ControlOp` — how its
payload is spelled in a WAL record (``encode`` / ``decode``), what it
does (``apply``), and for an op whose outcome a replay cannot recompute,
the ``gate`` it must pass first.  The live
:class:`~repro.serving.controller.Controller` runs
``apply(homes, tenant, payload)`` and logs ``encode(payload)``;
:func:`~repro.serving.recovery.recover` runs the *same* ``apply`` on
``decode(tenant, record.args)``.  There is no second statement of an
op's effect for the two to disagree about, and
:data:`repro.serving.wal.CONTROL_OP_KINDS` is this table's keys.

Every ``apply`` and ``gate`` is a plain function: the controller's one
worker logs and applies a burst without yielding to the event loop, and
that is what serializes ops — the admission path included — and makes
log order the apply order.  An op that awaited would need a serializer
of its own.

:class:`Homes` is the one homing rule both sides apply through: a
tenant's ops land on its :class:`~repro.serving.migration.LiveMigration`
while it is dual-running (both instances), on the destination once it is
cut over, on the backend otherwise.  Replay cannot reach a destination —
it is another failure domain with its own log — so there a destination
is an :class:`Elsewhere`: ops a migration *also* sends it are dropped on
this side, and an op homed *only* there raises :class:`NotHere`, the one
reason replay skips a record logged after the checkpoint.

Commit-point logging: every op is logged immediately before it applies,
except a gated one.  ``cutover``'s gate (the TH015 conservation check)
runs first and its record is appended only once it passes, between the
gate and the source-side eviction — a durable ``cutover`` record always
means *moved*, and a tripped gate leaves no record at all.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, NamedTuple

from repro.core.policy import policy_from_dict, policy_to_dict
from repro.errors import ConfigurationError
from repro.serving.backend import SwitchBackend, TableWrite
from repro.serving.checkpoint import spec_from_dict, spec_to_dict
from repro.serving.migration import LiveMigration, MigrationState

__all__ = ["CONTROL_OPS", "ControlOp", "Elsewhere", "Homes", "NotHere"]


class Elsewhere:
    """A migration destination as replay sees it: known by name only.
    Whatever a dual-running migration sends it is the destination's own
    log's business, so every call is absorbed."""

    def __init__(self, name: str):
        self.name = name

    def _absorb(self, *args: Any, **kwargs: Any) -> None:
        """Not this log's business."""

    restore_tenant = restore_units = write_batch = hot_swap = _absorb
    unprogram_tenant = _absorb


class NotHere(Exception):
    """Replay only: the op's tenant is homed on an :class:`Elsewhere`, so
    the op applied in the destination's failure domain, not this one."""


class Homes:
    """Where each tenant's ops apply, and the moves that decide it.

    The controller keeps one for its lifetime and :func:`recover` builds
    one over the backend it is rebuilding; :meth:`to_doc` rides in every
    checkpoint marker so the homing state survives with the snapshot.
    """

    def __init__(self, backend: SwitchBackend):
        self.backend = backend
        self.migrations: dict[str, LiveMigration] = {}
        #: Tenants cut over to another instance: in-flight client streams
        #: keep working, re-homed there until the name is admitted here
        #: again.
        self.moved: dict[str, SwitchBackend | Elsewhere] = {}

    def resolve(self, tenant: str) -> SwitchBackend | LiveMigration:
        migration = self.migrations.get(tenant)
        if (migration is not None
                and migration.state is MigrationState.DUAL_RUNNING):
            return migration
        home = self.moved.get(tenant, self.backend)
        if isinstance(home, Elsewhere):
            raise NotHere(tenant)
        return home

    def migration(self, tenant: str) -> LiveMigration:
        if tenant not in self.migrations:
            raise ConfigurationError(
                f"no migration in flight for tenant {tenant!r}")
        return self.migrations[tenant]

    def to_doc(self) -> dict[str, dict[str, str]]:
        return {
            "migrating": {t: m.dest.name for t, m in self.migrations.items()
                          if m.state is MigrationState.DUAL_RUNNING},
            "moved": {t: dest.name for t, dest in self.moved.items()},
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Re-enter the homing state a checkpoint marker carried (absent
        keys: a log written before markers carried it)."""
        for tenant, dest in doc.get("moved", {}).items():
            self.moved[tenant] = Elsewhere(dest)
        for tenant, dest in doc.get("migrating", {}).items():
            _begin_migration(self, tenant, Elsewhere(dest))


class ControlOp(NamedTuple):
    """One row of the table; see the module docstring."""

    apply: Callable[[Homes, str, Any], Any]
    #: The codec defaults to an op that carries no payload.
    encode: Callable[[Any], dict[str, Any]] = lambda _payload: {}
    decode: Callable[[str, dict[str, Any]], Any] = lambda _t, _args: None
    #: Runs live only, after every earlier op on the tenant's queue has
    #: applied; the record is appended once it returns, and its return
    #: value is the op's answer.  Replay never re-runs it: the durable
    #: record is the witness that it passed.
    gate: Callable[[Homes, str, Any], Any] | None = None


def _add_tenant(homes: Homes, tenant: str, spec: Any) -> Any:
    admitted = homes.backend.program_tenant(spec)
    # The name lives here again; a tenant of that name cut over earlier
    # is the destination's business, not this stream's.
    homes.moved.pop(tenant, None)
    return admitted


def _begin_migration(homes: Homes, tenant: str, dest: Any) -> LiveMigration:
    migration = LiveMigration(homes.backend, dest, tenant)
    migration.begin()
    homes.migrations[tenant] = migration
    return migration


def _cutover(homes: Homes, tenant: str, _payload: None) -> None:
    if tenant not in homes.migrations:
        # The gate vouched for a migration in flight, so this is replay
        # and its begin was logged before a checkpoint whose marker predates
        # the homing keys: the move still happened.
        _begin_migration(homes, tenant, Elsewhere("unlogged"))
    migration = homes.migrations.pop(tenant)
    migration.complete()
    homes.moved[tenant] = migration.dest


def _abort_migration(homes: Homes, tenant: str, _payload: None) -> None:
    homes.migration(tenant).abort()
    del homes.migrations[tenant]


#: ``update_resource`` and ``remove_resource``: one row of a table.
_ROW_WRITE = ControlOp(
    encode=TableWrite.to_dict,
    decode=TableWrite.from_dict,
    apply=lambda homes, tenant, write:
        homes.resolve(tenant).write_batch([write]),
)

CONTROL_OPS: dict[str, ControlOp] = {
    "add_tenant": ControlOp(
        encode=lambda spec: {"spec": spec_to_dict(spec)},
        decode=lambda tenant, args: spec_from_dict(args["spec"]),
        apply=_add_tenant,
    ),
    "remove_tenant": ControlOp(
        apply=lambda homes, tenant, _:
            homes.resolve(tenant).unprogram_tenant(tenant),
    ),
    # Payload: the policy.  A durable record rolls forward: replay
    # re-runs the whole compile-beside-and-install sequence through the
    # same gate.  Decode reads only the policy: an older record's
    # retired TH020 flag is dropped and the swap replays permissively.
    "hot_swap": ControlOp(
        encode=lambda policy: {"policy": policy_to_dict(policy)},
        decode=lambda tenant, args: policy_from_dict(args["policy"]),
        apply=lambda homes, tenant, policy:
            homes.resolve(tenant).hot_swap(tenant, policy),
    ),
    "update_resource": _ROW_WRITE,
    "remove_resource": _ROW_WRITE,
    "write_batch": ControlOp(
        encode=lambda writes: {"writes": [w.to_dict() for w in writes]},
        decode=lambda tenant, args: [TableWrite.from_dict(tenant, doc)
                                     for doc in args["writes"]],
        apply=lambda homes, tenant, writes:
            homes.resolve(tenant).write_batch(writes),
    ),
    # Payload: the destination backend (replay: an Elsewhere).  begin()
    # only *reads* the source; the destination's half is in its own log.
    "begin_migration": ControlOp(
        encode=lambda dest: {"dest": dest.name},
        decode=lambda tenant, args: Elsewhere(str(args["dest"])),
        apply=_begin_migration,
    ),
    "cutover": ControlOp(
        apply=_cutover,
        gate=lambda homes, tenant, _: homes.migration(tenant).gate(),
    ),
    "abort_migration": ControlOp(apply=_abort_migration),
}
