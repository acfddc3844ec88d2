"""SMBM replication across multi-pipelined data planes (section 5.1.5).

Modern switch chips run several parallel packet pipelines; Thanos places one
filter module per pipeline and **synchronously applies every write to every
replica** instead of re-circulating probe packets.  The flip-flop design
lets updates issued from different pipelines land in parallel — *unless two
pipelines update the same resource entry in the same clock cycle*, which is
a write contention.

The paper avoids contention operationally: probes for the same resource
always follow one network path, hence arrive on one pipeline.
:class:`ReplicatedSMBM` models the synchronous-update design and refuses a
contended cycle: :meth:`~ReplicatedSMBM.commit_cycle` raises one
:class:`WriteContention` naming every clashing pipeline pair, and **no**
staged write of the cycle is applied.  The commit is atomic: either every
replica sees the cycle's writes or none does, and the staged set is always
cleared, so the structure stays usable after the exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError, FaultError, IntegrityError, ReproError

__all__ = ["WriteContention", "ReplicatedSMBM"]


class WriteContention(FaultError):
    """Pipelines updated the same SMBM entry in the same cycle.

    ``pairs`` names every clash of the refused cycle as a sorted tuple of
    ``(resource_id, pipeline_a, pipeline_b)`` with ``pipeline_a <
    pipeline_b``; three writers to one resource are three pairs.
    """

    def __init__(self, message: str, *,
                 pairs: Iterable[tuple[int, int, int]], **context):
        context.setdefault("component", "replicated_smbm")
        super().__init__(message, **context)
        self.pairs = tuple(pairs)


@dataclass(frozen=True)
class _PendingWrite:
    pipeline: int
    kind: str
    resource_id: int
    metrics: dict[str, int] | None


class ReplicatedSMBM:
    """N synchronised SMBM replicas, one per packet pipeline.

    Writes are staged per cycle with :meth:`issue_update` /
    :meth:`issue_delete` (tagged by originating pipeline) and applied to all
    replicas at :meth:`commit_cycle`.  Writes to one resource id from two
    pipelines in one cycle refuse the whole cycle with
    :class:`WriteContention`.  ``sanitize=True`` also asserts replica
    synchrony after every successful commit.
    """

    def __init__(self, pipelines: int, capacity: int, metric_names: Sequence[str],
                 *, sanitize: bool = False):
        if pipelines < 1:
            raise ReproError(f"need at least one pipeline, got {pipelines}")
        self._replicas = [
            SMBM(capacity, metric_names, sanitize=sanitize)
            for _ in range(pipelines)
        ]
        self._pending: list[_PendingWrite] = []
        self._cycles = 0
        self._sanitize = sanitize
        registry = obs.get_registry()
        self._obs_contentions = registry.counter(
            "replica_write_contentions_total",
            help="same-resource same-cycle pipeline pairs in refused cycles",
        )

    @property
    def pipelines(self) -> int:
        return len(self._replicas)

    @property
    def cycles(self) -> int:
        return self._cycles

    @property
    def sanitize(self) -> bool:
        """True when per-commit invariant checking is armed."""
        return self._sanitize

    def replica(self, pipeline: int) -> SMBM:
        """The replica read by a given pipeline's filter module."""
        return self._replicas[pipeline]

    def issue_update(
        self, pipeline: int, resource_id: int, metrics: Mapping[str, int]
    ) -> None:
        """Stage a delete+add update from one pipeline for this cycle."""
        self._pending.append(
            _PendingWrite(pipeline, "update", resource_id, dict(metrics))
        )

    def issue_delete(self, pipeline: int, resource_id: int) -> None:
        self._pending.append(_PendingWrite(pipeline, "delete", resource_id, None))

    def commit_cycle(self) -> None:
        """Apply this cycle's writes synchronously to every replica.

        Exception-safe: contention is detected over the *whole* staged set
        before any replica is touched, and the staged set is cleared no
        matter how the commit ends — a raised :class:`WriteContention` (or a
        mid-apply :class:`~repro.errors.CapacityError`) never leaves stale
        writes behind to replay into a later cycle.  A pipeline writing one
        resource twice in a cycle is not contention: its later write wins.
        """
        self._cycles += 1
        try:
            by_resource: dict[int, _PendingWrite] = {}
            writers: dict[int, set[int]] = {}
            for write in self._pending:
                by_resource[write.resource_id] = write
                writers.setdefault(write.resource_id, set()).add(write.pipeline)
            pairs = sorted(
                (rid, a, b)
                for rid, pipelines in writers.items()
                for a, b in combinations(sorted(pipelines), 2)
            )
            if pairs:
                self._obs_contentions.inc(len(pairs))
                clashes = "; ".join(
                    f"pipelines {a} and {b} on resource {rid}"
                    for rid, a, b in pairs
                )
                raise WriteContention(
                    f"cycle {self._cycles} refused, same-resource writes "
                    f"from different pipelines: {clashes}; the paper "
                    "precludes this by pinning a resource's probes to one "
                    "network path",
                    pairs=pairs, cycle=self._cycles, resource=pairs[0][0],
                )
            # SMBM.update is all-or-nothing and the replicas are identical,
            # so a write refused by the first replica touched none.
            for write in by_resource.values():
                for replica in self._replicas:
                    if write.kind == "delete":
                        replica.delete(write.resource_id)
                    else:
                        assert write.metrics is not None
                        replica.update(write.resource_id, write.metrics)
            if self._sanitize and by_resource:
                self.check_synchronised()
        finally:
            self._pending.clear()

    # -- checkpoint / restore ----------------------------------------------------

    def export_state(self) -> dict[str, object]:
        """Bit-faithful export of every replica plus the cycle counter.

        Replicas are exported individually (not deduplicated to one copy),
        so a restore reproduces exactly what each pipeline read.
        """
        return {
            "pipelines": len(self._replicas),
            "replicas": [r.export_state() for r in self._replicas],
            "cycles": self._cycles,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore a state produced by :meth:`export_state`, in place.

        The pipeline count must match; any writes staged but not committed
        are discarded (a checkpoint is only taken on a commit boundary).
        Keys it does not read, such as a counter an older export carried,
        are dropped.
        """
        replicas = state.get("replicas")
        if (not isinstance(replicas, list)
                or len(replicas) != len(self._replicas)):
            raise ConfigurationError(
                f"checkpoint holds {len(replicas) if isinstance(replicas, list) else '?'} "
                f"replicas, structure has {len(self._replicas)} pipelines"
            )
        for replica, sub in zip(self._replicas, replicas):
            replica.restore_state(sub)
        self._cycles = int(state["cycles"])  # type: ignore[arg-type]
        self._pending.clear()

    def check_synchronised(self) -> None:
        """Assert all replicas hold identical contents."""
        reference = self._replicas[0].snapshot()
        for i, replica in enumerate(self._replicas[1:], start=1):
            if replica.snapshot() != reference:
                raise IntegrityError(
                    f"replica {i} diverged from replica 0",
                    component="replicated_smbm", cycle=self._cycles, resource=i,
                )
