"""Exception hierarchy shared across the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(ReproError):
    """A hardware structure was asked to hold more state than it has."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class CompilationError(ReproError):
    """A filter policy cannot be mapped onto the target pipeline.

    Carries the same structured context the static verifier's findings use
    (see :mod:`repro.analysis.findings`), so compile-time failures and
    verification rejections share one diagnostic format: ``rule`` is the
    stable ``THnnn`` rule id, ``stage`` (1-based) and ``cell`` locate the
    physical resource that ran out or was mis-wired, and ``operator``
    describes the policy operator being placed.  All fields are optional —
    raise sites fill in what they know.
    """

    def __init__(
        self,
        message: str,
        *,
        rule: str | None = None,
        stage: int | None = None,
        cell: int | None = None,
        operator: str | None = None,
    ):
        super().__init__(message)
        self.rule = rule
        self.stage = stage
        self.cell = cell
        self.operator = operator

    def context(self) -> dict[str, int | str | None]:
        """The structured context as a dict (for logs and assertions)."""
        return {
            "rule": self.rule,
            "stage": self.stage,
            "cell": self.cell,
            "operator": self.operator,
        }

    def __str__(self) -> str:
        base = super().__str__()
        parts = []
        if self.rule is not None:
            parts.append(f"rule={self.rule}")
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.cell is not None:
            parts.append(f"cell={self.cell}")
        if self.operator is not None:
            parts.append(f"operator={self.operator}")
        return f"{base} [{', '.join(parts)}]" if parts else base


class RoutingError(ReproError):
    """A switching network could not realise the requested connection set.

    Also raised by multi-tenant demux when packets cannot be routed to an
    owning tenant.  Batch demux reports *every* offending label in one
    raise, not just the first one found: ``unknown`` lists each distinct
    ``META_TENANT`` label with no admitted tenant, ordered by ``str``
    (a client may send a label of any type), and
    ``unlabelled`` counts requesting packets carrying no label at all, so
    callers can assert on the full violation set rather than fixing one
    label per exception.
    """

    def __init__(
        self,
        message: str,
        *,
        unknown: "tuple[object, ...] | list[object]" = (),
        unlabelled: int = 0,
    ):
        super().__init__(message)
        self.unknown = tuple(unknown)
        self.unlabelled = unlabelled


class CheckpointError(ReproError):
    """A serving checkpoint could not be written, read, or trusted.

    Raised for unreadable/truncated files, unknown magic or format
    versions, checksum mismatches, and payloads that fail structural
    validation.  ``path`` locates the offending file when one is involved.
    """

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.path = path


class WalError(ReproError):
    """A write-ahead log could not be written, read, or trusted.

    The WAL sibling of :class:`CheckpointError`: raised for unreadable
    files, unknown magic or format versions, and records that fail
    structural validation after their frame checksum verified.  (A frame
    that fails its checksum is *not* an error — it is a torn tail,
    truncated and counted by recovery.)  ``path`` locates the offending
    file when one is involved.
    """

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.path = path


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class FaultError(ReproError):
    """Base of the fault / self-healing branch of the hierarchy.

    Carries structured context so detection and recovery machinery (and
    tests) can reason about *where* a fault bit: the failing ``component``
    (e.g. ``"cell"``, ``"smbm"``, ``"replicated_smbm"``, ``"graphdb"``), the
    ``cycle`` (or simulated time) it was observed at, and the ``resource``
    (row id, server id, link name, ...) it touched.  All context fields are
    optional — raise sites fill in what they know.
    """

    def __init__(
        self,
        message: str,
        *,
        component: str | None = None,
        cycle: int | float | None = None,
        resource: int | str | None = None,
    ):
        super().__init__(message)
        self.component = component
        self.cycle = cycle
        self.resource = resource

    def context(self) -> dict[str, int | float | str | None]:
        """The structured context as a dict (for logs and assertions)."""
        return {
            "component": self.component,
            "cycle": self.cycle,
            "resource": self.resource,
        }


class IntegrityError(FaultError):
    """Stored state failed a parity/ECC or cross-replica consistency check."""


class RetryExhausted(FaultError):
    """A probed server stayed unreachable past its retry budget.

    Raised by the graph-database cluster's probe loop, which retries a
    lost probe under a :class:`~repro.faults.retry.RetryPolicy` before
    evicting the server.  The switch control plane never retries: an op
    commits once or is refused.  ``attempts`` records how many tries were
    made before giving up.
    """

    def __init__(self, message: str, *, attempts: int | None = None, **context):
        super().__init__(message, **context)
        self.attempts = attempts


class CellFault(FaultError):
    """A physical Cell failed while evaluating a packet (dead unit).

    ``stage`` (1-based) and ``index`` locate the Cell inside its pipeline so
    fail-around recompilation knows which physical resource to avoid.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: int | None = None,
        index: int | None = None,
        **context,
    ):
        context.setdefault("component", "cell")
        super().__init__(message, **context)
        self.stage = stage
        self.index = index
