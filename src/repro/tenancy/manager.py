"""Multi-tenant virtualization of one physical filter pipeline.

One Thanos switch has one Cell pipeline and one SMBM; virtualization
means admitting several tenants' policies onto that single physical
substrate with *static* isolation guarantees, in the spirit of compiler
-enforced P4 program slicing: every guarantee is established at admission
/ compile time, so the per-packet fast path carries no runtime isolation
checks at all.

The slicing model is **vertical strips**: a tenant owns a set of Cell
*columns* — column ``c`` is the Cell at index ``c`` of every stage plus
the two inter-stage lines it drives (``2c`` and ``2c+1``) and the
matching pipeline input lines.  Strips are closed under the feed-forward
wiring rule, so a plan confined to its columns can never read or write a
neighbour's state.  Confinement is enforced three times over:

1. the tenant's policy is compiled with every foreign Cell in
   ``dead_cells`` and its inputs restricted to the strip's lines
   (``input_lines``) — the compiler physically cannot place an operator
   or a tap outside the slice;
2. the emitted configuration is re-checked by
   :meth:`~repro.analysis.verifier.PlanVerifier.verify_slice`
   (TH013 QuotaExceeded / TH014 CrossTenantWiring), as defense in depth
   against compiler bugs;
3. each tenant's resource table is a separate SMBM sized exactly to its
   row quota, so a table write cannot even name a foreign row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import obs
from repro.analysis.findings import Report
from repro.analysis.symbolic import SemanticAnalysis, tenant_overlap_report
from repro.analysis.verifier import PlanVerifier, TableSchema, TenantSlice
from repro.core.compiler import CompiledPolicy
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy
from repro.errors import CompilationError, ConfigurationError
from repro.switch.filter_module import FilterModule

__all__ = ["TenantSpec", "Tenant", "TenantManager"]


@dataclass(frozen=True)
class TenantSpec:
    """What a tenant asks for at admission time.

    ``columns`` is the number of Cell columns requested (the compute
    quota's physical shape); ``smbm_quota`` the number of resource-table
    rows; ``cell_quota`` optionally bounds *occupied* Cells below the
    strip's natural capacity of ``k * columns``.  The remaining flags are
    passed through to the tenant's :class:`FilterModule`, except
    ``codegen``: accepted and ignored (every stateless plan is served by
    its kernel), and still persisted, so logged and checkpointed specs
    keep their bytes.
    """

    name: str
    policy: Policy
    smbm_quota: int
    columns: int = 1
    cell_quota: int | None = None
    lfsr_seed: int = 1
    sanitize: bool = False
    codegen: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.columns < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: columns must be positive, "
                f"got {self.columns}"
            )
        if self.smbm_quota < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: smbm_quota must be positive, "
                f"got {self.smbm_quota}"
            )


class Tenant:
    """One admitted tenant: its spec, its slice of the physical pipeline,
    and the filter module serving its traffic."""

    def __init__(self, spec: TenantSpec, tenant_slice: TenantSlice,
                 module: FilterModule):
        self._spec = spec
        self._slice = tenant_slice
        self._module = module

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def spec(self) -> TenantSpec:
        return self._spec

    @property
    def slice(self) -> TenantSlice:
        """The static share of the pipeline this tenant was admitted on."""
        return self._slice

    @property
    def module(self) -> FilterModule:
        """The filter module serving this tenant's packets."""
        return self._module

    @property
    def columns(self) -> frozenset[int]:
        return self._slice.columns

    @property
    def plan_epoch(self) -> int:
        """Plan generation: 0 at admission, +1 per hot-swap."""
        return self._module.plan_epoch

    def __repr__(self) -> str:
        return (f"Tenant({self.name!r}, columns={sorted(self.columns)}, "
                f"smbm_quota={self._slice.smbm_quota}, "
                f"epoch={self.plan_epoch})")


class TenantManager:
    """Admission control and lifecycle for tenants sharing one pipeline.

    The manager owns the physical budget: ``params.cells_per_stage``
    Cell columns and ``smbm_capacity`` total resource-table rows.  Every
    admission allocates columns from the free pool and rows from the
    remaining table budget; asking for more than is free is a *static*
    TH013 QuotaExceeded error — nothing is provisioned, nothing running
    is perturbed.

    A successful :meth:`admit` returns a live :class:`Tenant` whose plan
    provably (TH013/TH014-clean) stays inside its slice.
    :meth:`hot_swap` replaces one tenant's policy hitlessly: the
    replacement compiles and verifies *beside* the live plan and flips in
    atomically on an SMBM version boundary (see
    :meth:`FilterModule.hot_swap`); a replacement with a semantic finding
    or one that escapes the slice is rejected at the gate with the live
    plan untouched.
    """

    def __init__(
        self,
        metric_names: Sequence[str],
        params: PipelineParams | None = None,
        *,
        smbm_capacity: int = 64,
    ):
        if smbm_capacity < 1:
            raise ConfigurationError(
                f"smbm_capacity must be positive, got {smbm_capacity}"
            )
        self._params = params if params is not None else PipelineParams()
        self._metric_names = tuple(metric_names)
        self._smbm_capacity = smbm_capacity
        self._free_columns = set(range(self._params.cells_per_stage))
        self._tenants: dict[str, Tenant] = {}
        registry = obs.get_registry()
        self._obs_tenants = registry.gauge(
            "tenants_admitted", {},
            help="tenants currently admitted on the shared pipeline",
        )
        self._obs_admissions = registry.counter(
            "tenant_admissions_total", {"outcome": "admitted"},
            help="successful tenant admissions",
        )
        self._obs_rejections = registry.counter(
            "tenant_admissions_total", {"outcome": "rejected"},
            help="admissions rejected by quota or slice verification",
        )

    # -- physical budget ---------------------------------------------------------------

    @property
    def params(self) -> PipelineParams:
        return self._params

    @property
    def metric_names(self) -> tuple[str, ...]:
        """The shared metric schema: tenants slice table *rows*, not
        columns, so one probe codec serves every tenant."""
        return self._metric_names

    @property
    def smbm_capacity(self) -> int:
        """Total physical resource-table rows across all tenants."""
        return self._smbm_capacity

    @property
    def free_columns(self) -> frozenset[int]:
        """Cell columns not allocated to any tenant."""
        return frozenset(self._free_columns)

    @property
    def free_smbm_rows(self) -> int:
        """Resource-table rows not committed to any tenant's quota."""
        committed = sum(
            t.slice.smbm_quota for t in self._tenants.values()
        )
        return self._smbm_capacity - committed

    # -- tenant lookup -----------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    def get(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise ConfigurationError(
                f"no admitted tenant {name!r}; admitted: "
                f"{sorted(self._tenants)}"
            ) from None

    # -- admission ---------------------------------------------------------------------

    def _admission_report(self, spec: TenantSpec) -> Report:
        """The static TH013 admission check: would this spec oversubscribe
        the physical pipeline?"""
        report = Report(subject=f"admission of tenant {spec.name!r}")
        if spec.columns > len(self._free_columns):
            report.add(
                "TH013",
                f"tenant {spec.name!r} asks for {spec.columns} Cell "
                f"columns but only {len(self._free_columns)} of "
                f"{self._params.cells_per_stage} are free",
            )
        if spec.smbm_quota > self.free_smbm_rows:
            report.add(
                "TH013",
                f"tenant {spec.name!r} asks for {spec.smbm_quota} SMBM "
                f"rows but only {self.free_smbm_rows} of "
                f"{self._smbm_capacity} are uncommitted",
            )
        strip_cells = self._params.k * spec.columns
        if spec.cell_quota is not None and spec.cell_quota > strip_cells:
            report.add(
                "TH013",
                f"tenant {spec.name!r} cell_quota {spec.cell_quota} "
                f"exceeds its strip's {strip_cells} physical Cells "
                f"({spec.columns} columns x {self._params.k} stages)",
            )
        return report

    def _verifier_for(self, spec: TenantSpec) -> PlanVerifier:
        return PlanVerifier(
            self._params,
            schema=TableSchema(spec.smbm_quota, self._metric_names),
        )

    def check_admission(self, spec: TenantSpec) -> Report:
        """Dry-run admission: the TH013 report, without provisioning."""
        if spec.name in self._tenants:
            report = Report(subject=f"admission of tenant {spec.name!r}")
            report.add(
                "TH013", f"tenant {spec.name!r} is already admitted"
            )
            return report
        return self._admission_report(spec)

    def admit(self, spec: TenantSpec) -> Tenant:
        """Admit a tenant: allocate its slice, compile its policy confined
        to the slice, and verify the result (TH013/TH014).

        Raises :class:`~repro.errors.CompilationError` carrying the rule
        id when admission would oversubscribe the pipeline (TH013) or the
        compiled plan fails slice verification; in either case nothing is
        provisioned.
        """
        report = self.check_admission(spec)
        if not report.ok:
            self._obs_rejections.inc()
            report.raise_if_errors()
        columns = frozenset(sorted(self._free_columns)[: spec.columns])
        tenant_slice = TenantSlice(
            columns=columns,
            smbm_quota=spec.smbm_quota,
            cell_quota=spec.cell_quota,
        )
        try:
            module = FilterModule(
                spec.smbm_quota,
                self._metric_names,
                spec.policy,
                self._params,
                lfsr_seed=spec.lfsr_seed,
                sanitize=spec.sanitize,
                tenant=spec.name,
                reserved_cells=tenant_slice.reserved_cells(self._params),
                input_lines=tenant_slice.lines,
            )
            self._verify_slice(spec, tenant_slice, module.compiled)
        except Exception:
            self._obs_rejections.inc()
            raise
        # TH021: does the newcomer's admitted match region collide with a
        # sitting tenant's?  Overlap is legal (tenants may deliberately
        # watch the same rows) but worth surfacing — it is how one
        # tenant's "drain backend 7" fight with another's "prefer backend
        # 7" starts.  Warnings only: counted, never rejecting.  Only the
        # newcomer's pairs are new, and every region was analysed when its
        # policy was programmed: admission itself analyses nothing.
        overlaps = tenant_overlap_report(
            spec.name, module.analysis.root_region,
            [(t.name, t.module.analysis.root_region)
             for t in self._tenants.values()],
            subject=f"admission of tenant {spec.name!r}",
        )
        overlaps.emit()
        tenant = Tenant(spec, tenant_slice, module)
        self._tenants[spec.name] = tenant
        self._free_columns -= columns
        self._obs_admissions.inc()
        self._obs_tenants.set(len(self._tenants))
        return tenant

    def _verify_slice(self, spec: TenantSpec, tenant_slice: TenantSlice,
                      compiled: CompiledPolicy) -> None:
        """Defense in depth over the emitted configuration: the compile was
        already confined, but the verdict that counts is the verifier's."""
        report = self._verifier_for(spec).verify_slice(compiled, tenant_slice)
        report.raise_if_errors()

    def evict(self, name: str) -> None:
        """Remove a tenant, returning its columns and rows to the pools.

        The tenant's module (and its SMBM) is simply dropped: nothing it
        owned is referenced by any other tenant, which is the point of
        the slicing model.
        """
        tenant = self.get(name)
        del self._tenants[name]
        self._free_columns |= tenant.columns
        self._obs_tenants.set(len(self._tenants))

    # -- policy lifecycle --------------------------------------------------------------

    def hot_swap(self, name: str, policy: Policy) -> int:
        """Hitlessly replace one tenant's policy.

        The replacement is compiled and analysed beside the live plan,
        confined to the same slice, then vetted at the flip gate: any
        semantic finding (the TH017–TH019 lints, escalated to errors — a
        policy with a provably-dead region must not go live) or a plan
        that would escape the slice (TH013/TH014) aborts the swap with the
        live plan still serving.  Returns the tenant's new plan epoch.
        """
        tenant = self.get(name)

        def gate(compiled: CompiledPolicy, analysis: SemanticAnalysis) -> None:
            report = analysis.report
            if not report.clean:
                report.emit()
                first = report.findings[0]
                detail = "; ".join(f.format() for f in report.findings)
                raise CompilationError(
                    f"semantic verification failed for hot-swap of tenant "
                    f"{name!r}: {detail}",
                    rule=first.rule, operator=first.operator,
                )
            self._verify_slice(tenant.spec, tenant.slice, compiled)

        return tenant.module.hot_swap(policy, gate=gate)
