"""The integrated Thanos switch (section 3, Figure 8).

* :class:`~repro.switch.filter_module.FilterModule` — SMBM + compiled filter
  pipeline, triggered per packet, writing its result to packet metadata,
  with the policy placed on the Cells of its slice (``module.compiled``);
* :class:`~repro.switch.thanos_switch.ThanosSwitch` — the filter stage every
  tenant admitted on a :class:`~repro.tenancy.manager.TenantManager`
  shares: it routes each probe and filter request to the module of the
  tenant its ``META_TENANT`` label names;
* :class:`~repro.switch.replication.ReplicatedSMBM` — synchronised SMBM
  replicas for multi-pipelined data planes (section 5.1.5), refusing a
  cycle with write contention.
"""

from repro.switch.filter_module import FilterModule
from repro.switch.thanos_switch import ThanosSwitch
from repro.switch.replication import ReplicatedSMBM, WriteContention

__all__ = ["FilterModule", "ThanosSwitch", "ReplicatedSMBM", "WriteContention"]
