"""The Xen virtualization substrate.

This subpackage simulates the paper's testbed: a XenServer host with a
driver domain (Dom0), a hypervisor running the credit scheduler, guest
VMs (DomUs), a striped virtual disk array and a Gigabit NIC.  See
DESIGN.md section 4 for the calibration anchors tying the model to the
paper's measurements.

Typical use::

    from repro.sim import Simulator
    from repro.xen import PhysicalMachine, VMSpec

    sim = Simulator(seed=42)
    pm = PhysicalMachine(sim, name="pm1")
    vm = pm.create_vm(VMSpec(name="vm1"))
    vm.demand.cpu_pct = 60.0
    pm.start()
    sim.run_until(120.0)
    snap = pm.snapshot()
    print(snap.dom0_cpu_pct, snap.hypervisor_cpu_pct)
"""

from repro.xen.accounting import UsageMeter, UsageRecord
from repro.xen.calibration import DEFAULT_CALIBRATION, XenCalibration
from repro.xen.devices import PhysicalNic, VirtualDiskArray
from repro.xen.dom0 import Dom0
from repro.xen.hypervisor import Hypervisor
from repro.xen.machine import (
    DEFAULT_QUANTUM,
    MachineSnapshot,
    PhysicalMachine,
    VmUtilization,
)
from repro.xen.network import Flow, external_host
from repro.xen.scheduler import (
    CreditScheduler,
    fair_share,
    weighted_water_fill,
)
from repro.xen.specs import MachineSpec, VMSpec, paper_machine_spec, paper_vm_spec
from repro.xen.vm import GuestVM, ResourceDemand, ResourceGrant

__all__ = [
    "DEFAULT_CALIBRATION",
    "DEFAULT_QUANTUM",
    "CreditScheduler",
    "Dom0",
    "Flow",
    "GuestVM",
    "Hypervisor",
    "MachineSnapshot",
    "MachineSpec",
    "PhysicalMachine",
    "PhysicalNic",
    "ResourceDemand",
    "ResourceGrant",
    "UsageMeter",
    "UsageRecord",
    "VMSpec",
    "VirtualDiskArray",
    "VmUtilization",
    "XenCalibration",
    "external_host",
    "fair_share",
    "paper_machine_spec",
    "paper_vm_spec",
    "weighted_water_fill",
]
