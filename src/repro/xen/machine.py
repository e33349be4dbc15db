"""The physical machine: composition root of the Xen substrate.

A :class:`PhysicalMachine` owns guest VMs, a Dom0, a hypervisor, the
virtual disk array and the physical NIC, and runs the scheduling quantum
as a :class:`~repro.sim.process.PeriodicProcess`.  Every quantum it:

1. classifies guest flows into inter-PM / intra-PM paths;
2. arbitrates the NIC and the disk array;
3. computes Dom0 and hypervisor CPU demand from the *previous* quantum's
   guest grants (the natural one-quantum feedback delay of a real
   system; the fixed point converges within a few quanta);
4. serves the hypervisor off the top, then Dom0 (boost priority), then
   water-fills the guests inside the remaining effective capacity using
   the credit scheduler's fluid limit;
5. records grants on every component.

The PM's own CPU utilization is computed the way the paper computes it:
the sum of Dom0, hypervisor and all guest CPU (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim import fastpath as _fastpath
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.xen import stateclock
from repro.xen.calibration import DEFAULT_CALIBRATION, XenCalibration
from repro.xen.devices import PhysicalNic, VirtualDiskArray
from repro.xen.dom0 import Dom0
from repro.xen.hypervisor import Hypervisor
from repro.xen.network import Flow
from repro.xen.scheduler import weighted_water_fill
from repro.xen.specs import MachineSpec, VMSpec
from repro.xen.vm import GuestVM

#: Scheduling quantum in seconds (Xen accounting period).
DEFAULT_QUANTUM = 0.030
#: Event priority of machine quanta: run before workloads (so demands
#: written by workloads at the same instant apply next quantum, as on
#: real hardware) and before monitor samples read the fresh state.
QUANTUM_PRIORITY = 0
#: Event priority for workload updates.
WORKLOAD_PRIORITY = -10
#: Event priority for monitor sampling (after the quantum).
MONITOR_PRIORITY = 10


@dataclass(frozen=True)
class VmUtilization:
    """Guest utilization in the paper's (CPU, MEM, I/O, BW) order."""

    cpu_pct: float
    mem_mb: float
    io_bps: float
    bw_kbps: float


@dataclass(frozen=True)
class MachineSnapshot:
    """Instantaneous utilization of every component of one PM."""

    time: float
    vms: Dict[str, VmUtilization]
    dom0_cpu_pct: float
    dom0_mem_mb: float
    dom0_io_bps: float
    dom0_bw_kbps: float
    hypervisor_cpu_pct: float
    pm_cpu_pct: float
    pm_mem_mb: float
    pm_io_bps: float
    pm_bw_kbps: float

    def vm(self, name: str) -> VmUtilization:
        """Utilization of one guest by name."""
        return self.vms[name]


class PhysicalMachine:
    """One Xen host in the simulated testbed."""

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str = "pm",
        spec: Optional[MachineSpec] = None,
        calibration: Optional[XenCalibration] = None,
        quantum: float = DEFAULT_QUANTUM,
    ) -> None:
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.sim = sim
        self.name = name
        self.spec = spec or MachineSpec()
        self.cal = calibration or DEFAULT_CALIBRATION
        self.quantum = quantum
        self.dom0 = Dom0(self.cal)
        self.hypervisor = Hypervisor(self.cal)
        self.disk = VirtualDiskArray(self.spec, self.cal)
        self.nic = PhysicalNic(self.spec, self.cal)
        self._vms: Dict[str, GuestVM] = {}
        #: Traffic arriving from outside this PM in Kb/s, keyed by the
        #: destination VM name, optionally namespaced as
        #: ``"<source-tag>:<vm>"`` (the cluster router and applications
        #: use distinct tags so their entries never collide).
        self.external_inbound_kbps: Dict[str, float] = (
            stateclock.VersionedDict()
        )
        self._proc: Optional[PeriodicProcess] = None
        self._pm_io_bps = self.cal.pm_io_floor_bps
        self._pm_bw_kbps = self.cal.pm_bw_floor_kbps
        #: Steady-state quantum memo: ``True`` when the grant feedback
        #: reached its fixed point at state-clock ``_steady_version``.
        self._steady = False
        self._steady_version = -1
        #: Fault-injection state: a failed PM grants nothing and reads
        #: as all-zero until :meth:`restore` (crash + reboot window).
        self.failed = False

    # -- VM lifecycle ----------------------------------------------------

    @property
    def vms(self) -> Dict[str, GuestVM]:
        """Hosted guests keyed by name (do not mutate)."""
        return self._vms

    def create_vm(self, spec: VMSpec) -> GuestVM:
        """Create and host a new guest from ``spec``."""
        return self.add_vm(GuestVM(spec))

    def add_vm(self, vm: GuestVM) -> GuestVM:
        """Host an existing guest object (used by migration/placement)."""
        if vm.name in self._vms:
            raise ValueError(f"duplicate VM name {vm.name!r} on {self.name}")
        mem_needed = vm.spec.mem_mb + sum(
            v.spec.mem_mb for v in self._vms.values()
        )
        if mem_needed + self.cal.dom0_mem_mb > self.spec.mem_mb:
            raise MemoryError(
                f"{self.name}: insufficient memory for VM {vm.name!r} "
                f"({mem_needed + self.cal.dom0_mem_mb:.0f} MB needed, "
                f"{self.spec.mem_mb} MB present)"
            )
        self._vms[vm.name] = vm
        stateclock.bump()
        return vm

    def remove_vm(self, name: str) -> GuestVM:
        """Evict a guest (its object is returned for re-placement)."""
        try:
            vm = self._vms.pop(name)
        except KeyError:
            raise KeyError(f"no VM named {name!r} on {self.name}") from None
        stateclock.bump()
        return vm

    def free_mem_mb(self) -> float:
        """Memory still available for new guests."""
        used = self.cal.dom0_mem_mb + sum(
            v.spec.mem_mb for v in self._vms.values()
        )
        return self.spec.mem_mb - used

    # -- simulation ------------------------------------------------------

    def start(self) -> None:
        """Begin stepping scheduling quanta."""
        if self._proc is not None and not self._proc.stopped:
            raise RuntimeError(f"{self.name} already started")
        self._proc = PeriodicProcess(
            self.sim, self.quantum, self._tick, priority=QUANTUM_PRIORITY
        )

    def stop(self) -> None:
        """Stop stepping (state freezes at current values)."""
        if self._proc is not None:
            self._proc.stop()
            self._proc = None

    def settle(self, seconds: float = 2.0) -> None:
        """Run the simulator long enough for the grant fixed point.

        Convenience for analytic-style uses (placement, examples): the
        one-quantum feedback delay settles geometrically; two simulated
        seconds is ~66 quanta, far beyond convergence.
        """
        self.sim.run_until(self.sim.now + seconds)

    def _classify_flows(self) -> tuple[list[Flow], list[Flow]]:
        """Split guest flows into (inter-PM, intra-PM) lists."""
        inter: list[Flow] = []
        intra: list[Flow] = []
        for vm in self._vms.values():
            if vm.stalled:
                continue  # a stalled guest sends nothing
            for flow in vm.flows:
                if flow.intra_pm or flow.dst in self._vms:
                    intra.append(flow)
                else:
                    inter.append(flow)
        return inter, intra

    def fail(self) -> None:
        """Crash the PM: freeze scheduling and zero every grant.

        The quantum process keeps ticking but does nothing until
        :meth:`restore`, so the tick lattice (and therefore every other
        component's event ordering) is unchanged by the outage.
        """
        if self.failed:
            return
        self.failed = True
        for vm in self._vms.values():
            vm.granted.cpu_pct = 0.0
            vm.granted.mem_mb = 0.0
            vm.granted.io_bps = 0.0
            vm.granted.bw_kbps = 0.0
        self.dom0.record(0.0)
        self.hypervisor.record(0.0)
        self._pm_io_bps = 0.0
        self._pm_bw_kbps = 0.0
        # Grants were force-zeroed outside a quantum, so any previously
        # detected fixed point no longer describes the recorded state.
        self._steady = False
        stateclock.bump()

    def restore(self) -> None:
        """Reboot after a crash; grants repopulate from the next quantum."""
        self.failed = False
        self._pm_io_bps = self.cal.pm_io_floor_bps
        self._pm_bw_kbps = self.cal.pm_bw_floor_kbps
        self._steady = False
        stateclock.bump()

    def _tick(self, _now: float) -> None:
        if self.failed:
            return
        # Steady-state memo: when no scheduler-visible input changed
        # since the grant feedback reached its fixed point, this quantum
        # recomputes bit-identical state -- skip it.  Disabled only under
        # REPRO_SIM_SLOWPATH (reference behaviour); observation never
        # chooses the path, so the water-fill counters count computed
        # quanta.  The guard reads the module globals directly: function
        # calls per 30 ms quantum are measurable at paper scale.
        version = stateclock._version
        if (
            self._steady
            and version == self._steady_version
            and not _fastpath._slowpath
        ):
            return
        cal = self.cal
        vms = list(self._vms.values())

        # 1. Network arbitration.
        inter, intra = self._classify_flows()
        senders = {f.src for f in inter if f.kbps > 0}
        nic_out = self.nic.arbitrate([f.kbps for f in inter], len(senders))
        inter_granted = dict(zip([id(f) for f in inter], nic_out.granted_kbps))
        inbound_external = sum(self.external_inbound_kbps.values())
        pm_bw = nic_out.pm_bw_kbps + inbound_external
        inter_kbps_total = sum(nic_out.granted_kbps) + inbound_external
        intra_kbps_total = sum(f.kbps for f in intra)

        # 2. Disk arbitration.
        disk_out = self.disk.arbitrate([vm.io_demand_capped for vm in vms])
        io_granted = dict(zip([vm.name for vm in vms], disk_out.granted_bps))
        guest_io_total = sum(disk_out.granted_bps)

        # 3. Dom0 / hypervisor demand from last quantum's guest grants.
        last_granted = [vm.granted.cpu_pct for vm in vms]
        hyp_demand = self.hypervisor.cpu_demand(
            last_granted, inter_kbps_total, intra_kbps_total, guest_io_total
        )
        dom0_demand = self.dom0.cpu_demand(
            last_granted, inter_kbps_total, intra_kbps_total, guest_io_total
        )

        # 4. CPU arbitration: hypervisor off the top, Dom0 boosted, then
        #    guests water-filled by credit weight.
        capacity = cal.effective_capacity_pct
        hyp_granted = min(hyp_demand, capacity)
        dom0_granted = min(dom0_demand, capacity - hyp_granted)
        guest_capacity = max(0.0, capacity - hyp_granted - dom0_granted)
        per_vm_net_kbps: Dict[str, float] = {vm.name: 0.0 for vm in vms}
        for f in inter:
            per_vm_net_kbps[f.src] += inter_granted[id(f)]
        for f in intra:
            per_vm_net_kbps[f.src] += f.kbps
            if f.dst in per_vm_net_kbps:
                per_vm_net_kbps[f.dst] += f.kbps
        for key, kbps in self.external_inbound_kbps.items():
            # Keys may be namespaced "<source-tag>:<vm>" so independent
            # writers (cluster router, applications) never collide.
            name = key.rsplit(":", 1)[-1]
            if name in per_vm_net_kbps:
                per_vm_net_kbps[name] += kbps
        cpu_demands = []
        for vm in vms:
            net_cpu = cal.vm_net_pct_per_kbps * per_vm_net_kbps[vm.name]
            cpu_demands.append(
                min(vm.cpu_demand_total + net_cpu, vm.spec.cpu_capacity_pct)
            )
        granted_cpu = weighted_water_fill(
            cpu_demands,
            [float(vm.spec.weight) for vm in vms],
            guest_capacity,
            [vm.effective_cap_pct for vm in vms],
        )

        # 5. Record.
        for vm, cpu in zip(vms, granted_cpu):
            vm.granted.cpu_pct = cpu
            vm.granted.mem_mb = vm.mem_total_mb
            vm.granted.io_bps = io_granted[vm.name]
            vm.granted.bw_kbps = per_vm_net_kbps[vm.name]
        self.dom0.record(dom0_granted)
        self.hypervisor.record(hyp_granted)
        self._pm_io_bps = disk_out.pm_io_bps
        self._pm_bw_kbps = min(pm_bw, self.spec.nic_kbps)

        # Fixed-point detection: the only quantum-to-quantum feedback is
        # granted guest CPU (Dom0/hypervisor demand reads it one quantum
        # late).  Everything else recorded above is a pure function of
        # the state-clock-guarded inputs, so once the CPU grants
        # reproduce their own feedback exactly, a re-run of this body at
        # the same clock value is a bitwise no-op.
        self._steady = granted_cpu == last_granted
        self._steady_version = version

    # -- observation -------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        """Instantaneous, noise-free utilization of every component.

        Measurement noise belongs to the monitoring tools
        (:mod:`repro.monitor`), not to the machine itself.  A failed
        (crashed) PM reads as all-zero: nothing on it is executing and
        no counter on it can be read.
        """
        if self.failed:
            return MachineSnapshot(
                time=self.sim.now,
                vms={
                    name: VmUtilization(0.0, 0.0, 0.0, 0.0)
                    for name in self._vms
                },
                dom0_cpu_pct=0.0,
                dom0_mem_mb=0.0,
                dom0_io_bps=0.0,
                dom0_bw_kbps=0.0,
                hypervisor_cpu_pct=0.0,
                pm_cpu_pct=0.0,
                pm_mem_mb=0.0,
                pm_io_bps=0.0,
                pm_bw_kbps=0.0,
            )
        vms = {
            vm.name: VmUtilization(*vm.granted.as_tuple())
            for vm in self._vms.values()
        }
        guest_cpu = sum(u.cpu_pct for u in vms.values())
        pm_cpu = (
            self.dom0.state.cpu_pct + self.hypervisor.state.cpu_pct + guest_cpu
        )
        pm_mem = self.dom0.mem_mb + sum(u.mem_mb for u in vms.values())
        return MachineSnapshot(
            time=self.sim.now,
            vms=vms,
            dom0_cpu_pct=self.dom0.state.cpu_pct,
            dom0_mem_mb=self.dom0.mem_mb,
            dom0_io_bps=0.0,
            dom0_bw_kbps=0.0,
            hypervisor_cpu_pct=self.hypervisor.state.cpu_pct,
            pm_cpu_pct=pm_cpu,
            pm_mem_mb=pm_mem,
            pm_io_bps=self._pm_io_bps,
            pm_bw_kbps=self._pm_bw_kbps,
        )
