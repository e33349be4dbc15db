"""Multi-PM testbed orchestration and the fleet-scale simulator.

The fleet simulator lives in :mod:`repro.cluster.fleet`; it is not
re-exported here because it imports :mod:`repro.placement`, which
(through :mod:`repro.models` and :mod:`repro.monitor`) imports this
package.
"""

from repro.cluster.cluster import ROUTING_PRIORITY, Cluster
from repro.cluster.deployment import (
    Deployment,
    DeploymentSpec,
    RubisRef,
    VmPlacement,
    WorkloadRef,
    build_deployment,
)

__all__ = [
    "Cluster",
    "Deployment",
    "DeploymentSpec",
    "ROUTING_PRIORITY",
    "RubisRef",
    "VmPlacement",
    "WorkloadRef",
    "build_deployment",
]
