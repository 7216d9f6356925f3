"""repro — a Python reproduction of *DROM: Enabling Efficient and Effortless
Malleability for Resource Managers* (D'Amico et al., ICPP 2018).

The package implements the paper's contribution — the DROM module of the DLB
library, an API that lets a resource manager change the CPUs owned by a
running process — together with every substrate the evaluation needs:

``repro.core``
    The DLB framework: per-node shared memory, the DROM administrator API,
    the process-side ``DLB_Init``/``DLB_PollDROM`` handle and the LeWI module.
``repro.cpuset``
    CPU masks, node/cluster topologies (MareNostrum III) and the mask
    distribution policies of the DROM-enabled SLURM plugin.
``repro.runtime``
    Programming-model substrates: OpenMP (+OMPT), OmpSs and MPI (+PMPI) with
    DLB interception.
``repro.slurm``
    Simulated SLURM: controller, node daemon, step daemon and the
    task/affinity plugin extended with DROM (Section 5 of the paper).
``repro.sim``, ``repro.apps``, ``repro.metrics``
    A deterministic discrete-event engine, analytic application models
    (NEST, CoreNeuron, Pils, STREAM) and the paper's metrics/tracing.
``repro.workload``, ``repro.experiments``
    Table-1 configurations, the Serial/DROM scenario runner and the drivers
    that regenerate every figure of the evaluation.

Quick start::

    from repro.campaign import InSituWorkloadRef, run_scenario_pair

    results = run_scenario_pair(InSituWorkloadRef("NEST", "Conf. 1", "Pils", "Conf. 2"))
    print(results["serial"].metrics.total_run_time,
          results["drom"].metrics.total_run_time)
"""

from repro.core import (
    DlbError,
    DlbProcess,
    DromAdmin,
    DromFlags,
    LewiModule,
    NodeSharedMemory,
    attach_admin,
)
from repro.cpuset import ClusterTopology, CpuSet, NodeTopology

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CpuSet",
    "NodeTopology",
    "ClusterTopology",
    "NodeSharedMemory",
    "DromAdmin",
    "DlbProcess",
    "DromFlags",
    "DlbError",
    "LewiModule",
    "attach_admin",
]
