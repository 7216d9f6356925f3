"""Campaign subsystem — parallel scenario sweeps over the DROM simulation.

The paper evaluates DROM on two nodes with a handful of hand-written
workloads; this package is the scaling seam on top of that substrate.  A
:class:`~repro.campaign.spec.CampaignSpec` describes a grid of
scenario × workload × policy × cluster combinations declaratively (plain
picklable dataclasses), :func:`~repro.campaign.runner.run_campaign` expands
it, executes every run — in-process or across a ``multiprocessing`` worker
pool — and aggregates the per-run metrics into one comparable table.  It is
the only driver: a resume and a Serial/DROM scenario pair are campaigns too.

Fixed-seed campaigns are deterministic by construction: every run is a pure
function of its :class:`~repro.campaign.spec.RunSpec` and aggregation happens
in run-index order, so 1 worker and N workers produce byte-identical
aggregated metrics.

Command line::

    python -m repro.campaign --workloads 5 --njobs 3 --nnodes 4 --workers 4
"""

from repro.campaign.spec import (
    NODE_POLICY_NAMES,
    POLICY_REGISTRY,
    CampaignSpec,
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    PolicyRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
    WorkloadRef,
)
from repro.campaign.runner import (
    CampaignResult,
    RunMetrics,
    execute_run,
    run_campaign,
    run_scenario_pair,
    summarise_run,
)

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "ClusterRef",
    "PolicyRef",
    "SchedulerRef",
    "NODE_POLICY_NAMES",
    "SyntheticWorkloadRef",
    "InSituWorkloadRef",
    "HighPriorityWorkloadRef",
    "WorkloadRef",
    "POLICY_REGISTRY",
    "CampaignResult",
    "RunMetrics",
    "execute_run",
    "run_campaign",
    "run_scenario_pair",
    "summarise_run",
]
