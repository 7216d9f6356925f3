"""Distributed campaign execution: executor backends plus orchestration.

The campaign runner's distributed seam (see ``docs/distributed.md``):

* :mod:`repro.exec.base` — the tiny :class:`Executor` contract, the
  :class:`WorkerContext` shipped once per campaign, and the transient
  (:class:`ExecutorError`) vs terminal (:class:`ExecutorDied`) failure
  taxonomy.
* :mod:`repro.exec.local` — persistent local process pools (and the plain
  ``workers=N`` pool path's initializer, so per-cell pickles carry only the
  :class:`~repro.campaign.spec.RunSpec`).
* :mod:`repro.exec.ssh` — remote hosts over SSH, or the loopback subprocess
  transport, speaking the JSONL protocol of :mod:`repro.exec.worker`.
* :mod:`repro.exec.slurm` — fire-and-forget array-job submission with an
  ``afterok`` summarize job.
* :mod:`repro.exec.orchestrator` — the asyncio dealer: shared cell queue,
  per-slot loops, timeouts, retry with backoff, graceful degradation.
* :mod:`repro.exec.manifest` — the append-only resumable campaign journal.
"""

import importlib

#: Public name -> the submodule defining it.  Submodules load on first
#: access, so importing :mod:`repro.exec.base` (the ``WorkerContext`` every
#: campaign cell runs against, serial cells included) or starting
#: ``python -m repro.exec.worker`` does not pull in asyncio and
#: multiprocessing.
_HOMES = {
    "DONE": "manifest",
    "FAILED": "manifest",
    "PENDING": "manifest",
    "CampaignExecutionError": "orchestrator",
    "CampaignManifest": "manifest",
    "Executor": "base",
    "ExecutorDied": "base",
    "ExecutorError": "base",
    "ExecutorStats": "orchestrator",
    "LocalPoolExecutor": "local",
    "ManifestState": "manifest",
    "OrchestrationOutcome": "orchestrator",
    "SSHExecutor": "ssh",
    "SlurmArrayExecutor": "slurm",
    "SlurmSubmission": "slurm",
    "WorkerContext": "base",
    "orchestrate": "orchestrator",
    "worker_pool": "local",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
