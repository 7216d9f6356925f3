"""Persistent results layer — the seam between execution and reporting.

PR 1 made the paper's evaluation grid declarative (`repro.campaign`); this
package makes it *persistent and reusable*:

* :mod:`repro.results.store` — a content-addressed
  :class:`~repro.results.store.ResultStore`: every run is keyed by a stable
  hash of its :class:`~repro.campaign.spec.RunSpec` contents (scenario,
  workload reference + seed, cluster, mask policy, scheduler options,
  interference — and *not* its grid index), and its
  :class:`~repro.campaign.runner.RunMetrics` row persists as one JSON file.
  ``run_campaign(..., store=...)`` consults the store first and simulates
  only the misses; cached and fresh campaigns aggregate byte-identically.
  Stores merge by key union, which is the cross-host sharding path.
* :mod:`repro.results.sinks` — opt-in per-run trace sinks: a Paraver-style
  ``.prv`` export and a JSONL export of the full execution trace, fed by
  ``run_campaign(..., sinks=...)`` / ``run_scenario_pair(..., sinks=...)``.
* :mod:`repro.results.query` — list / show / diff reporting over stores,
  also available as ``python -m repro.results ls|show|diff|gc``.

The *trace* tier — full per-run tracers, content-addressed by the same key —
lives in :mod:`repro.traces`; ``python -m repro.results merge --traces``
ships both tiers of a sharded campaign in one command.

Import from the defining submodule (``repro.results.store``,
``repro.results.sinks``, ``repro.results.query``); the package re-exports
nothing, so a worker that only persists rows loads no reporting code.
"""
