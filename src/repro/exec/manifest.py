"""The resumable campaign manifest: an append-only JSONL cell journal.

A :class:`CampaignManifest` records what a campaign *intended* and what has
*happened* so far, one JSON line at a time:

* a ``campaign`` header line naming the campaign and its cell count;
* one ``pending`` line per cell, carrying the cell's content key, grid index
  and full canonical spec contents — which makes the manifest
  **self-contained**: a resume rebuilds every cell from the manifest alone,
  no grid flags needed;
* a ``done`` (or ``failed``) line per completion, appended as results land.

Appends are single ``O_APPEND`` line writes, so concurrent writers (pool
workers, Slurm array tasks journalling their own completions) interleave at
line granularity and a crash loses at most the final partial line —
:meth:`CampaignManifest.replay` skips malformed lines and takes the *last*
state recorded per key.

Resume semantics are deliberately thin: the manifest is the record of intent
and an audit trail, while the **content-addressed store tiers stay the
ground truth for what can be skipped**.  On resume the campaign re-runs its
normal warm scan, so exactly the cells whose content keys are missing from
the store tiers execute — a cell journalled ``done`` whose store entry was
deleted re-runs, and a cell another shard completed is skipped even if this
manifest never saw it finish.  That makes crash recovery free: kill the
campaign at any instant, re-run with ``--resume MANIFEST``, and only the
missing keys simulate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.campaign.spec import RunSpec

_log = get_logger("exec.manifest")

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "CampaignManifest",
    "ManifestState",
]

#: Bumped whenever the line layout changes; replay rejects other versions.
MANIFEST_VERSION = 1

PENDING = "pending"
DONE = "done"
FAILED = "failed"

_STATES = (PENDING, DONE, FAILED)


@dataclass
class ManifestState:
    """The replayed view of a manifest: last state per content key."""

    name: str = "campaign"
    total: int = 0
    #: key -> last recorded state (one of :data:`PENDING`/:data:`DONE`/
    #: :data:`FAILED`).
    states: dict = field(default_factory=dict)
    #: key -> the first ``pending`` line's ``{"index", "run"}`` payload (the
    #: cell's identity; later generations never change it).
    cells: dict = field(default_factory=dict)

    def expand(self) -> list["RunSpec"]:
        """Every recorded cell as a :class:`RunSpec`, in grid-index order —
        the run list a resume drives through
        :func:`~repro.campaign.runner.run_campaign` (which reads only this
        and :attr:`name`).  Raises ``ValueError`` when the manifest is
        missing or records no cells."""
        from repro.campaign.spec import spec_from_contents

        if not self.cells:
            raise ValueError("the manifest records no cells")
        payloads = sorted(self.cells.values(), key=lambda c: c["index"])
        return [spec_from_contents(c["run"], index=c["index"]) for c in payloads]

    @property
    def done(self) -> set[str]:
        return {key for key, s in self.states.items() if s == DONE}

    @property
    def unfinished(self) -> set[str]:
        """Keys whose last recorded state is not ``done``."""
        return {key for key, s in self.states.items() if s != DONE}


class CampaignManifest:
    """Append-only JSONL journal of one campaign's cells.

    The file is created lazily on the first append; :meth:`replay` of a
    missing file returns an empty state.  All writes are single appended
    lines (``sort_keys`` for deterministic field order), never rewrites.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    # -- writing -----------------------------------------------------------------

    def _append(self, payload: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(payload, sort_keys=True) + "\n")

    def begin(self, name: str, runs: Iterable["RunSpec"]) -> None:
        """Journal a (re)started campaign: header plus one ``pending`` line
        per cell **not already recorded** — restarting appends a fresh
        header but never duplicates cell identities or regresses a ``done``
        cell back to ``pending``."""
        known = self.replay().cells if self.path.exists() else {}
        runs = list(runs)
        self._append(
            {
                "record": "campaign",
                "version": MANIFEST_VERSION,
                "name": name,
                "total": len(runs),
            }
        )
        fresh = 0
        for run in runs:
            if run.key in known:
                continue
            fresh += 1
            self._append(
                {
                    "record": "cell",
                    "state": PENDING,
                    "key": run.key,
                    "index": run.index,
                    "run": run.contents,
                }
            )
        _log.info(
            "manifest %s: campaign %r with %d cell(s), %d newly journalled",
            self.path,
            name,
            len(runs),
            fresh,
        )

    def record(
        self,
        key: str,
        state: str,
        index: int | None = None,
        executor: str | None = None,
        cached: bool | None = None,
        error: str | None = None,
    ) -> None:
        """Append one cell-state transition."""
        if state not in _STATES:
            raise ValueError(f"unknown manifest state {state!r}")
        payload: dict = {"record": "cell", "state": state, "key": key}
        if index is not None:
            payload["index"] = index
        if executor is not None:
            payload["executor"] = executor
        if cached is not None:
            payload["cached"] = cached
        if error is not None:
            payload["error"] = error
        self._append(payload)

    # -- reading -----------------------------------------------------------------

    def replay(self) -> ManifestState:
        """Fold the journal into its current state (last line per key wins).

        Tolerant by design: a missing file is an empty state, malformed or
        truncated lines (a crash mid-append) are skipped, and unknown record
        types are ignored so the format can grow.
        """
        state = ManifestState()
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return state
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # truncated final line of a crashed writer
            if not isinstance(payload, dict):
                continue
            kind = payload.get("record")
            if kind == "campaign":
                if payload.get("version") != MANIFEST_VERSION:
                    raise ValueError(
                        f"manifest {self.path} has version "
                        f"{payload.get('version')!r}, expected {MANIFEST_VERSION}"
                    )
                state.name = payload.get("name", state.name)
                state.total = payload.get("total", state.total)
            elif kind == "cell":
                key = payload.get("key")
                cell_state = payload.get("state")
                if not key or cell_state not in _STATES:
                    continue
                state.states[key] = cell_state
                if "run" in payload and key not in state.cells:
                    state.cells[key] = {
                        "index": payload.get("index", 0),
                        "run": payload["run"],
                    }
        return state
