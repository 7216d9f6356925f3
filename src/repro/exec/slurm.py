"""Slurm array-job campaign submission.

Unlike the slot-driven backends (:mod:`repro.exec.local`,
:mod:`repro.exec.ssh`), Slurm campaigns are **fire-and-forget batch
submissions**: the driver does not stay alive while cells run, so there is
nothing for the asyncio orchestrator to deal cells to.
:class:`SlurmArrayExecutor` therefore splits the work into two explicit
steps:

:meth:`~SlurmArrayExecutor.prepare`
    Writes a self-contained submission directory: a ``cells.jsonl`` file
    (one canonical cell per line), the campaign manifest journalled with
    every cell ``pending``, one ``#SBATCH --array`` script per chunk of at
    most ``max_array_size`` cells (respecting Slurm's ``MaxArraySize``
    limit), and a ``summarize.sbatch`` that re-runs the campaign with
    ``--resume MANIFEST`` once every array job succeeds — by then every
    content key is in the store, so the "re-run" is a pure warm-scan
    aggregation.  All artifacts are deterministic bytes: re-preparing the
    same campaign into the same directory rewrites identical files.

:meth:`~SlurmArrayExecutor.submit`
    Feeds each array script to ``sbatch``, parses the ``Submitted batch job
    <id>`` replies, then submits the summarize job with
    ``--dependency=afterok:<id1>:<id2>:...`` chaining it behind every chunk
    (the classic array-plus-reduce idiom).  The sbatch invocation is
    injectable, so tests drive the full path with a stub.

Each array task runs ``python -m repro.exec.worker --cells ... --index
$SLURM_ARRAY_TASK_ID --offset <chunk offset>`` (batch mode,
:mod:`repro.exec.worker`): it executes exactly one cell, writes both store
tiers on the shared filesystem, journals ``done``/``failed`` into the
manifest, and exits non-zero on failure so ``afterok`` holds the summary
back.  Crash recovery is the manifest's usual contract: re-``prepare`` +
``submit`` (or a local ``--resume``) re-executes only the cells whose
content keys are missing from the store.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.exec.manifest import CampaignManifest
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.campaign.spec import RunSpec

_log = get_logger("exec.slurm")

__all__ = ["SlurmArrayExecutor", "SlurmSubmission"]

_JOB_ID = re.compile(r"Submitted batch job (\d+)")


@dataclass(frozen=True)
class SlurmSubmission:
    """Everything :meth:`SlurmArrayExecutor.prepare` wrote to disk."""

    directory: Path
    cells_path: Path
    manifest_path: Path
    summarize_path: Path
    #: One ``(script path, cells-file offset, chunk size)`` per array job.
    chunks: tuple[tuple[Path, int, int], ...] = field(default_factory=tuple)
    total: int = 0

    @property
    def scripts(self) -> list[Path]:
        return [path for path, _, _ in self.chunks]


class SlurmArrayExecutor:
    """Campaign execution as chunked Slurm array jobs plus an ``afterok``
    summarize job.

    ``store`` (and optionally ``trace_store``) must live on a filesystem the
    compute nodes share — the array tasks write the tiers directly and the
    summarize job aggregates from them.
    """

    name = "slurm"

    def __init__(
        self,
        directory: str | os.PathLike,
        store_root: str | os.PathLike,
        trace_root: str | os.PathLike | None = None,
        python: str = "python3",
        repo_root: str | os.PathLike = ".",
        max_array_size: int = 1000,
        sbatch: str = "sbatch",
        sbatch_options: Iterable[str] = (),
    ) -> None:
        if max_array_size <= 0:
            raise ValueError("max_array_size must be positive")
        self.directory = Path(directory)
        self.store_root = Path(store_root)
        self.trace_root = Path(trace_root) if trace_root is not None else None
        self.python = python
        self.repo_root = Path(repo_root)
        self.max_array_size = max_array_size
        self.sbatch = sbatch
        self.sbatch_options = tuple(sbatch_options)

    # -- script generation -------------------------------------------------------

    def _header(self, job_name: str, extra: Iterable[str] = ()) -> list[str]:
        lines = ["#!/bin/bash", f"#SBATCH --job-name={job_name}"]
        lines.extend(f"#SBATCH {option}" for option in self.sbatch_options)
        lines.extend(extra)
        lines += [
            "set -euo pipefail",
            f"export PYTHONPATH={shlex.quote(str(self.repo_root / 'src'))}"
            '"${PYTHONPATH:+:$PYTHONPATH}"',
        ]
        return lines

    def _worker_command(self, offset: int) -> str:
        parts = [
            shlex.quote(self.python),
            "-m",
            "repro.exec.worker",
            "--cells",
            shlex.quote(str(self.directory / "cells.jsonl")),
            "--offset",
            str(offset),
            "--index",
            '"${SLURM_ARRAY_TASK_ID}"',
            "--store",
            shlex.quote(str(self.store_root)),
            "--manifest",
            shlex.quote(str(self.directory / "manifest.jsonl")),
        ]
        if self.trace_root is not None:
            parts[-2:-2] = [
                "--trace-store",
                shlex.quote(str(self.trace_root)),
            ]
        return " ".join(parts)

    def _summarize_command(self, name: str) -> str:
        parts = [
            shlex.quote(self.python),
            "-m",
            "repro.campaign",
            "--name",
            shlex.quote(name),
            "--resume",
            shlex.quote(str(self.directory / "manifest.jsonl")),
            "--store",
            shlex.quote(str(self.store_root)),
        ]
        if self.trace_root is not None:
            parts += ["--trace-store", shlex.quote(str(self.trace_root))]
        return " ".join(parts)

    def prepare(self, name: str, runs: Iterable["RunSpec"]) -> SlurmSubmission:
        """Write the submission directory for ``runs``; deterministic bytes."""
        runs = list(runs)
        if not runs:
            raise ValueError("cannot prepare a Slurm submission with no cells")
        self.directory.mkdir(parents=True, exist_ok=True)
        cells_path = self.directory / "cells.jsonl"
        with open(cells_path, "w", encoding="utf-8") as stream:
            for run in runs:
                stream.write(
                    json.dumps(
                        {
                            "index": run.index,
                            "key": run.key,
                            "run": run.contents,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        manifest_path = self.directory / "manifest.jsonl"
        CampaignManifest(manifest_path).begin(name, runs)

        chunks: list[tuple[Path, int, int]] = []
        for chunk_no, offset in enumerate(range(0, len(runs), self.max_array_size)):
            size = min(self.max_array_size, len(runs) - offset)
            script = self.directory / f"array_{chunk_no:03d}.sbatch"
            lines = self._header(
                f"{name}-cells-{chunk_no:03d}",
                extra=[f"#SBATCH --array=0-{size - 1}"],
            )
            lines.append(self._worker_command(offset))
            script.write_text("\n".join(lines) + "\n", encoding="utf-8")
            chunks.append((script, offset, size))

        summarize_path = self.directory / "summarize.sbatch"
        lines = self._header(f"{name}-summarize")
        lines.append(self._summarize_command(name))
        summarize_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        _log.info(
            "slurm submission %s: %d cell(s) in %d array job(s) of <=%d",
            self.directory,
            len(runs),
            len(chunks),
            self.max_array_size,
        )
        return SlurmSubmission(
            directory=self.directory,
            cells_path=cells_path,
            manifest_path=manifest_path,
            summarize_path=summarize_path,
            chunks=tuple(chunks),
            total=len(runs),
        )

    # -- submission --------------------------------------------------------------

    def _run_sbatch(self, argv: list[str]) -> str:
        completed = subprocess.run(
            argv, check=True, capture_output=True, text=True
        )
        return completed.stdout

    def submit(
        self,
        submission: SlurmSubmission,
        sbatch_runner: Callable[[list[str]], str] | None = None,
    ) -> list[str]:
        """Submit every array chunk, then the ``afterok``-chained summarize
        job.  Returns all Slurm job ids (summarize last).  ``sbatch_runner``
        overrides the actual ``sbatch`` invocation (tests use a stub)."""
        runner = sbatch_runner if sbatch_runner is not None else self._run_sbatch
        job_ids: list[str] = []
        for script, _, _ in submission.chunks:
            output = runner([self.sbatch, str(script)])
            job_ids.append(self._parse_job_id(output, script))
        dependency = "afterok:" + ":".join(job_ids)
        output = runner(
            [
                self.sbatch,
                f"--dependency={dependency}",
                str(submission.summarize_path),
            ]
        )
        job_ids.append(self._parse_job_id(output, submission.summarize_path))
        _log.info(
            "submitted %d array job(s) + summarize as %s",
            len(submission.chunks),
            ", ".join(job_ids),
        )
        return job_ids

    @staticmethod
    def _parse_job_id(output: str, script: Path) -> str:
        match = _JOB_ID.search(output)
        if match is None:
            raise RuntimeError(
                f"sbatch output for {script.name} carried no job id: "
                f"{output[:200]!r}"
            )
        return match.group(1)
