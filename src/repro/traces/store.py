"""Content-addressed persistence for full execution traces.

The metrics tier (:class:`~repro.results.store.ResultStore`) memoises the
compact :class:`~repro.campaign.runner.RunMetrics` row of every campaign
cell; this module adds the second tier the trace-derived figures (3, 5, 13,
14) need: every executed run's full :class:`~repro.metrics.tracing.Tracer`
persists as one gzip-compressed JSONL artifact keyed by the **same**
:func:`~repro.results.store.content_key` as the metrics entry.  The two
tiers thus address the same cell by the same hash — a key found in both
means "this simulation's reporting is fully reconstructable without
re-simulating".

Artifact layout (format v4): one ``<key>.jsonl.gz`` file per cell, written
as a sequence of **concatenated gzip members** — a valid multi-member gzip
stream, so ``gzip.decompress`` of the whole file still yields the flat JSONL
record stream:

* the first member holds the versioned run header line (spec contents,
  scenario, workload name, end time, cycles/µs calibration) — including a
  ``segments`` table of time-windowed step chunks (first start, last end,
  record count, compressed byte length) plus the mask and sched members'
  byte lengths;
* one member per step segment: up to ``segment_steps`` step records in the
  tracer's canonical ``(start, job, rank)`` order;
* one member with the mask-change records (omitted when there are none);
* one final member with the scheduler-timeline records (queue samples, node
  allocation samples, job lifecycle rows — see :mod:`repro.obs.sched`;
  omitted when the run recorded none, as v3 artifacts always did).

Because the header carries every member's compressed length, a reader seeks
straight to any segment and inflates only the time windows a query touches
— and validates the artifact's total byte size up front, so a truncated
copy reads as a miss even though its header member is intact.  Floats
serialise via ``repr`` and every member is written with a zeroed gzip
mtime, so the same tracer always produces byte-identical artifacts —
re-puts are idempotent, and shard stores merge by plain file union.  The
store lifecycle itself (index, listings, ``gc``, ``merge``) is the shared
:class:`~repro.store.ContentStore`.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from repro.campaign.spec import RunSpec
from repro.metrics.tracing import MaskChangeRecord, StepRecord, Tracer
from repro.obs.log import get_logger
from repro.obs.sched import SchedTimeline
from repro.results.store import content_key, spec_contents, spec_from_contents
from repro.store.content import ContentStore

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.workload.runner import ScenarioResult

#: Default persistent location, a sibling of the metrics tier's
#: ``benchmarks/results/store/`` (both are gitignored).
DEFAULT_TRACE_ROOT = Path("benchmarks") / "results" / "traces"

#: Bumped whenever the artifact layout or the content-hash inputs change;
#: old artifacts are then cache misses and ``gc`` collects them.  The hash
#: inputs are shared with the metrics tier, so a metrics schema bump that
#: changes :func:`~repro.results.store.spec_contents` must bump this too.
#:
#: Version history:
#:
#: * 1 — initial layout (header + step/mask-change records, gzip JSONL).
#: * 2 — step records serialise in the tracer's canonical ``(start, job,
#:   rank)`` order instead of raw recording order, so batched and unbatched
#:   executions of the same cell write byte-identical artifacts.
#: * 3 — chunked layout: the body splits into time-windowed gzip members
#:   with a byte-offset ``segments`` table in the header, so windowed
#:   queries inflate only the touched segments.  The decompressed record
#:   stream is unchanged from v2.
#: * 4 — optional trailing ``sched`` member holding the scheduler timeline
#:   (queue/node/lifecycle records) with its byte length in the header's
#:   ``sched_bytes``.  Strictly additive, so v3 artifacts stay readable
#:   (they simply expose an empty timeline) — see ``_COMPAT_VERSIONS``.
TRACE_FORMAT_VERSION = 4

#: Formats the reader accepts.  v3 is a pure prefix of v4 (no sched member,
#: no ``sched_bytes`` header field), so accepting it costs nothing; anything
#: older has a different record stream and reads as a miss.
_COMPAT_VERSIONS = frozenset({3, TRACE_FORMAT_VERSION})

#: Step records per segment member.  Small enough that an interval query
#: over a million-step trace inflates a sliver, large enough that gzip
#: still sees repetitive JSONL to compress well.
DEFAULT_SEGMENT_STEPS = 2048


def _gzip_member(text: str) -> bytes:
    """One deterministic gzip member (mtime pinned to 0)."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as stream:
        stream.write(text.encode("utf-8"))
    return buffer.getvalue()


@dataclass(frozen=True)
class TraceEntry:
    """One stored trace: its key, validated header, and lazy record access.

    The header member is read eagerly for listing and version checks; step
    segments inflate individually on first touch (cached per entry), so
    windowed queries over a long trace never decompress the parts they
    don't visit, and ``ls`` never inflates a single body byte.
    """

    key: str
    path: Path
    header: dict
    #: Compressed byte length of the header member — the first segment's
    #: file offset.  Zero only for hand-built entries that never read lazily.
    header_bytes: int = 0
    #: Per-entry cache of inflated members (segment index or ``"mask"``).
    _inflated: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def version(self) -> int:
        return self.header["version"]

    @property
    def contents(self) -> dict:
        """The canonical spec contents the artifact was keyed by."""
        return self.header["run"]

    @property
    def run(self) -> RunSpec:
        return spec_from_contents(self.contents)

    # -- lazy segment access -----------------------------------------------------

    @property
    def segments(self) -> list[dict]:
        """The header's segment table: ``{"t0", "t1", "n", "bytes"}`` per
        step chunk, in canonical step order."""
        return self.header.get("segments", [])

    @property
    def segments_inflated(self) -> int:
        """How many step segments this entry has decompressed so far."""
        return sum(1 for key in self._inflated if isinstance(key, int))

    def _member_records(self, offset: int, length: int) -> list[dict]:
        with open(self.path, "rb") as stream:
            stream.seek(offset)
            blob = stream.read(length)
        if len(blob) != length:
            raise ValueError(f"{self.path} is truncated at offset {offset}")
        text = gzip.decompress(blob).decode("utf-8")
        return [json.loads(line) for line in text.splitlines() if line]

    def _segment_offset(self, index: int) -> int:
        return self.header_bytes + sum(
            int(seg["bytes"]) for seg in self.segments[:index]
        )

    def segment_steps(self, index: int) -> list[StepRecord]:
        """The step records of one segment, inflating it on first touch."""
        if index not in self._inflated:
            meta = self.segments[index]
            steps: list[StepRecord] = []
            for record in self._member_records(
                self._segment_offset(index), int(meta["bytes"])
            ):
                if record.get("record") != "step":
                    raise ValueError(
                        f"unknown record type {record.get('record')!r} in {self.path}"
                    )
                steps.append(StepRecord.from_record(record))
            self._inflated[index] = steps
        return self._inflated[index]

    def mask_records(self) -> list[MaskChangeRecord]:
        """The mask-change records, inflating the mask member on first touch."""
        if "mask" not in self._inflated:
            nbytes = int(self.header.get("mask_bytes", 0))
            changes: list[MaskChangeRecord] = []
            if nbytes:
                offset = self._segment_offset(len(self.segments))
                for record in self._member_records(offset, nbytes):
                    if record.get("record") != "mask_change":
                        raise ValueError(
                            f"unknown record type {record.get('record')!r} "
                            f"in {self.path}"
                        )
                    changes.append(MaskChangeRecord.from_record(record))
            self._inflated["mask"] = changes
        return self._inflated["mask"]

    def steps_between(self, lo: float, hi: float) -> list[StepRecord]:
        """Every step overlapping ``[lo, hi]`` (``start <= hi and end >=
        lo``), inflating only the segments whose time window overlaps.

        Sound because a segment's ``t0`` is its first step's start (the
        canonical order sorts by start, so the minimum) and ``t1`` is the
        maximum step end — any step overlapping the query makes its
        segment's window overlap too.
        """
        matches: list[StepRecord] = []
        for index, seg in enumerate(self.segments):
            if float(seg["t0"]) <= hi and float(seg["t1"]) >= lo:
                matches.extend(
                    step
                    for step in self.segment_steps(index)
                    if step.start <= hi and step.end >= lo
                )
        return matches

    def head_steps(self, count: int) -> list[StepRecord]:
        """The first ``count`` steps in canonical order, inflating only the
        leading segments."""
        head: list[StepRecord] = []
        for index in range(len(self.segments)):
            if len(head) >= count:
                break
            head.extend(self.segment_steps(index))
        return head[:count]

    def sched_records(self) -> list[dict]:
        """The raw scheduler-timeline records, inflating the sched member on
        first touch (empty for v3 artifacts and sched-less runs)."""
        if "sched" not in self._inflated:
            nbytes = int(self.header.get("sched_bytes", 0))
            records: list[dict] = []
            if nbytes:
                offset = self._segment_offset(len(self.segments)) + int(
                    self.header.get("mask_bytes", 0)
                )
                records = self._member_records(offset, nbytes)
            self._inflated["sched"] = records
        return self._inflated["sched"]

    @cached_property
    def sched(self) -> SchedTimeline:
        """The run's scheduler timeline (empty for pre-v4 artifacts)."""
        return SchedTimeline.from_records(self.sched_records())

    @cached_property
    def tracer(self) -> Tracer:
        """The full tracer, assembled from every segment plus the masks."""
        tracer = Tracer(cycles_per_us=self.header.get("cycles_per_us", 2600.0))
        for index in range(len(self.segments)):
            tracer.record_steps(self.segment_steps(index))
        for change in self.mask_records():
            tracer.record_mask_change(change)
        return tracer


class TraceStore(ContentStore):
    """Content-addressed, mergeable store of full run traces.

    Reads are header-only: :meth:`_header_span` inflates just the first
    gzip member and cross-checks the header's segment table against the
    file's byte size, so ``get``, ``ls`` and ``gc`` never touch a body
    byte and a truncated artifact still reads as a miss.
    """

    suffix = ".jsonl.gz"
    format_version = TRACE_FORMAT_VERSION
    kind = "traces"
    _NOUN = "trace"
    _UNITS = ("artifact(s)", "artifact(s)")
    #: Everything a read of a missing/corrupt/stale artifact can raise:
    #: filesystem errors (``gzip.BadGzipFile`` is an ``OSError``), malformed
    #: JSON/headers, and truncated or bit-rotted compressed streams
    #: (``EOFError`` / ``zlib.error`` — e.g. an interrupted shard copy).
    _READ_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError, zlib.error)
    _log = get_logger("traces.store")

    def __init__(
        self,
        root: str | os.PathLike = DEFAULT_TRACE_ROOT,
        segment_steps: int = DEFAULT_SEGMENT_STEPS,
    ) -> None:
        if segment_steps <= 0:
            raise ValueError("segment_steps must be positive")
        super().__init__(root)
        self.segment_steps = segment_steps

    @staticmethod
    def _header_span(path: Path, data: bytes | None = None) -> tuple[dict, int]:
        """Parse and validate the header member of the artifact at ``path``
        (or of its bytes ``data``, already in memory); returns ``(header,
        compressed_length)``.

        Cheap — only the small first member inflates — and the validation
        cross-checks the header's segment table against the artifact's
        actual byte size, so a truncated artifact fails here even though
        its header member is intact.
        """
        decomp = zlib.decompressobj(wbits=31)
        body = bytearray()
        consumed = 0
        with open(path, "rb") if data is None else io.BytesIO(data) as stream:
            while not decomp.eof:
                chunk = stream.read(65536)
                if not chunk:
                    raise ValueError(f"{path} ends mid-member")
                body += decomp.decompress(chunk)
                consumed += len(chunk)
            actual = stream.seek(0, io.SEEK_END)
        header_bytes = consumed - len(decomp.unused_data)
        header = json.loads(bytes(body).split(b"\n", 1)[0])
        if not isinstance(header, dict) or header.get("record") != "run":
            raise ValueError(f"{path} has no run header record")
        if header.get("version") not in _COMPAT_VERSIONS:
            raise ValueError(
                f"trace {path.name} has format {header.get('version')!r}, "
                f"expected one of {sorted(_COMPAT_VERSIONS)}"
            )
        expected = (
            header_bytes
            + sum(int(seg["bytes"]) for seg in header["segments"])
            + int(header["mask_bytes"])
            + int(header.get("sched_bytes", 0))
        )
        if actual != expected:
            raise ValueError(
                f"trace {path.name} holds {actual} byte(s), segment table "
                f"expects {expected} — truncated or corrupt"
            )
        return header, header_bytes

    def _read_entry(self, key: str, data: bytes | None = None) -> TraceEntry:
        path = self.path_for(key)
        header, header_bytes = self._header_span(path, data)
        return TraceEntry(key=key, path=path, header=header, header_bytes=header_bytes)

    @staticmethod
    def _summarise(entry: TraceEntry) -> dict | None:
        """The render-ready fields of one artifact header — everything the
        ``ls`` table prints, precomputed at write/index time."""
        header = entry.header
        try:
            return {
                "scenario": header["scenario"],
                "workload": entry.run.workload.label,
                "nsteps": header["nsteps"],
                "nmask_changes": header["nmask_changes"],
                "end_time": header["end_time"],
            }
        except (KeyError, TypeError, ValueError):
            return None

    def get(self, run: RunSpec, key: str | None = None) -> TraceEntry | None:
        """The stored trace of ``run``'s cell, or ``None`` on a miss
        (including unreadable, old-format or otherwise malformed artifacts —
        a bad cache entry must mean "re-simulate", never abort).  ``key`` is
        an optional precomputed ``content_key(run)``."""
        entry = self._lookup(content_key(run) if key is None else key)
        if entry is not None:
            self.index.note_read(entry.key)
        return entry

    def put(self, run: RunSpec, result: "ScenarioResult") -> Path:
        """Persist one executed run's full trace under its content key.

        Idempotent overwrite: the serialisation is deterministic (stable
        record order, sorted JSON keys, gzip mtimes pinned to 0, a fixed
        ``segment_steps`` chunking), so re-puts of the same cell write
        byte-identical artifacts.
        """
        key = content_key(run)
        tracer = result.tracer
        steps = list(tracer)  # canonical (start, job, rank) order
        changes = tracer.mask_changes()
        segment_blobs: list[bytes] = []
        segment_table: list[dict] = []
        for start in range(0, len(steps), self.segment_steps):
            chunk = steps[start : start + self.segment_steps]
            blob = _gzip_member(
                "\n".join(json.dumps(step.to_record(), sort_keys=True) for step in chunk)
                + "\n"
            )
            segment_blobs.append(blob)
            segment_table.append(
                {
                    "t0": chunk[0].start,
                    "t1": max(step.end for step in chunk),
                    "n": len(chunk),
                    "bytes": len(blob),
                }
            )
        mask_blob = b""
        if changes:
            mask_blob = _gzip_member(
                "\n".join(
                    json.dumps(change.to_record(), sort_keys=True) for change in changes
                )
                + "\n"
            )
        sched = getattr(result, "sched", None)
        sched_records = sched.to_records() if sched is not None else []
        sched_blob = b""
        if sched_records:
            sched_blob = _gzip_member(
                "\n".join(
                    json.dumps(record, sort_keys=True) for record in sched_records
                )
                + "\n"
            )
        header = {
            "record": "run",
            "version": TRACE_FORMAT_VERSION,
            "key": key,
            "run": spec_contents(run),
            "run_id": run.cell_id,
            "scenario": run.scenario,
            "workload": result.workload.name,
            "end_time": result.end_time,
            "cycles_per_us": tracer.cycles_per_us,
            "nsteps": len(tracer),
            "nmask_changes": len(changes),
            "segments": segment_table,
            "mask_bytes": len(mask_blob),
            "sched_bytes": len(sched_blob),
            "nsched": len(sched_records),
        }
        data = (
            _gzip_member(json.dumps(header, sort_keys=True) + "\n")
            + b"".join(segment_blobs)
            + mask_blob
            + sched_blob
        )
        entry = TraceEntry(key=key, path=self.path_for(key), header=header)
        path = self._write(key, data, entry)
        self._log.debug(
            "put %s (%s, %d step record(s), %d segment(s))",
            key[:12],
            run.cell_id,
            len(tracer),
            len(segment_table),
        )
        return path
