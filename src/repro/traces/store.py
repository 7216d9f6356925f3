"""Content-addressed persistence for full execution traces.

The metrics tier (:class:`~repro.results.store.ResultStore`) memoises the
compact :class:`~repro.campaign.runner.RunMetrics` row of every campaign
cell; this module adds the second tier the trace-derived figures (3, 5, 13,
14) need: every executed run's full :class:`~repro.metrics.tracing.Tracer`
persists as one gzip-compressed artifact keyed by the **same**
:attr:`~repro.campaign.spec.RunSpec.key` as the metrics entry.  The two
tiers thus address the same cell by the same hash — a key found in both
means "this simulation's reporting is fully reconstructable without
re-simulating".

Artifact layout (format v5): one ``<key>.jsonl.gz`` file per cell, written
as a sequence of **concatenated gzip members**:

* the first member holds the versioned run header, one sorted-key JSON
  object (spec contents, scenario, workload name, end time, cycles/µs
  calibration) — including a ``segments`` table of time-windowed step
  chunks (first start, last end, record count, compressed byte length) plus
  the mask and sched members' byte lengths;
* one member per step segment: up to ``segment_steps`` step records in the
  tracer's canonical ``(start, job, rank)`` order, as binary columns (see
  :func:`encode_steps`);
* one member with the mask-change records, one sorted-key JSON list
  (omitted when there are none);
* one final member with the scheduler-timeline records (queue samples, node
  allocation samples, job lifecycle rows — see :mod:`repro.obs.sched`), one
  sorted-key JSON list (omitted when the run recorded none).

A step segment is a little-endian prefix of the row count and the byte
length of each of its eleven parts, then the parts: a JSON string table of
the segment's job, node and phase labels in first-seen order; ``int64``
columns ``job``, ``node`` and ``phase`` (indices into the table), ``rank``
and ``nthreads``; ``float64`` columns ``start``, ``duration``, ``ipc``,
``work_units``; and the flattened ``thread_utilisation`` tuples, sliced per
row by ``nthreads``.  Columns are IEEE doubles written bit-for-bit, so every
float (``-0.0``, ``nan`` and subnormals included) survives exactly and the
replayed views stay byte-identical to the live ones.  The byte order is
fixed, so artifacts written on any host are interchangeable.

Because the header carries every member's compressed length, a reader seeks
straight to any segment and inflates only the time windows a query touches
— and validates the artifact's total byte size up front, so a truncated
copy reads as a miss even though its header member is intact.  Every member
is written with a zeroed gzip mtime at a fixed level, so the same tracer
always produces byte-identical artifacts — re-puts are idempotent, and shard
stores merge by plain file union.  ``gzip -d`` of an artifact yields the
header JSON followed by binary data; ``python -m repro.traces export
--format jsonl`` renders the JSONL record stream instead.  The store
lifecycle itself (index, listings, ``gc``, ``merge``) is the shared
:class:`~repro.store.ContentStore`.
"""

from __future__ import annotations

import io
import json
import os
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.campaign.spec import RunSpec, spec_from_contents
from repro.metrics.tracing import MaskChangeRecord, StepRecord, Tracer
from repro.obs.log import get_logger
from repro.obs.sched import SchedTimeline
from repro.store.content import ContentStore

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.workload.runner import ScenarioResult

#: Default persistent location, a sibling of the metrics tier's
#: ``benchmarks/results/store/`` (both are gitignored).
DEFAULT_TRACE_ROOT = Path("benchmarks") / "results" / "traces"

#: Bumped whenever the artifact layout or the content-hash inputs change;
#: old artifacts are then cache misses (re-simulated on the next campaign)
#: and ``gc`` collects them.  The hash inputs are shared with the metrics
#: tier, so a metrics schema bump that changes
#: :attr:`~repro.campaign.spec.RunSpec.contents` must bump this too.
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
#:   ``sched_bytes``.
#: * 5 — step segments hold binary columns instead of one JSON line per
#:   step; the mask and sched members hold one JSON list each; every member
#:   compresses at level 6.  The member sequence and the header's byte
#:   table are unchanged.  Older artifacts read as misses.
TRACE_FORMAT_VERSION = 5

#: Step records per segment member.  Small enough that an interval query
#: over a million-step trace inflates a sliver, large enough that gzip
#: still sees long runs of repetitive column values.
DEFAULT_SEGMENT_STEPS = 2048

#: Header of every gzip member: no flags, mtime 0, no extra flags, OS
#: "unknown" — spelled out rather than left to :mod:`gzip`, so the bytes
#: cannot change with the Python version.
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
_GZIP_LEVEL = 6


def _gzip_member(data: bytes) -> bytes:
    """One deterministic gzip member holding ``data``."""
    deflate = zlib.compressobj(_GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    return b"".join(
        (
            _GZIP_HEADER,
            deflate.compress(data),
            deflate.flush(),
            struct.pack("<LL", zlib.crc32(data), len(data) & 0xFFFFFFFF),
        )
    )


def _json_member(document) -> bytes:
    """One gzip member holding ``document`` as sorted-key JSON."""
    return _gzip_member(json.dumps(document, sort_keys=True).encode())


# -- the step-segment codec ----------------------------------------------------------

#: Row count, then the byte length of each part: the string table, the five
#: ``int64`` columns, the four ``float64`` columns and the flattened
#: ``thread_utilisation``.
_SEGMENT_PREFIX = struct.Struct("<12Q")
_COLUMN_TYPES = "qqqqqdddd"
_BIG_ENDIAN = sys.byteorder == "big"


def _column_bytes(column: array) -> bytes:
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _column(typecode: str, data: bytes, count: int) -> array:
    """Decode one little-endian column that must hold ``count`` values."""
    column = array(typecode)
    column.frombytes(data)  # ValueError on a partial trailing item
    if len(column) != count:
        raise ValueError(f"step column holds {len(column)} value(s), expected {count}")
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def encode_steps(steps: Sequence[StepRecord]) -> bytes:
    """One step segment's binary columns (the module docstring has the
    layout); a pure function of ``steps``, so re-encodes are byte-identical."""
    (jobs, ranks, nodes, starts, durations, phases, nthreads, utilisation,
     ipcs, work) = zip(*steps) if steps else ((),) * len(StepRecord._fields)
    if list(map(len, utilisation)) != list(nthreads):
        raise ValueError("a step's thread_utilisation length differs from its nthreads")
    labels: dict[str, int] = {}
    intern = labels.setdefault
    columns = [
        array("q", [intern(label, len(labels)) for label in jobs]),
        array("q", [intern(label, len(labels)) for label in nodes]),
        array("q", [intern(label, len(labels)) for label in phases]),
        array("q", ranks),
        array("q", nthreads),
        array("d", starts),
        array("d", durations),
        array("d", ipcs),
        array("d", work),
        array("d", chain.from_iterable(utilisation)),
    ]
    parts = [json.dumps(list(labels)).encode()]
    parts.extend(map(_column_bytes, columns))
    return _SEGMENT_PREFIX.pack(len(steps), *map(len, parts)) + b"".join(parts)


def decode_steps(data: bytes) -> list[StepRecord]:
    """The step records of one :func:`encode_steps` segment.  Any length
    mismatch raises :class:`ValueError`, so a damaged segment fails its
    query instead of yielding wrong steps."""
    if len(data) < _SEGMENT_PREFIX.size:
        raise ValueError("step segment is shorter than its prefix")
    rows, *lengths = _SEGMENT_PREFIX.unpack_from(data)
    if _SEGMENT_PREFIX.size + sum(lengths) != len(data):
        raise ValueError("step segment size disagrees with its prefix")
    parts = []
    offset = _SEGMENT_PREFIX.size
    for length in lengths:
        parts.append(data[offset : offset + length])
        offset += length
    labels = json.loads(parts[0])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("step segment string table is not a list of strings")
    jobs, nodes, phases, ranks, nthreads, starts, durations, ipcs, work = (
        _column(typecode, part, rows) for typecode, part in zip(_COLUMN_TYPES, parts[1:])
    )
    if rows and (
        min(min(jobs), min(nodes), min(phases)) < 0
        or max(max(jobs), max(nodes), max(phases)) >= len(labels)
    ):
        raise ValueError("step segment label index out of range")
    if rows and min(nthreads) < 0:
        raise ValueError("step segment has a negative nthreads")
    utilisation = _column("d", parts[10], sum(nthreads)).tolist()
    steps: list[StepRecord] = []
    append = steps.append
    lo = 0
    for job, rank, node, start, duration, phase, count, ipc, units in zip(
        jobs, ranks, nodes, starts, durations, phases, nthreads, ipcs, work
    ):
        hi = lo + count
        append(
            StepRecord(
                labels[job], rank, labels[node], start, duration, labels[phase],
                count, tuple(utilisation[lo:hi]), ipc, units,
            )
        )
        lo = hi
    return steps


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

    def _member(self, offset: int, length: int) -> bytes:
        """The inflated bytes of the one gzip member at ``offset``."""
        with open(self.path, "rb") as stream:
            stream.seek(offset)
            blob = stream.read(length)
        if len(blob) != length:
            raise ValueError(f"{self.path} is truncated at offset {offset}")
        inflate = zlib.decompressobj(wbits=31)
        data = inflate.decompress(blob)
        if not inflate.eof or inflate.unused_data:
            raise ValueError(f"{self.path} has no single gzip member at offset {offset}")
        return data

    def _json_records(self, offset: int, length: int) -> list:
        records = json.loads(self._member(offset, length))
        if not isinstance(records, list):
            raise ValueError(f"{self.path} has a non-list member at offset {offset}")
        return records

    def _segment_offset(self, index: int) -> int:
        return self.header_bytes + sum(
            int(seg["bytes"]) for seg in self.segments[:index]
        )

    def segment_steps(self, index: int) -> list[StepRecord]:
        """The step records of one segment, inflating it on first touch."""
        if index not in self._inflated:
            meta = self.segments[index]
            steps = decode_steps(
                self._member(self._segment_offset(index), int(meta["bytes"]))
            )
            if len(steps) != int(meta["n"]):
                raise ValueError(
                    f"segment {index} of {self.path} holds {len(steps)} step(s), "
                    f"its table says {meta['n']}"
                )
            self._inflated[index] = steps
        return self._inflated[index]

    def mask_records(self) -> list[MaskChangeRecord]:
        """The mask-change records, inflating the mask member on first touch."""
        if "mask" not in self._inflated:
            nbytes = int(self.header.get("mask_bytes", 0))
            changes: list[MaskChangeRecord] = []
            if nbytes:
                offset = self._segment_offset(len(self.segments))
                for record in self._json_records(offset, nbytes):
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
        first touch (empty for runs that recorded none)."""
        if "sched" not in self._inflated:
            nbytes = int(self.header.get("sched_bytes", 0))
            records: list[dict] = []
            if nbytes:
                offset = self._segment_offset(len(self.segments)) + int(
                    self.header.get("mask_bytes", 0)
                )
                records = self._json_records(offset, nbytes)
            self._inflated["sched"] = records
        return self._inflated["sched"]

    @cached_property
    def sched(self) -> SchedTimeline:
        """The run's scheduler timeline."""
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

    #: Kept from the JSONL formats so that existing stores, globs and
    #: scripts still find the artifacts; ``export --format jsonl`` renders
    #: the JSONL view.
    suffix = ".jsonl.gz"
    format_version = TRACE_FORMAT_VERSION
    kind = "traces"
    _NOUN = "trace"
    _UNITS = ("artifact(s)", "artifact(s)")
    #: Everything a read of a missing/corrupt/stale artifact can raise:
    #: filesystem errors, malformed JSON/headers, and truncated or
    #: bit-rotted compressed streams (``EOFError`` / ``zlib.error`` — e.g.
    #: an interrupted shard copy).
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
        header = json.loads(bytes(body))
        if not isinstance(header, dict) or header.get("record") != "run":
            raise ValueError(f"{path} has no run header record")
        if header.get("version") != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"trace {path.name} has format {header.get('version')!r}, "
                f"expected {TRACE_FORMAT_VERSION}"
            )
        expected = (
            header_bytes
            + sum(int(seg["bytes"]) for seg in header["segments"])
            + int(header["mask_bytes"])
            + int(header["sched_bytes"])
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

    def get(self, run: RunSpec) -> TraceEntry | None:
        """The stored trace of ``run``'s cell, or ``None`` on a miss
        (including unreadable, old-format or otherwise malformed artifacts —
        a bad cache entry must mean "re-simulate", never abort)."""
        entry = self._lookup(run.key)
        if entry is not None:
            self.index.note_read(entry.key)
        return entry

    def put(self, run: RunSpec, result: "ScenarioResult") -> Path:
        """Persist one executed run's full trace under its content key.

        Idempotent overwrite: the serialisation is deterministic (stable
        record order, sorted JSON keys, fixed column layout, gzip mtimes
        pinned to 0, a fixed ``segment_steps`` chunking), so re-puts of the
        same cell write byte-identical artifacts.
        """
        key = run.key
        tracer = result.tracer
        steps = list(tracer)  # canonical (start, job, rank) order
        changes = tracer.mask_changes()
        segment_blobs: list[bytes] = []
        segment_table: list[dict] = []
        for start in range(0, len(steps), self.segment_steps):
            chunk = steps[start : start + self.segment_steps]
            blob = _gzip_member(encode_steps(chunk))
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
            mask_blob = _json_member([change.to_record() for change in changes])
        sched = getattr(result, "sched", None)
        sched_records = sched.to_records() if sched is not None else []
        sched_blob = _json_member(sched_records) if sched_records else b""
        header = {
            "record": "run",
            "version": TRACE_FORMAT_VERSION,
            "key": key,
            "run": run.contents,
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
        data = b"".join(
            [_json_member(header), *segment_blobs, mask_blob, sched_blob]
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

