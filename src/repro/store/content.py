"""The lifecycle both content-addressed store tiers share.

:class:`ContentStore` owns everything a one-file-per-cell store does
regardless of what a file holds: addressing (``<root>/<key><suffix>``), the
lazy :class:`~repro.store.index.StoreIndex`, membership, prefix-resolving
reads, index-served listings, removal, garbage collection with retention,
the cross-host ``merge`` union and the atomic temp-file + rename write that
journals every put.  A tier subclass supplies only what is specific to it:

* class attributes ``suffix``, ``format_version``, ``kind`` (the index
  header's tier name), ``_NOUN`` (error messages), ``_UNITS`` (singular and
  plural for log lines), ``_READ_ERRORS`` and ``_log``;
* ``_read_entry(key, data=None)`` — open and validate one entry, from its
  file or from bytes already in memory, raising one of ``_READ_ERRORS`` on
  a missing, malformed or stale one;
* ``_summarise(entry)`` — the render-ready fields its ``ls`` table prints;
* its own ``put``/``get`` and entry type, whose ``version`` property names
  the format the entry decoded as.

Every rule about bad entries follows from the one hook: a bad entry is a
``get`` miss, is not ``in`` the store, is skipped by ``entries`` and
``summaries``, is always collected by ``gc``, and is never imported (nor
left shadowing a good incoming one) by ``merge``.
"""

from __future__ import annotations

import argparse
import logging
import os
from pathlib import Path
from typing import ClassVar, Iterator

from repro.store.index import IndexEntry, StoreIndex


class ContentStore:
    """Content-addressed, mergeable store of one file per run cell."""

    suffix: ClassVar[str]
    format_version: ClassVar[int]
    kind: ClassVar[str]
    _NOUN: ClassVar[str]
    _UNITS: ClassVar[tuple[str, str]]
    _READ_ERRORS: ClassVar[tuple[type[BaseException], ...]]
    _log: ClassVar[logging.Logger]

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._index: StoreIndex | None = None

    def __getstate__(self) -> dict:
        # Stores ship into pool/SSH workers (WorkerContext); the index is
        # per-process derived state and rebuilds lazily on the other side.
        return {name: value for name, value in vars(self).items() if name != "_index"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index = None

    @property
    def index(self) -> StoreIndex:
        """The store's append-only JSONL index (derived metadata; the entry
        files stay the only ground truth)."""
        if self._index is None:
            self._index = StoreIndex(
                self.root,
                suffix=self.suffix,
                store_version=self.format_version,
                describe=self._describe,
                kind=self.kind,
            )
        return self._index

    def _describe(self, path: Path) -> tuple[object, dict | None]:
        """Index rebuild callback: a file's format version and summary, with
        every failure mapping to "present but not renderable" — never raises."""
        try:
            entry = self._read_entry(path.name[: -len(self.suffix)])
        except self._READ_ERRORS:
            return None, None
        return entry.version, self._summarise(entry)

    # -- tier hooks --------------------------------------------------------------

    def _read_entry(self, key: str, data: bytes | None = None):
        raise NotImplementedError

    @staticmethod
    def _summarise(entry) -> dict | None:
        raise NotImplementedError

    # -- addressing --------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def scan(self) -> frozenset[str]:
        """Every key present, from the index journal — O(1) filesystem work
        on a warm store, one ``listdir`` + stat-diff after any write.

        The campaign warm-scan and :meth:`merge` probe membership for N
        cells against this one set.  Presence is name-level only — readers
        still validate format on access, so a scanned key can turn out to
        be a miss when its entry is stale — and the index self-heals from
        the directory whenever it is missing, torn or disagrees with it.
        """
        if not self.root.is_dir():
            return frozenset()
        return self.index.scan()

    def keys(self) -> list[str]:
        return sorted(self.scan())

    def __len__(self) -> int:
        return len(self.scan())

    def _lookup(self, key: str):
        """The validated entry under ``key``, or ``None`` when it is
        missing, unreadable, malformed or stale."""
        try:
            return self._read_entry(key)
        except self._READ_ERRORS:
            return None

    def __contains__(self, run) -> bool:
        """Whether ``get(run)`` would hit: the cell's entry exists, reads and
        validates.  A stale or corrupt file is not "in" the store."""
        return self._lookup(run.key) is not None

    # -- reads -------------------------------------------------------------------

    def load(self, key: str):
        """Read one entry by (possibly abbreviated, unambiguous) key."""
        matches = [k for k in self.keys() if k.startswith(key)]
        if not matches:
            raise KeyError(f"no {self._NOUN} with key {key!r} in {self.root}")
        if len(matches) > 1:
            raise KeyError(f"key {key!r} is ambiguous ({len(matches)} matches)")
        entry = self._read_entry(matches[0])
        self.index.note_read(matches[0])
        return entry

    def summaries(
        self, prefix: str | None = None, limit: int | None = None
    ) -> list[IndexEntry]:
        """Render-ready listing rows straight from the index — one journal
        read instead of N entry reads.  Keys whose file is stale or
        unreadable (``summary is None``) are excluded, matching
        :meth:`entries`'s visibility rule; rows come in key order."""
        if not self.root.is_dir():
            return []
        rows = self.index.live_entries()
        out: list[IndexEntry] = []
        for key in sorted(rows):
            if prefix is not None and not key.startswith(prefix):
                continue
            if rows[key].summary is None:
                continue
            out.append(rows[key])
            if limit is not None and len(out) >= limit:
                break
        return out

    def entries(self) -> Iterator:
        """All live entries, sorted by key (corrupt or old-format files are
        skipped — same visibility rule as ``get``)."""
        for key in self.keys():
            entry = self._lookup(key)
            if entry is not None:
                yield entry

    # -- writes ------------------------------------------------------------------

    def _write(self, key: str, data: bytes, entry) -> Path:
        """Store ``data`` (the serialised ``entry``) under ``key`` and
        journal it in the index."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        # Unique temp name + atomic rename: concurrent writers of the same
        # cell (pool workers, campaign shards) cannot interleave bytes.
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        tmp.write_bytes(data)
        tmp.replace(path)
        try:
            st = path.stat()
        except OSError:
            return path  # the next scan reconciles the written file in
        self.index.record_put(
            key,
            size=st.st_size,
            mtime_ns=st.st_mtime_ns,
            version=entry.version,
            summary=self._summarise(entry),
        )
        return path

    def remove(self, key: str) -> None:
        self.path_for(key).unlink(missing_ok=True)
        self.index.record_remove(key)

    # -- maintenance -------------------------------------------------------------

    def gc(
        self,
        predicate=None,
        dry_run: bool = False,
        lru_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> list[str]:
        """Collect entries: unreadable/old-format files always, plus any
        entry satisfying ``predicate``, plus the retention policies' picks —
        ``max_age`` dooms entries whose file is older than that many
        seconds, ``lru_bytes`` then evicts least-recently-read entries until
        the survivors total at most that many bytes (recency comes from the
        index's read tracking).  Returns the collected keys."""
        doomed: list[str] = []
        for key in self.keys():
            entry = self._lookup(key)
            if entry is None or (predicate is not None and predicate(entry)):
                doomed.append(key)
        doomed.extend(
            self.index.retention_doomed(
                lru_bytes=lru_bytes, max_age=max_age, now=now, exclude=set(doomed)
            )
        )
        if not dry_run:
            for key in doomed:
                self.remove(key)
                self._log.debug("gc removed %s", key[:12])
        self._log.info(
            "gc %s %d of %d %s in %s",
            "would remove" if dry_run else "removed",
            len(doomed),
            len(self.keys()) + (0 if dry_run else len(doomed)),
            self._UNITS[len(doomed) != 1],
            self.root,
        )
        return doomed

    def merge(self, other: "ContentStore", overwrite: bool = False) -> int:
        """Union another store of the same tier into this one — the
        campaign-sharding transport: shards fill disjoint key sets, the
        union is the campaign.

        Returns the number of entries copied.  With ``overwrite=False`` keys
        already present locally win, which is safe because entries are pure
        functions of their key's spec.  Stale or unreadable source entries
        are never imported, and a stale local file never shadows a current
        incoming one — cells whose serialised contents survived a schema
        bump keep their key, so a pre-bump shard must not block the
        post-bump entry.  Each source file is read once: the bytes copied
        are the bytes validated, indexed under the version they decode as.
        """
        copied = 0
        present = self.scan()
        for key in sorted(other.scan()):
            # Check the local side first: a warm re-merge (coordinator
            # re-running after each shard lands) then skips without ever
            # reading the source store — and the single-pass scan above
            # means absent keys cost no filesystem probe at all.
            if not overwrite and key in present and self._lookup(key) is not None:
                continue
            try:
                data = other.path_for(key).read_bytes()
                entry = self._read_entry(key, data)
            except self._READ_ERRORS:
                continue
            self._write(key, data, entry)
            copied += 1
        self._log.info(
            "merged %d %s from %s", copied, self._UNITS[copied != 1], other.root
        )
        return copied


# -- the gc subcommand of both tiers' CLIs ------------------------------------------


def add_gc_arguments(parser: argparse.ArgumentParser, noun: str) -> None:
    """The ``gc`` subcommand's filter, retention and ``--delete`` flags;
    ``noun`` names the tier's entries in the help texts."""
    parser.add_argument("--scenario", default=None,
                        help=f"also collect {noun} of this scenario")
    parser.add_argument("--workload-contains", default=None, metavar="SUBSTRING",
                        help=f"also collect {noun} whose workload label contains this")
    parser.add_argument("--all", action="store_true", help=f"collect all {noun}")
    parser.add_argument("--lru", type=int, default=None, metavar="BYTES",
                        help=f"evict least-recently-read {noun} until the "
                             "survivors total at most BYTES")
    parser.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                        help=f"also collect {noun} whose file is older than this")
    parser.add_argument("--delete", action="store_true",
                        help="actually delete (default: dry run)")


def gc_predicate(args: argparse.Namespace):
    """The entry filter the ``gc`` flags select, or ``None`` to collect only
    unreadable/old-format entries."""
    if args.all:
        return lambda entry: True
    if args.scenario is None and args.workload_contains is None:
        return None

    def predicate(entry) -> bool:
        if args.scenario is not None and entry.contents["scenario"] != args.scenario:
            return False
        return (
            args.workload_contains is None
            or args.workload_contains in entry.run.workload.label
        )

    return predicate


def run_gc(store: ContentStore, args: argparse.Namespace, unit: str) -> int:
    """Run the ``gc`` subcommand against ``store`` and print what it
    collected (or would collect, without ``--delete``)."""
    removed = store.gc(
        gc_predicate(args),
        dry_run=not args.delete,
        lru_bytes=args.lru,
        max_age=args.max_age,
    )
    verb = "removed" if args.delete else "would remove"
    print(f"gc {store.root}: {verb} {len(removed)} {unit}")
    for key in removed:
        print(f"  {key[:12]}")
    return 0
