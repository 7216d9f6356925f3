"""The content-addressed store core both reporting tiers are built on.

One lifecycle, two tier hooks.  :class:`ContentStore`
(:mod:`repro.store.content`) owns addressing, membership, prefix-resolving
reads, index-served listings, ``gc`` with retention, the cross-host
``merge`` union and the atomic write; a tier supplies its suffix, format
version and one hook that opens and validates an entry:

* :class:`~repro.results.store.ResultStore` — metrics entries are
  whole-file JSON, valid only at the current ``STORE_FORMAT_VERSION``;
* :class:`~repro.traces.store.TraceStore` — trace reads are header-only:
  the first gzip member inflates and the header's segment table is
  cross-checked against the artifact's byte size.

:mod:`repro.store.index` provides the append-only JSONL index that makes
scans O(1) on warm stores instead of O(N) directory walks.  The index is
derived metadata — the one-file-per-cell directory stays the only ground
truth.
"""

from repro.store.content import ContentStore, add_gc_arguments, gc_predicate, run_gc
from repro.store.index import INDEX_SUFFIX, INDEX_VERSION, IndexEntry, StoreIndex

__all__ = [
    "ContentStore",
    "INDEX_SUFFIX",
    "INDEX_VERSION",
    "IndexEntry",
    "StoreIndex",
    "add_gc_arguments",
    "gc_predicate",
    "run_gc",
]
