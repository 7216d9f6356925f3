"""``python -m repro.results`` — inspect and maintain a result store.

Subcommands::

    ls    [--store ROOT]                    list stored cells
    show  KEY [--store ROOT]                per-job metrics of one cell
    diff  STORE_A STORE_B                   cell-by-cell campaign comparison
    merge OUT SHARD [SHARD ...] [--traces T_OUT T_SHARD ...]
                                            union N shard stores into OUT,
                                            optionally shipping the trace
                                            tier in the same command
    gc    [--store ROOT] [filters] [--delete]   collect entries

``diff`` exits 0 when the stores agree on every shared cell and have the same
key set, 1 otherwise — so two shards (or a re-run) can be verified from CI.
``merge`` is the campaign-sharding transport: each host runs its
``CampaignSpec.shard(n)`` slice into a local store, ships the directory, and
the coordinator merges them all in one call (entries are pure functions of
their keys, so collisions are idempotent; first store wins unless
``--overwrite``).  ``gc`` is a dry run unless ``--delete`` is given;
unreadable or old-format entries are always candidates.
"""

from __future__ import annotations

import argparse
import sys

from repro.results.query import diff_stores, render_diff, render_entry, render_store_table
from repro.results.store import DEFAULT_STORE_ROOT, ResultStore
from repro.store import add_gc_arguments, run_gc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.results",
        description="Inspect a content-addressed campaign result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list stored cells")
    ls.add_argument("--store", default=str(DEFAULT_STORE_ROOT),
                    help=f"store root (default {DEFAULT_STORE_ROOT})")
    ls.add_argument("--limit", type=int, default=None, metavar="N",
                    help="print at most N rows")
    ls.add_argument("--prefix", default=None,
                    help="only list keys starting with this hex prefix")

    show = sub.add_parser("show", help="show one cell's full metrics")
    show.add_argument("key", help="content key (an unambiguous prefix is enough)")
    show.add_argument("--store", default=str(DEFAULT_STORE_ROOT),
                      help=f"store root (default {DEFAULT_STORE_ROOT})")

    diff = sub.add_parser("diff", help="diff two stores cell by cell")
    diff.add_argument("store_a")
    diff.add_argument("store_b")

    merge = sub.add_parser(
        "merge", help="union one or more shard stores into a target store"
    )
    merge.add_argument("out", help="target store root (created if missing)")
    merge.add_argument("shards", nargs="+", metavar="SHARD",
                       help="shard store roots to merge in, in order")
    merge.add_argument("--overwrite", action="store_true",
                       help="later shards overwrite existing keys "
                            "(default: first occurrence wins)")
    merge.add_argument("--traces", nargs="+", default=None,
                       metavar="TRACE_ROOT",
                       help="also merge trace tiers: first value is the "
                            "target trace store, the rest are the shards' "
                            "trace stores — so one command ships both tiers "
                            "of a sharded campaign")

    gc = sub.add_parser("gc", help="collect entries (dry run without --delete)")
    gc.add_argument("--store", default=str(DEFAULT_STORE_ROOT),
                    help=f"store root (default {DEFAULT_STORE_ROOT})")
    add_gc_arguments(gc, "entries")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ls":
        store = ResultStore(args.store)
        print(f"store {store.root}: {len(store)} cell(s)")
        print(render_store_table(store, limit=args.limit, prefix=args.prefix))
        return 0
    if args.command == "show":
        store = ResultStore(args.store)
        try:
            entry = store.load(args.key)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        print(render_entry(entry))
        return 0
    if args.command == "diff":
        diff = diff_stores(ResultStore(args.store_a), ResultStore(args.store_b))
        print(render_diff(diff))
        return 0 if diff.identical else 1
    if args.command == "merge":
        from repro.traces.store import TraceStore

        out = ResultStore(args.out)
        if args.traces is not None and len(args.traces) < 2:
            print("--traces needs a target root and at least one shard root",
                  file=sys.stderr)
            return 2
        # A typo'd shard path must not read as a successful (empty) merge:
        # the whole point is transporting another host's cells.
        trace_shards = args.traces[1:] if args.traces is not None else []
        missing = [root for root in args.shards if not ResultStore(root).root.is_dir()]
        missing += [root for root in trace_shards if not TraceStore(root).root.is_dir()]
        if missing:
            for root in missing:
                print(f"shard store {root} does not exist", file=sys.stderr)
            return 1
        total = 0
        for shard_root in args.shards:
            shard = ResultStore(shard_root)
            copied = out.merge(shard, overwrite=args.overwrite)
            total += copied
            print(f"merged {shard.root}: {copied} of {len(shard)} entr(y/ies) copied")
        print(f"store {out.root}: {len(out)} cell(s) after merging {total}")
        if args.traces is not None:
            trace_out = TraceStore(args.traces[0])
            trace_total = 0
            for shard_root in trace_shards:
                shard = TraceStore(shard_root)
                copied = trace_out.merge(shard, overwrite=args.overwrite)
                trace_total += copied
                print(f"merged traces {shard.root}: "
                      f"{copied} of {len(shard)} trace(s) copied")
            print(f"trace store {trace_out.root}: {len(trace_out)} trace(s) "
                  f"after merging {trace_total}")
        return 0
    if args.command == "gc":
        return run_gc(ResultStore(args.store), args, "entr(y/ies)")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
