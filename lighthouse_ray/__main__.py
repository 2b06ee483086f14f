"""CLI: build and query an index from the shell.

    python -m lighthouse_ray build  --source <parquet|dir> --index <dir> [--parts N] [--shards N] [--resume]
    python -m lighthouse_ray search --index <dir> -s "query" [--size N] [--from N] [--channel X] ...
    python -m lighthouse_ray autocomplete --index <dir> -s "pref" [--size N]
    python -m lighthouse_ray status --index <dir>
    python -m lighthouse_ray serve  --index <dir> [--host H] [--port P] [--partitions K] [--replicas R]
    python -m lighthouse_ray sync   --source <parquet> --workdir <dir> [--cycles N] [--interval S]

The CLI owns its Ray session (library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Start a local Ray session unless the caller already runs one.
    True when this call started it, so the command must shut it down
    (an in-process caller's session is left running)."""
    import ray

    started = not ray.is_initialized()
    if started:
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="lighthouse_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--source", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--parts", type=int, default=32)
    b.add_argument("--shards", type=int, default=64)
    b.add_argument("--resume", action="store_true")
    b.add_argument("--num-cpus", type=int, default=None)

    s = sub.add_parser("search")
    s.add_argument("--index", required=True)
    s.add_argument("-s", dest="query", required=True)
    s.add_argument("--size", type=int, default=10)
    s.add_argument("--from", dest="from_", type=int, default=0)
    s.add_argument("--channel", default=None)
    s.add_argument("--claim-type", default=None)
    s.add_argument("--media-type", default=None)
    s.add_argument("--nsfw", type=lambda v: v.lower() == "true", default=None)
    s.add_argument("--sort-by", default=None)
    s.add_argument("--related-to", default=None)
    s.add_argument("--resolve", action="store_true")
    s.add_argument("--debug", action="store_true")

    a = sub.add_parser("autocomplete")
    a.add_argument("--index", required=True)
    a.add_argument("-s", dest="query", required=True)
    a.add_argument("--size", type=int, default=10)

    st = sub.add_parser("status")
    st.add_argument("--index", required=True)

    sy = sub.add_parser("sync", help="cron sync loop: pull changed source rows, "
                                     "apply delta, compact per policy (cron.go:15-24)")
    sy.add_argument("--source", required=True, help="parquet with corpus cols + id/modified_at/deleted")
    sy.add_argument("--workdir", required=True)
    sy.add_argument("--cycles", type=int, default=1)
    sy.add_argument("--interval", type=float, default=900.0, help="seconds between ticks (cron default 15 min)")
    sy.add_argument("--batch-size", type=int, default=1000)
    sy.add_argument("--blocklist", default=None,
                    help='JSON {"doc_ids": [...], "channels": [...]} re-read each tick')
    sy.add_argument("--parts", type=int, default=32)
    sy.add_argument("--shards", type=int, default=64)
    sy.add_argument("--num-cpus", type=int, default=None)

    sv = sub.add_parser("serve", help="HTTP API server (/search /autocomplete /status /metrics)")
    sv.add_argument("--index", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=50005)  # reference default, app/test/test.go:21
    sv.add_argument("--replicas", type=int, default=2,
                    help="R copies of every range, taken round-robin per request")
    sv.add_argument("--partitions", type=int, default=1,
                    help="K ordinal ranges queried in parallel per request")
    sv.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)

    if args.cmd == "serve":
        owns_ray = _init_ray(args.num_cpus)
        import ray

        from .query.http_server import LighthouseHTTPServer

        srv = LighthouseHTTPServer(
            args.index, host=args.host, port=args.port,
            num_partitions=args.partitions, num_replicas=args.replicas,
        )
        print(json.dumps({"serving": f"http://{args.host}:{srv.port}/search?s=test"}))
        try:
            srv.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            srv.stop()
            if owns_ray:
                ray.shutdown()
        return 0

    if args.cmd == "sync":
        owns_ray = _init_ray(args.num_cpus)
        import ray

        from .config import IndexConfig
        from .state import SyncDaemon

        cfg = IndexConfig(num_doc_parts=args.parts, num_term_shards=args.shards)
        daemon = SyncDaemon(
            args.workdir, args.source, cfg=cfg, batch_size=args.batch_size,
            blocklist_path=args.blocklist,
        )
        results = daemon.run(
            args.cycles,
            interval_s=args.interval,
            on_cycle=lambda i, r: print(json.dumps({"cycle": i, **r}), flush=True),
        )
        print(json.dumps({"cycles": len(results), "live": daemon.gens["live"]}))
        if owns_ray:
            ray.shutdown()
        return 0

    if args.cmd == "build":
        owns_ray = _init_ray(args.num_cpus)
        import ray

        from .build import build_index
        from .config import IndexConfig

        res = build_index(
            args.source,
            args.index,
            IndexConfig(num_doc_parts=args.parts, num_term_shards=args.shards),
            resume=args.resume,
        )
        print(json.dumps({"n_docs": res.n_docs, "n_postings": res.n_postings, "index": res.index_dir}))
        if owns_ray:
            ray.shutdown()
        return 0

    from .index import IndexReader
    from .query import SearchEngine, SearchError

    engine = SearchEngine(IndexReader(args.index))
    try:
        if args.cmd == "search":
            df = engine.search(
                s=args.query, size=args.size, from_=args.from_, channel=args.channel,
                claim_type=args.claim_type, media_type=args.media_type, nsfw=args.nsfw,
                sort_by=args.sort_by, related_to=args.related_to, resolve=args.resolve,
                debug=args.debug,
            )
            print(df.to_json(orient="records"))
        elif args.cmd == "autocomplete":
            print(json.dumps(engine.autocomplete(s=args.query, size=args.size)))
        elif args.cmd == "status":
            print(json.dumps(engine.status()))
    except SearchError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
