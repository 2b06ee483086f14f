"""Distributed graph operators over edge-list Datasets.

PageRank and triangle counting in the Pregel-by-joins shape: the graph
lives as a (src, dst) edge Dataset, per-iteration state is a node-keyed
Dataset, and every step is an exchange the streaming executor can spill
— no adjacency structure is ever driver-held.

Determinism contract (the same convention as the distributed k-means):
PageRank runs in FIXED-POINT integer arithmetic — ranks are int64
scaled by 10^12, contributions use floor division — so the distributed
sum is order-exact and results are bit-identical at any parallelism /
block layout, and an unrolled integer SQL mirror can verify every
value.  The quantization error per iteration is ≤ outdeg ulps of
10^-12 per node, far below anything a float implementation guarantees
across reduction orders.

Scale notes:
- PageRank: per iteration, one shuffle join (edges x ranks on src — the
  edge side can be pre-partitioned once and reused), one groupby-sum on
  dst, one left join back to the node set.  State is O(nodes); traffic
  is O(edges) per iteration.  Dangling mass is dropped (documented; the
  node set's teleport term keeps every node's rank positive).
- Triangles: node-iterator with the lower-endpoint convention — wedges
  are generated only at each edge's LOWER endpoint under a total
  order, so every triangle is counted exactly once at its lowest
  vertex.  The default order is (degree, id) — the classic
  degree-ordering relabel, which caps per-center wedge work by the
  graph's arboricity (a hot hub ranks highest and generates zero
  wedges); ``degree_relabel=False`` falls back to raw id order, which
  skips the degree exchanges but costs deg² wedges at hot low-id hubs.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..util import atomic_write_bytes, run_bounds, spill_bytes
from .exchange import spill_exchange

PR_SCALE = 10**12


def pagerank(edges, nodes, iters: int = 3, damping_pct: int = 85,
             num_parts: int = 32):
    """Fixed-point PageRank: returns a Dataset (node, rank) with rank
    int64-scaled by ``PR_SCALE``.

    ``edges``: Dataset with int64 columns (src, dst).  ``nodes``:
    Dataset with int64 column (node) — every node that should receive a
    teleport share, including isolated ones.  ``iters`` fixed
    iterations of  rank = base + (damping_pct * Σ_in rank_src //
    outdeg_src) // 100  with base = ((100 - damping_pct) * SCALE) //
    (100 * n_nodes).

    Execution (partition-aligned Pregel): the STATIC sides spill once —
    edges hash-partitioned by src, nodes by node; because the routing
    hash is value-based, an edge partition p and rank/node partition p
    hold exactly the same key population.  Each iteration then runs one
    task per partition that reads its static edges + current ranks from
    disk, computes per-src outdeg in-partition (all of a src's
    out-edges are co-located), pre-aggregates contributions by dst, and
    exchanges ONLY those combined rows — O(min(E_p, V)) per partition
    per iteration, never the O(E) edge set.  The receiving task left
    joins its node partition (teleport for no-inlink nodes) and writes
    the next rank partition in the same aligned layout.  Superseded
    iteration scratch is GC'd eagerly.
    """
    import shutil

    import ray.data as rd

    from .exchange import _SpillMap, xchg_base

    empty = pa.table({"node": pa.array([], pa.int64()), "rank": pa.array([], pa.int64())})
    n_nodes = nodes.count()
    if n_nodes == 0:
        return rd.from_arrow(empty)
    base = ((100 - damping_pct) * PR_SCALE) // (100 * n_nodes)
    r0 = PR_SCALE // n_nodes

    run_root = os.path.join(xchg_base(), "pr-" + uuid.uuid4().hex[:16])

    def _spill(ds, key: str, sub: str) -> dict[int, list[str]]:
        root = os.path.join(run_root, sub)
        man = ds.map_batches(
            _SpillMap(key, num_parts, root), batch_format="pyarrow"
        ).take_all()
        files: dict[int, list[str]] = {}
        for r in man:
            if int(r["part"]) >= 0:
                files.setdefault(int(r["part"]), []).append(r["file"])
        return files

    def _read(sub: str, p: int, files: list[str]) -> pa.Table | None:
        if not files:
            return None
        root = os.path.join(run_root, sub)
        return pa.concat_tables(
            pq.read_table(os.path.join(root, f"part={p}", f)) for f in sorted(files)
        )

    efiles = _spill(
        edges.map_batches(
            lambda b: pa.table(
                {"src": b["src"].cast(pa.int64()), "dst": b["dst"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        ),
        "src", "edges",
    )
    nfiles = _spill(
        nodes.map_batches(
            lambda b: pa.table({"node": b["node"].cast(pa.int64())}),
            batch_format="pyarrow",
        ),
        "node", "nodes",
    )

    state_sub: str | None = None  # None => every rank is the constant r0
    state_files: dict[int, list[str]] = {}
    all_parts = sorted(set(efiles) | set(nfiles))

    for it in range(iters):
        contrib_sub = f"contrib-{it}"
        s_sub, s_files = state_sub, state_files  # captured for the map

        def contrib_map(b: pa.Table) -> pa.Table:
            spill = _SpillMap("dst", num_parts, os.path.join(run_root, contrib_sub))
            outs = []
            for row in b.to_pylist():
                p = int(row["part"])
                et = _read("edges", p, efiles.get(p, []))
                if et is None or et.num_rows == 0:
                    continue
                order = np.argsort(et["src"].to_numpy(), kind="stable")
                src = et["src"].to_numpy()[order]
                dst = et["dst"].to_numpy()[order]
                starts = np.flatnonzero(np.diff(src, prepend=src[0] - 1))
                outdeg = np.diff(np.append(starts, len(src)))
                usrc = src[starts]
                if s_sub is None:
                    rank_u = np.full(len(usrc), r0, dtype=np.int64)
                else:
                    st = _read(s_sub, p, s_files.get(p, []))
                    nsort = np.argsort(st["node"].to_numpy(), kind="stable")
                    snode = st["node"].to_numpy()[nsort]
                    srank = st["rank"].to_numpy()[nsort]
                    rank_u = srank[np.searchsorted(snode, usrc)]
                c = np.repeat(rank_u // outdeg, outdeg)
                t = pa.table({"dst": pa.array(dst), "c": pa.array(c.astype(np.int64))})
                # in-partition combine: the exchange carries distinct
                # dsts, never the edge stream
                g = t.group_by("dst", use_threads=False).aggregate([("c", "sum")])
                outs.append(
                    spill(pa.table({"dst": g["dst"], "c": g["c_sum"].cast(pa.int64())}))
                )
            if not outs:
                return pa.table(
                    {"part": pa.array([-1], pa.int32()), "file": pa.array([""], pa.string())}
                )
            return pa.concat_tables(outs)

        cman = (
            rd.from_items([{"part": p} for p in all_parts],
                          override_num_blocks=max(1, len(all_parts)))
            .map_batches(contrib_map, batch_format="pyarrow", batch_size=None)
            .take_all()
        )
        cfiles: dict[int, list[str]] = {}
        for r in cman:
            if int(r["part"]) >= 0:
                cfiles.setdefault(int(r["part"]), []).append(r["file"])

        next_sub = f"state-{it}"

        def state_reduce(b: pa.Table) -> pa.Table:
            rows_part, rows_file = [], []
            for row in b.to_pylist():
                p = int(row["part"])
                nt = _read("nodes", p, nfiles.get(p, []))
                if nt is None or nt.num_rows == 0:
                    continue
                node = np.sort(nt["node"].to_numpy())
                c = np.zeros(len(node), dtype=np.int64)
                ct = _read(contrib_sub, p, cfiles.get(p, []))
                if ct is not None and ct.num_rows:
                    g = ct.group_by("dst", use_threads=False).aggregate([("c", "sum")])
                    gd = g["dst"].to_numpy()
                    gc = g["c_sum"].to_numpy().astype(np.int64)
                    idx = np.searchsorted(node, gd)
                    # contributions to nodes absent from the node set
                    # (edges referencing unknown ids) are dropped
                    ok = (idx < len(node)) & (node[np.minimum(idx, len(node) - 1)] == gd)
                    np.add.at(c, idx[ok], gc[ok])
                rank = base + (damping_pct * c) // 100
                out = pa.table({"node": pa.array(node), "rank": pa.array(rank)})
                fname = f"state-{uuid.uuid4().hex[:12]}.parquet"
                atomic_write_bytes(
                    os.path.join(run_root, next_sub, f"part={p}", fname), spill_bytes(out)
                )
                rows_part.append(p)
                rows_file.append(fname)
            if not rows_part:
                rows_part, rows_file = [-1], [""]
            return pa.table(
                {"part": pa.array(rows_part, pa.int32()),
                 "file": pa.array(rows_file, pa.string())}
            )

        sman = (
            rd.from_items([{"part": p} for p in all_parts],
                          override_num_blocks=max(1, len(all_parts)))
            .map_batches(state_reduce, batch_format="pyarrow", batch_size=None)
            .take_all()
        )
        new_files: dict[int, list[str]] = {}
        for r in sman:
            if int(r["part"]) >= 0:
                new_files.setdefault(int(r["part"]), []).append(r["file"])
        # superseded scratch: this iteration's contribs + the previous state
        shutil.rmtree(os.path.join(run_root, contrib_sub), ignore_errors=True)
        if state_sub is not None:
            shutil.rmtree(os.path.join(run_root, state_sub), ignore_errors=True)
        state_sub, state_files = next_sub, new_files

    if state_sub is None:  # iters == 0: every node at r0
        return nodes.map_batches(
            lambda b: pa.table(
                {
                    "node": b["node"].cast(pa.int64()),
                    "rank": pa.array(np.full(b.num_rows, r0, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
    paths = [
        os.path.join(run_root, state_sub, f"part={p}", f)
        for p, fs in sorted(state_files.items())
        for f in sorted(fs)
    ]
    if not paths:
        return rd.from_arrow(empty)
    return rd.read_parquet(paths, columns=["node", "rank"])


def triangle_count(edges, num_parts: int = 32, degree_relabel: bool = True,
                   stats: dict | None = None) -> int:
    """Exact global triangle count of the UNDIRECTED graph underlying
    the (src, dst) edge Dataset (direction and duplicates ignored,
    self-loops dropped).

    Exchanges: canonicalize+distinct by (a, b); wedge generation at
    each edge's LOWER endpoint (pairs of its higher neighbors, each
    triangle generated exactly once); wedge-vs-edge match on (y, z).

    ``degree_relabel`` (default, VERDICT r4 item 6 / SCALE.md's named
    fix): "lower/higher" is the total order (degree, id) rather than
    raw id, computed with one extra degree exchange and two attach
    exchanges.  A hot vertex then ranks HIGHEST among its neighbors,
    generates zero wedges itself, and per-center wedge cost is bounded
    by the graph's arboricity — total wedge volume O(E^1.5) worst case
    (Chiba–Nishizeki node-iterator bound) instead of the raw-id
    Σ deg_hi(a)² which degenerates to deg² at a hot low-id hub.  With
    ``degree_relabel=False`` the cheaper 3-exchange id-order pipeline
    runs (fine when degrees are bounded, e.g. k-NN graphs).

    ``stats`` (tests/observability): filled with ``wedge_rows`` — the
    exact number of wedge rows shuffled into the match exchange."""
    import pyarrow.compute as pc

    def canon(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy().astype(np.int64)
        d = b["dst"].to_numpy().astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {"a": pa.array(np.minimum(s, d)), "b": pa.array(np.maximum(s, d))}
        )

    def distinct(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        return t.group_by(["a", "b"], use_threads=False).aggregate([])

    canon_edges = spill_exchange(
        edges.map_batches(canon, batch_format="pyarrow"), ["a", "b"], distinct,
        num_parts=num_parts,
    )

    if degree_relabel:
        canon_edges = _degree_orient(canon_edges, num_parts)
        sort_cols = [("a", "ascending"), ("degb", "ascending"), ("b", "ascending")]
    else:
        sort_cols = [("a", "ascending"), ("b", "ascending")]

    def wedges(t: pa.Table) -> pa.Table:
        # all rows of a center (lower endpoint in the chosen order) are
        # co-located: emit every ordered pair of its higher neighbors
        # (neighbor order = the SAME total order edges are oriented by,
        # so a wedge pair (y, z) matches the edge row (y, z) exactly),
        # pure index arithmetic
        empty = pa.table({"y": pa.array([], pa.int64()), "z": pa.array([], pa.int64()),
                          "is_edge": pa.array([], pa.int8())})
        if t.num_rows == 0:
            return empty
        t = t.sort_by(sort_cols).combine_chunks()
        nbr = t["b"].to_numpy()
        starts, lens = run_bounds(t["a"].combine_chunks())
        m = lens * (lens - 1) // 2
        total = int(m.sum())
        if total == 0:
            return empty
        # per run of length L: pairs (i, j), 0 <= i < j < L, vectorized
        run_of_pair = np.repeat(np.arange(len(lens)), m)
        off = np.arange(total) - np.repeat(np.cumsum(m) - m, m)
        L = lens[run_of_pair]
        # i = row index of the pair's first element within its run:
        # off counts pairs in row-major order ((0,1),(0,2)..,(1,2)..)
        # solve smallest i with cum_i = i*L - i(i+1)/2 > off - ... use
        # the closed form via triangular-number inversion
        # cum(i) = i*(2L - i - 1)/2 pairs before row i
        fi = np.floor(
            (2 * L - 1 - np.sqrt((2 * L - 1) ** 2 - 8 * off.astype(np.float64))) / 2
        ).astype(np.int64)
        # guard against float boundary error (one step each way)
        cum = fi * (2 * L - fi - 1) // 2
        fi -= (cum > off).astype(np.int64)
        cum = fi * (2 * L - fi - 1) // 2
        nxt = (fi + 1) * (2 * L - fi - 2) // 2
        bump = nxt <= off
        fi += bump.astype(np.int64)
        cum = np.where(bump, nxt, cum)
        j = off - cum + fi + 1
        yi = nbr[starts[run_of_pair] + fi]
        zi = nbr[starts[run_of_pair] + j]
        return pa.table(
            {"y": pa.array(yi), "z": pa.array(zi),
             "is_edge": pa.array(np.zeros(total, dtype=np.int8))}
        )

    canon_edges = canon_edges.materialize()  # consumed by wedges AND match
    wedge_ds = spill_exchange(
        canon_edges, "a", wedges, num_parts=num_parts,
        empty_schema=pa.schema([("y", pa.int64()), ("z", pa.int64()),
                                ("is_edge", pa.int8())]),
    )
    edge_tagged = canon_edges.map_batches(
        lambda b: pa.table(
            {"y": b["a"].cast(pa.int64()), "z": b["b"].cast(pa.int64()),
             "is_edge": pa.array(np.ones(b.num_rows, dtype=np.int8))}
        ),
        batch_format="pyarrow",
    )

    def match(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        t = t.sort_by(
            [("y", "ascending"), ("z", "ascending")]
        ).combine_chunks()
        key = pc.binary_join_element_wise(
            pc.cast(t["y"], pa.string()), pc.cast(t["z"], pa.string()), ":"
        )
        starts, lens = run_bounds(key)
        is_e = t["is_edge"].to_numpy().astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(is_e)])
        has_edge = (cs[starts + lens] - cs[starts]) > 0
        wedge_cnt = lens - (cs[starts + lens] - cs[starts])
        n = int((wedge_cnt * has_edge).sum())
        return pa.table({"n": pa.array([n], type=pa.int64())})

    mst: dict = {}
    parts = spill_exchange(
        wedge_ds.union(edge_tagged), ["y", "z"], match, num_parts=num_parts,
        stats=mst, empty_schema=pa.schema([("n", pa.int64())]),
    )
    n = int(parts.sum("n") or 0)
    if stats is not None:
        # match-exchange spill = wedge rows + edge-marker rows
        stats["wedge_rows"] = int(mst.get("spilled_rows", 0)) - canon_edges.count()
    return n


def _degree_orient(canon_edges, num_parts: int):
    """Reorient canonical distinct edges by the total order (degree,
    id): returns (a, b, degb) rows where a is the LOWER endpoint under
    that order.  One degree exchange (per-batch partial counts) + two
    attach exchanges; every row volume is O(E)."""
    _I64 = pa.int64()

    def node_partials(b: pa.Table) -> pa.Table:
        n = np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()])
        u, c = np.unique(n, return_counts=True)
        return pa.table({"node": pa.array(u.astype(np.int64)),
                         "cnt": pa.array(c.astype(np.int64))})

    def sum_deg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"node": pa.array([], _I64), "deg": pa.array([], _I64)})
        g = t.group_by("node", use_threads=False).aggregate([("cnt", "sum")])
        return pa.table({"node": g["node"], "deg": g["cnt_sum"]})

    deg_ds = spill_exchange(
        canon_edges.map_batches(node_partials, batch_format="pyarrow"),
        "node", sum_deg, num_parts=num_parts,
        empty_schema=pa.schema([("node", _I64), ("deg", _I64)]),
    )

    def _attach(edges_ds, key_col: str, out_col: str):
        """One exchange: co-locate edge rows with the key node's degree
        row and copy the degree onto each edge (run-start propagate)."""

        def tag_edges(b: pa.Table) -> pa.Table:
            return pa.table({
                "k": b[key_col].cast(_I64), "a": b["a"].cast(_I64),
                "b": b["b"].cast(_I64),
                "dega": (b["dega"].cast(_I64) if "dega" in b.schema.names
                         else pa.nulls(b.num_rows, _I64)),
                "d": pa.nulls(b.num_rows, _I64),
                "is_deg": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
            })

        def tag_deg(b: pa.Table) -> pa.Table:
            return pa.table({
                "k": b["node"].cast(_I64), "a": pa.nulls(b.num_rows, _I64),
                "b": pa.nulls(b.num_rows, _I64),
                "dega": pa.nulls(b.num_rows, _I64),
                "d": b["deg"].cast(_I64),
                "is_deg": pa.array(np.ones(b.num_rows, dtype=np.int8)),
            })

        def attach(t: pa.Table) -> pa.Table:
            cols = {"a": pa.array([], _I64), "b": pa.array([], _I64),
                    "dega": pa.array([], _I64), out_col: pa.array([], _I64)}
            if t.num_rows == 0:
                return pa.table(cols)
            t = t.sort_by([("k", "ascending"), ("is_deg", "descending")]).combine_chunks()
            starts, lens = run_bounds(t["k"].combine_chunks())
            d = t["d"].to_numpy(zero_copy_only=False)
            row_deg = d[np.repeat(starts, lens)]  # the deg row leads its run
            is_e = t["is_deg"].to_numpy(zero_copy_only=False) == 0
            out = pa.table({
                "a": t["a"], "b": t["b"], "dega": t["dega"],
                out_col: pa.array(row_deg.astype(np.int64)),
            }).filter(pa.array(is_e))
            return out

        tagged = edges_ds.map_batches(tag_edges, batch_format="pyarrow").union(
            deg_ds.map_batches(tag_deg, batch_format="pyarrow")
        )
        return spill_exchange(
            tagged, "k", attach, num_parts=num_parts,
            empty_schema=pa.schema([("a", _I64), ("b", _I64),
                                    ("dega", _I64), (out_col, _I64)]),
        )

    with_a = _attach(canon_edges, "a", "dega_new")

    def fold_a(b: pa.Table) -> pa.Table:
        return pa.table({"a": b["a"], "b": b["b"], "dega": b["dega_new"]})

    with_a = with_a.map_batches(fold_a, batch_format="pyarrow")
    with_both = _attach(with_a, "b", "degb")

    def reorient(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        da = b["dega"].to_numpy(zero_copy_only=False)
        db = b["degb"].to_numpy(zero_copy_only=False)
        swap = (da > db) | ((da == db) & (a > bb))
        return pa.table({
            "a": pa.array(np.where(swap, bb, a)),
            "b": pa.array(np.where(swap, a, bb)),
            "degb": pa.array(np.where(swap, da, db)),
        })

    return with_both.map_batches(reorient, batch_format="pyarrow")
