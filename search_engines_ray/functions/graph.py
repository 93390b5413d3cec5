"""Distributed connected components over an edge Dataset.

Alternating large-star / small-star (Kiveris, Lattanzi, Mirrokni,
Rastogi, Vassilvitskii, "Connected Components in MapReduce and Beyond",
SoCC 2014): each round is a hash-partitioned groupby whose per-partition
work is pure vectorized segmentation — NO joins, NO driver-side state,
so the edge set never has to fit one machine. Converges in O(log n)
rounds to a star forest: every node points at its component minimum.

This is the scale path behind the dedup canonicalization
(`dedup._compress_canonical`): the driver union-find there is fine while
duplicate-group members are rare, but on duplicate-heavy webtext the
edge set is proportional to the corpus and must stay distributed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .partitioning import (
    ROWS_PER_PART, estimate_rows, exchange, part_of, plan,
)

# Rows each exchange moves per input row (see partitioning.plan),
# measured on sf0.1 by the registry entries:
#   connected_components  2.0 per edge (each round symmetrizes the
#                         135,001-edge chain graph);
#   pagerank, hits        2.7 per node: the 5,000-node link graph has
#                         1.7 edges per node, plus one zero row per node;
#   anchor_text           1 per link row, by construction (its input is
#                         the link table).
_EDGES_PER_PART = ROWS_PER_PART // 2
_NODES_PER_PART = int(ROWS_PER_PART / 2.7)
_LINKS_PER_PART = ROWS_PER_PART


def _large_star(df: pd.DataFrame) -> pd.DataFrame:
    """Γ(u) grouped by u (symmetrized input): m = min(Γ(u) ∪ {u});
    emit (v, m) for v ∈ Γ(u), v > u."""
    df = df.sort_values(["src", "dst"], ignore_index=True)
    src = df["src"].to_numpy()
    dst = df["dst"].to_numpy()
    bound = np.concatenate(([True], src[1:] != src[:-1]))
    run_id = np.cumsum(bound) - 1
    first = np.flatnonzero(bound)
    m_run = np.minimum(dst[first], src[first])   # dst sorted within run
    m = m_run[run_id]
    mask = dst > src
    return pd.DataFrame({"src": dst[mask], "dst": m[mask]}) \
        .drop_duplicates(ignore_index=True)


def _small_star(df: pd.DataFrame) -> pd.DataFrame:
    """Edges oriented max→min, grouped by the max endpoint u:
    m = min(Γ(u)); emit (v, m) for v ∈ Γ(u) \\ {m}, plus (u, m)."""
    df = df.sort_values(["src", "dst"], ignore_index=True)
    src = df["src"].to_numpy()
    dst = df["dst"].to_numpy()
    bound = np.concatenate(([True], src[1:] != src[:-1]))
    run_id = np.cumsum(bound) - 1
    first = np.flatnonzero(bound)
    m_run = dst[first]                           # all dst < src
    m = m_run[run_id]
    mask = dst != m
    return pd.DataFrame({
        "src": np.concatenate((dst[mask], src[first])),
        "dst": np.concatenate((m[mask], m_run)),
    }).drop_duplicates(ignore_index=True)


def connected_components(edges, src_col: str = "src", dst_col: str = "dst",
                         *, num_parts: int | None = None,
                         max_rounds: int = 64):
    """→ Dataset (id, component): component = min node id reachable from
    `id`. Every node that appears in `edges` (either endpoint) gets a
    row; component roots map to themselves. Self-loops are allowed and
    only assert node existence.

    Each round: symmetrize → large-star (groupby hash(src)) → orient
    max→min → small-star (groupby hash(src)). Convergence = the edge
    multiset reaches its fixpoint (star forest), detected by an exact
    count plus a wraparound sum of per-row hashes — sound here because
    the per-node minimum only ever decreases, so two distinct
    consecutive states collide with probability ~2⁻⁶⁴ and never
    adversarially."""

    def normalize(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"src": b[src_col], "dst": b[dst_col]})
        return out.drop_duplicates(ignore_index=True)

    def symmetrize(b: pd.DataFrame) -> pd.DataFrame:
        mask = (b["src"] != b["dst"]).to_numpy()
        fwd = b[mask]
        out = pd.DataFrame({
            "src": np.concatenate((fwd["src"].to_numpy(),
                                   fwd["dst"].to_numpy())),
            "dst": np.concatenate((fwd["dst"].to_numpy(),
                                   fwd["src"].to_numpy()))})
        out["part"] = part_of(out["src"].to_numpy(), parts)
        return out

    def orient(b: pd.DataFrame) -> pd.DataFrame:
        s = b["src"].to_numpy()
        d = b["dst"].to_numpy()
        swap = d > s
        hi = np.where(swap, d, s)
        lo = np.where(swap, s, d)
        keep = hi != lo
        out = pd.DataFrame({"src": hi[keep], "dst": lo[keep]})
        out["part"] = part_of(out["src"].to_numpy(), parts)
        return out

    def digest(b: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(b[["src", "dst"]], index=False)
        return pd.DataFrame({"n": [np.int64(len(b))],
                             "h": [np.uint64(h.to_numpy().sum())]})

    # self-loop-only nodes never survive symmetrize/orient — collect
    # them per block (tiny) so they still appear in the output
    def selfies(b: pd.DataFrame) -> pd.DataFrame:
        s = b[(b[src_col] == b[dst_col]).to_numpy()][src_col]
        return pd.DataFrame({"id": s.drop_duplicates()})

    # tiny by construction (distinct self-loop endpoints per block);
    # materialized so the no-self-loop common case skips the final
    # anti-join shuffle entirely
    self_nodes = edges.map_batches(selfies, batch_format="pandas") \
        .materialize()

    cur = edges.map_batches(normalize, batch_format="pandas").materialize()
    # cur is materialized: its count reads block metadata, no execution
    parts, blocks = plan(cur.count(), _EDGES_PER_PART, num_parts)
    prev_sig = None
    for _ in range(max_rounds):
        cur = exchange(cur.map_batches(symmetrize, batch_format="pandas"),
                       blocks, _large_star, "pandas")
        cur = exchange(cur.map_batches(orient, batch_format="pandas"),
                       blocks, _small_star, "pandas")
        cur = cur.materialize()
        d = cur.map_batches(digest, batch_format="pandas").to_pandas()
        sig = (int(d["n"].sum()),
               int(np.uint64(d["h"].to_numpy(dtype=np.uint64).sum())))
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds")

    # cur is a star forest: (member, root) with member > root, unique per
    # member. Roots appear only as dst — route each distinct root to its
    # owning hash partition so (root, root) rows dedupe without a
    # driver-side set.
    def root_parts(b: pd.DataFrame) -> pd.DataFrame:
        r = b["dst"].drop_duplicates()
        return pd.DataFrame({"id": r,
                             "part": part_of(r.to_numpy(), parts)})

    def emit_roots(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].drop_duplicates()
        return pd.DataFrame({"id": ids, "component": ids})

    roots = exchange(cur.map_batches(root_parts, batch_format="pandas"),
                     blocks, emit_roots, "pandas")

    def member_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id": b["src"], "component": b["dst"]})

    members = cur.map_batches(member_rows, batch_format="pandas")
    out = members.union(roots)

    if self_nodes.count() == 0:
        return out

    # self-loop-only singletons: nodes never seen by the star rounds.
    # Anti-join them against the known output, hash-partitioned on id —
    # only taken when self-loops exist at all.
    def anti_join(g: pd.DataFrame) -> pd.DataFrame:
        known = g[(g["_kind"] == 0).to_numpy()]
        cand = g[(g["_kind"] == 1).to_numpy()]
        keep = cand[~cand["id"].isin(set(known["id"]))].drop_duplicates("id")
        return pd.concat((known, keep),
                         ignore_index=True)[["id", "component"]]

    tagged_out = out.map_batches(
        lambda b: b.assign(_kind=np.int8(0),
                           part=part_of(b["id"].to_numpy(), parts)),
        batch_format="pandas")
    tagged_lone = self_nodes.map_batches(
        lambda b: b.assign(component=b["id"], _kind=np.int8(1),
                           part=part_of(b["id"].to_numpy(), parts)),
        batch_format="pandas")
    return exchange(tagged_out.union(tagged_lone), blocks, anti_join,
                    "pandas")


def pagerank(edges, nodes, iters: int = 3, damping=(85, 100),
             scale: int = 10 ** 12, num_parts: int | None = None,
             seeds=None):
    """→ Dataset (node int64, outdeg int64, rank_u int64): integer
    fixed-point PageRank after ``iters`` synchronous power iterations.
    ``rank_u`` is the rank in units of 1/``scale`` (start mass
    ``scale // n`` per node); damping is the rational
    ``damping[0]/damping[1]`` and EVERY step is int64 arithmetic —
    per-edge contribution ``rank_u // outdeg``, damped in-sum
    ``(d_num * sum) // d_den`` — so distributed partial sums associate
    exactly and the result is bit-identical to any serial evaluation
    (the usual float PageRank differs in ulps between partition
    orders). The remainder mass shed by each integer division is
    deliberately NOT redistributed: determinism over mass conservation
    (total mass decays < iters * n / scale relative).

    Dangling nodes (outdeg 0) donate their damped mass uniformly:
    ``((d_num * D) // d_den) // n`` per node, ``D`` = total dangling
    rank, computed per iteration as a scalar aggregate over the
    (small) rank table — and skipped entirely when the graph has no
    dangling nodes.

    Scale shape: per iteration, ONE tagged-union exchange joins the
    rank table onto the edge list by ``src`` (``shuffle_hash_join`` —
    ranks are n_nodes × 24 B, edges are the big side) and ONE groupby
    exchange sums contributions per ``dst``; the union with per-node
    zero rows folds the "nodes with no in-links" left-join into that
    same exchange. The rank table is materialized each iteration to
    cut lineage (it is tiny relative to the corpus). On a real
    cluster the edge list would be hash-partitioned by ``src`` once
    and kept in place across iterations; Ray Data has no persistent
    partition cache, so each iteration re-ships the edges — fine for
    the small ``iters`` PageRank needs.

    The reference consumes precomputed PageRank priors from a side
    file (``FeatureVector.java:65`` loads them per externalDocid);
    this op is the producer side of that file.

    ``nodes``: Dataset with a ``node`` column, one row per vertex
    (must cover every ``src``/``dst``). ``edges``: columns
    ``src``/``dst``; parallel edges each contribute (multigraph
    semantics — dedup upstream if unwanted).

    ``seeds`` (sorted-able int array) switches to PERSONALIZED
    PageRank (topic-sensitive, Haveliwala WWW'02): start mass,
    teleport and the dangling donation all flow to the seed set only
    (each ``// n_seeds`` instead of ``// n``); non-seeds hold rank
    purely through in-links. The seed array rides in task closures —
    it is a topic/query set, tiny by construction.
    """
    import pyarrow as pa

    d_num, d_den = int(damping[0]), int(damping[1])
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda b: pa.table({"node": pa.array([], pa.int64()),
                                "outdeg": pa.array([], pa.int64()),
                                "rank_u": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    # n is counted for the arithmetic anyway. Every exchange coalesces
    # to ``blocks``: groupby's sort shuffle emits as many blocks as it
    # consumes, and the rank table feeds the NEXT iteration's union —
    # without a bound the block count doubles per iteration (measured
    # 14 → 61 → 225 s for iters 1/2/3 on a 500-node toy graph).
    P, blocks = plan(n, _NODES_PER_PART, num_parts)
    seed_arr = (np.unique(np.asarray(list(seeds), np.int64))
                if seeds is not None else None)
    if seed_arr is not None and seed_arr.size == 0:
        raise ValueError("seeds must be non-empty when given")
    n_t = int(seed_arr.size) if seed_arr is not None else n
    teleport = ((d_den - d_num) * scale // d_den) // n_t
    r0 = scale // n_t

    def in_seed(ids: np.ndarray) -> np.ndarray:
        if seed_arr is None:
            return np.ones(ids.size, bool)
        idx = np.searchsorted(seed_arr, ids)
        idx[idx == seed_arr.size] = 0
        return seed_arr[idx] == ids

    # ---- static (node, outdeg) table: one exchange unions per-edge
    # degree partials with per-node zero rows (the left join folded
    # into the groupby, same trick as the iteration body).
    def deg_partial(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"part": pa.array(part_of(src, P)),
                         "node": pa.array(src),
                         "c": pa.array(np.ones(len(src), np.int64))})

    def node_zero(b: pa.Table) -> pa.Table:
        nd = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"part": pa.array(part_of(nd, P)),
                         "node": pa.array(nd),
                         "c": pa.array(np.zeros(len(nd), np.int64))})

    def fold_deg(g: pa.Table) -> pa.Table:
        nd = g["node"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(nd, kind="stable")
        nds, cs = nd[order], c[order]
        bound = np.concatenate(([True], nds[1:] != nds[:-1]))
        first = np.flatnonzero(bound)
        od = np.add.reduceat(cs, first)
        ru0 = np.where(in_seed(nds[first]), r0, 0).astype(np.int64)
        return pa.table({"node": pa.array(nds[first]),
                         "outdeg": pa.array(od),
                         "rank_u": pa.array(ru0)})

    ranks = exchange(
        edges.map_batches(deg_partial, batch_format="pyarrow")
        .union(nodes.map_batches(node_zero, batch_format="pyarrow")),
        blocks, fold_deg, "pyarrow").materialize()

    def dangling_partial(b: pa.Table) -> pa.Table:
        od = b["outdeg"].to_numpy(zero_copy_only=False)
        ru = b["rank_u"].to_numpy(zero_copy_only=False)
        return pa.table({"d": pa.array([int(ru[od == 0].sum())],
                                       pa.int64())})

    has_dangling = int(ranks.map_batches(
        lambda b: pa.table({"z": pa.array(
            [int((b["outdeg"].to_numpy(zero_copy_only=False) == 0).sum())],
            pa.int64())}), batch_format="pyarrow").sum("z") or 0) > 0

    from .join import shuffle_hash_join

    def fold_rank(dangle_t: int):
        def fold(g: pa.Table) -> pa.Table:
            nd = g["node"].to_numpy(zero_copy_only=False)
            od = g["outdeg"].to_numpy(zero_copy_only=False)
            c = g["c"].to_numpy(zero_copy_only=False)
            order = np.argsort(nd, kind="stable")
            nds, ods, cs = nd[order], od[order], c[order]
            bound = np.concatenate(([True], nds[1:] != nds[:-1]))
            first = np.flatnonzero(bound)
            s = np.add.reduceat(cs, first)
            deg = np.maximum.reduceat(ods, first)
            base = np.where(in_seed(nds[first]),
                            teleport + dangle_t, 0).astype(np.int64)
            ru = base + (d_num * s) // d_den
            return pa.table({"node": pa.array(nds[first]),
                             "outdeg": pa.array(deg),
                             "rank_u": pa.array(ru)})
        return fold

    for _ in range(int(iters)):
        if has_dangling:
            D = int(ranks.map_batches(dangling_partial,
                                      batch_format="pyarrow").sum("d") or 0)
            dangle_t = ((d_num * D) // d_den) // n_t
        else:
            dangle_t = 0

        # rank/outdeg keyed by src for the edge join (outdeg > 0 by
        # construction for every node that appears as a src)
        by_src = ranks.map_batches(
            lambda b: pa.table({"src": b["node"], "od": b["outdeg"],
                                "ru": b["rank_u"]}),
            batch_format="pyarrow")
        joined = shuffle_hash_join(edges, by_src, left_on="src",
                                   num_parts=P)

        def contrib(b: pa.Table) -> pa.Table:
            dst = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            ru = b["ru"].to_numpy(zero_copy_only=False).astype(np.int64)
            od = b["od"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({
                "part": pa.array(part_of(dst, P)),
                "node": pa.array(dst),
                "outdeg": pa.array(np.full(len(dst), -1, np.int64)),
                "c": pa.array(ru // od)})

        def zero(b: pa.Table) -> pa.Table:
            nd = b["node"].to_numpy(zero_copy_only=False)
            return pa.table({
                "part": pa.array(part_of(nd, P)),
                "node": b["node"],
                "outdeg": b["outdeg"],
                "c": pa.array(np.zeros(len(nd), np.int64))})

        ranks = exchange(
            joined.map_batches(contrib, batch_format="pyarrow")
            .union(ranks.map_batches(zero, batch_format="pyarrow")),
            blocks, fold_rank(dangle_t), "pyarrow").materialize()

    return ranks


def anchor_text(links, target_col: str = "dst",
                anchor_col: str = "anchor",
                order_cols: tuple = ("src",),
                sep: str = " ", num_parts: int | None = None):
    """→ Dataset (``target_col``, ``inlink``): per link target, the
    concatenation of all anchor strings pointing at it, in
    ``order_cols`` order — the web-graph side of the reference's
    ``inlink`` document field (ClueWeb indexes anchor text of inbound
    links as a ranked field alongside body/title/url;
    ``QryParser.java:156-158`` whitelists it). Feed the result into
    ``build_index`` as one more ``fields`` entry.

    Shape: one hash-partitioned exchange of the (target, order, anchor)
    rows; per partition a vectorized sort + segment walk concatenates
    each target's anchors. Deterministic ordering makes the field
    byte-reproducible (and SQL-mirrorable via
    ``string_agg(... order by ...)``). Mega-targets (a URL half the web
    links to) concentrate in one partition — cap upstream (sample or
    truncate per-target anchors) the way webtext pipelines cap
    boilerplate."""
    import pyarrow as pa

    P, blocks = plan(estimate_rows(links), _LINKS_PER_PART, num_parts)
    ocols = list(order_cols)

    def key(b: pa.Table) -> pa.Table:
        tgt = b[target_col].to_numpy(zero_copy_only=False)
        return b.append_column("part", pa.array(part_of(tgt, P)))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([target_col] + ocols, ignore_index=True)
        tgt = g[target_col].to_numpy()
        bound = np.concatenate(([True], tgt[1:] != tgt[:-1]))
        starts = np.flatnonzero(bound)
        ends = np.append(starts[1:], len(g))
        anchors = g[anchor_col].to_numpy()
        return pd.DataFrame({
            target_col: tgt[starts],
            "inlink": [sep.join(anchors[a:z]) for a, z in
                       zip(starts, ends)]})

    return exchange(links.map_batches(key, batch_format="pyarrow"),
                    blocks, fold, "pandas")


def hits(edges, nodes, iters: int = 2, scale: int = 10 ** 9,
         num_parts: int | None = None):
    """Kleinberg HITS (hubs & authorities, JACM '99) in int64
    fixed-point → Dataset (node, hub_u, auth_u) after ``iters``
    synchronous iterations (auth half-step then hub half-step each).

    Arithmetic is DIVISION-ONLY integer math so distributed partial
    sums associate exactly and no int64 multiply can overflow: each
    half-step sums the opposite score over the edge set, then
    normalizes by ``v // max(1, max(v) // scale)`` — the max-normalized
    value stays ~``scale`` without ever forming ``v*scale`` (whose
    ``max_indegree × scale²`` product overflows at web scale). Start
    state: every hub = ``scale``.

    Scale shape mirrors ``pagerank``: per half-step ONE
    ``shuffle_hash_join`` keys the (tiny) score table onto the edge
    list and ONE hash-partitioned groupby sums contributions per
    target; per-node zero rows ride the same exchange (left-join
    folded in); the scalar max is an aggregate over the node-sized
    score table."""
    import pyarrow as pa

    from .join import shuffle_hash_join

    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda b: pa.table({"node": pa.array([], pa.int64()),
                                "hub_u": pa.array([], pa.int64()),
                                "auth_u": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    P, blocks = plan(n, _NODES_PER_PART, num_parts)

    def const_scores(v: int):
        def fn(b: pa.Table) -> pa.Table:
            nd = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"node": pa.array(nd),
                             "v": pa.array(np.full(nd.size, v, np.int64))})
        return fn

    def zero_rows(b: pa.Table) -> pa.Table:
        nd = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"part": pa.array(part_of(nd, P)),
                         "node": pa.array(nd),
                         "c": pa.array(np.zeros(nd.size, np.int64))})

    def fold_sum(g: pa.Table) -> pa.Table:
        nd = g["node"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(nd, kind="stable")
        nds, cs = nd[order], c[order]
        first = np.flatnonzero(np.concatenate(([True],
                                               nds[1:] != nds[:-1])))
        return pa.table({"node": pa.array(nds[first]),
                         "v": pa.array(np.add.reduceat(cs, first))})

    def half_step(scores, key_col: str, sum_col: str):
        """new score(x) = Σ over edges of the opposite score: auth(v) =
        Σ_{u→v} hub(u) (key src, sum to dst) and vice versa."""
        keyed = scores.map_batches(
            lambda b, kc=key_col: pa.table({kc: b["node"], "v": b["v"]}),
            batch_format="pyarrow")
        joined = shuffle_hash_join(edges, keyed, left_on=key_col,
                                   num_parts=P)

        def contrib(b: pa.Table, sc=sum_col) -> pa.Table:
            tgt = b[sc].to_numpy(zero_copy_only=False).astype(np.int64)
            v = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"part": pa.array(part_of(tgt, P)),
                             "node": pa.array(tgt),
                             "c": pa.array(v)})

        raw = exchange(
            joined.map_batches(contrib, batch_format="pyarrow")
            .union(nodes.map_batches(zero_rows, batch_format="pyarrow")),
            blocks, fold_sum, "pyarrow").materialize()
        m = int(raw.max("v") or 0)
        d = max(1, m // scale)

        def norm(b: pa.Table) -> pa.Table:
            v = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"node": b["node"], "v": pa.array(v // d)})

        return raw.map_batches(norm, batch_format="pyarrow").materialize()

    hubs = nodes.map_batches(const_scores(int(scale)),
                             batch_format="pyarrow").materialize()
    auths = None
    for _ in range(int(iters)):
        auths = half_step(hubs, "src", "dst")
        hubs = half_step(auths, "dst", "src")

    # node-keyed merge of the two score tables — distributed like every
    # other exchange here (the driver never holds the node table)
    hub_t = hubs.map_batches(
        lambda b: pa.table({"node": b["node"], "hub_u": b["v"]}),
        batch_format="pyarrow")
    auth_t = auths.map_batches(
        lambda b: pa.table({"node": b["node"], "auth_u": b["v"]}),
        batch_format="pyarrow")
    return shuffle_hash_join(hub_t, auth_t, left_on="node", num_parts=P)
