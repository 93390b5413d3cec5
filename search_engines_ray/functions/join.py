"""Join operators for 100-TB pipelines: broadcast (no-shuffle) and
shuffle-hash (large × large).

At Common-Crawl scale a fact table must never enter an all-to-all
exchange to join a dimension/key table that fits in one worker's heap.
These operators gather the SMALL side once (guarded by a byte bound,
same convention as ``dedup.embedding_dedup``), ``ray.put`` it once, and
stream the big side through ``map_batches`` — the only data movement is
the one-time per-node object-store fetch of the small table:

- ``broadcast_semijoin``: keep (or, ``anti=True``, drop) fact rows whose
  key appears in the small key set — a filter, not a widening join, so
  it composes with downstream pre-aggregation without re-shuffling.
- ``broadcast_hash_join``: widen fact batches with small-side columns
  via a per-batch ``pyarrow`` hash join (Acero) against the broadcast
  table.

When NEITHER side fits a worker, ``shuffle_hash_join`` hash-partitions
both sides on the key in ONE tagged-union exchange (the same
single-shuffle discipline as ``events.asof_join``) and merges each
partition's complete key slice locally.

The reference's analogues are driver-side hash maps keyed by
externalDocid/qid (``FeatureVector.java:65,99-100,243-248`` — pagerank
and qrels lookups); here the lookup side is an Arrow table in the
object store, shared zero-copy by every task on a node.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .partitioning import ROWS_PER_PART, estimate_rows, exchange, part_of, plan


def _gather_small(small, columns=None, max_broadcast_bytes=256 << 20,
                  what="broadcast side") -> pa.Table:
    """Materialize the SMALL side to one combined Arrow table. The byte
    bound is enforced WHILE streaming the gather (running total per
    batch), so an over-size side fails at the bound — the driver never
    holds more than ``max_broadcast_bytes`` of it (same never-gather-
    then-check rule as ``dedup.embedding_dedup``'s broadcast guard)."""

    def over(nbytes: int):
        return ValueError(
            f"{what} exceeds max_broadcast_bytes="
            f"{max_broadcast_bytes / 2**20:.0f} MiB (≥{nbytes / 2**20:.1f} "
            f"MiB gathered) — this join family requires the small side to "
            f"fit per-worker; shuffle-join the inputs instead or raise the "
            f"bound")

    if isinstance(small, pa.Table):
        t = small.select(list(columns)) if columns else small
        if t.nbytes > max_broadcast_bytes:
            raise over(t.nbytes)
    else:
        proj = small.select_columns(list(columns)) if columns else small
        parts, nbytes = [], 0
        for b in proj.iter_batches(batch_size=None, batch_format="pyarrow"):
            nbytes += b.nbytes
            if nbytes > max_broadcast_bytes:
                raise over(nbytes)
            parts.append(b)
        if parts:
            t = pa.concat_tables(parts)
        else:
            # zero-row small side: iter_batches yields nothing — build
            # the empty table from the dataset schema (pandas-backed
            # blocks report numpy dtypes; convert)
            sch = proj.schema()
            base = getattr(sch, "base_schema", None)
            if isinstance(base, pa.Schema):
                t = base.empty_table()
            else:
                t = pa.schema(
                    [pa.field(n, ty if isinstance(ty, pa.DataType)
                              else pa.from_numpy_dtype(ty))
                     for n, ty in zip(sch.names, sch.types)]).empty_table()
    return t.combine_chunks()


def broadcast_semijoin(ds, keys, key_col: str, keys_col: str | None = None,
                       anti: bool = False,
                       max_broadcast_bytes: int = 256 << 20):
    """Filter ``ds`` to rows whose ``key_col`` is (semi) / is not (anti)
    in the small side's ``keys_col`` set. → Dataset with ``ds``'s schema.

    The key set is deduplicated before broadcast, so the object-store
    payload is bounded by the DISTINCT key count; the fact table itself
    never shuffles. The lookup hash table is built ONCE PER WORKER
    PROCESS (``util.proc_cached`` over a ``pd.Index``, whose hash engine
    is cached after first use) — ``pc.is_in`` would re-index the whole
    key set on every batch, which at a 10⁸-key set dominates the stage."""
    import pandas as pd

    from ..util import proc_cached

    keys_col = keys_col or key_col
    kt = _gather_small(keys, [keys_col], max_broadcast_bytes,
                       what="semijoin key set")
    key_ref = ray.put(pc.unique(kt[keys_col]))
    cache_key = ("semijoin_keys", key_ref.hex())

    def filt(b: pa.Table) -> pa.Table:
        idx = proc_cached(cache_key, lambda: pd.Index(
            ray.get(key_ref).to_numpy(zero_copy_only=False)), cap=1)
        vals = b[key_col].to_numpy(zero_copy_only=False)
        mask = idx.get_indexer(vals) >= 0
        if anti:
            mask = ~mask
        return b.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow")


def broadcast_hash_join(ds, small, left_on: str, right_on: str | None = None,
                        columns=None, join_type: str = "inner",
                        max_broadcast_bytes: int = 256 << 20):
    """Join each fact batch against the broadcast small table. →
    Dataset with ``ds``'s columns plus the small side's non-key
    ``columns``. ``join_type``: ``inner`` or ``left outer`` (each fact
    row keeps at most its matches; small-side rows never fan IN, so
    output size is bounded by fact rows × max key multiplicity on the
    small side).

    When the small side's keys are UNIQUE (the dimension-table norm)
    the lookup is a per-worker cached ``pd.Index`` + Arrow ``take`` —
    the hash table is built once per worker process. With duplicated
    keys it falls back to a per-batch Acero hash join, which re-indexes
    the small side every batch: fine for a few-MB side, wasteful for a
    big one (dedup or pre-aggregate the small side instead)."""
    import pandas as pd

    from ..util import proc_cached

    right_on = right_on or left_on
    if join_type not in ("inner", "left outer"):
        raise ValueError(f"join_type={join_type!r}: only 'inner' and "
                         f"'left outer' keep the fact-side streaming shape")
    cols = list(columns) if columns else None
    if cols and right_on not in cols:
        cols = [right_on] + cols
    st = _gather_small(small, cols, max_broadcast_bytes,
                       what="hash-join small side")

    small_nonkey = set(st.column_names) - {right_on}

    def _check_overlap(b: pa.Table):
        # checked per batch (set op over ~10 names) rather than via
        # ds.schema(), which would force execution of a derived fact side
        overlap = sorted(small_nonkey & set(b.column_names))
        if overlap:
            raise ValueError(
                f"non-key columns {overlap} exist on both sides — rename "
                f"upstream or pass `columns=` to prune the small side")

    keys_unique = st.num_rows == len(pc.unique(st[right_on]))
    small_ref = ray.put(st)
    cache_key = ("bcast_join_small", small_ref.hex())

    if not keys_unique:
        def join_batch(b: pa.Table) -> pa.Table:
            _check_overlap(b)
            return b.join(ray.get(small_ref), keys=left_on,
                          right_keys=right_on, join_type=join_type)
        return ds.map_batches(join_batch, batch_format="pyarrow")

    def build():
        t = ray.get(small_ref)
        idx = pd.Index(t[right_on].to_numpy(zero_copy_only=False))
        return idx, t.drop_columns([right_on])

    def join_unique(b: pa.Table) -> pa.Table:
        _check_overlap(b)
        idx, rt = proc_cached(cache_key, build, cap=1)
        pos = idx.get_indexer(b[left_on].to_numpy(zero_copy_only=False))
        if join_type == "inner":
            keep = pos >= 0
            lb = b.filter(pa.array(keep))
            rb = rt.take(pos[keep])
        else:
            lb = b
            rb = rt.take(pa.array(np.maximum(pos, 0), type=pa.int64(),
                                  mask=pos < 0))
        out = {n: lb[n] for n in lb.column_names}
        out.update({n: rb[n] for n in rb.column_names})
        return pa.table(out)

    return ds.map_batches(join_unique, batch_format="pyarrow")


def shuffle_hash_join(left, right, left_on: str, right_on: str | None = None,
                      how: str = "inner", num_parts: int | None = None):
    """Large × large join: both sides hash-partition on the key in ONE
    tagged-union exchange; each partition then merges its complete key
    slice with a local pandas hash join. → Dataset with the left
    columns (key under ``left_on``) plus the right side's non-key
    columns.

    ``how``: ``inner`` or ``left`` (unmatched left rows carry nulls in
    the right columns, which keep their declared types). Non-key column
    names must be disjoint across sides (no implicit suffixing — rename
    upstream). Skew note: one partition holds ALL rows of the keys that
    hash into it, so a single mega-key (a webtext boilerplate URL, say)
    bounds per-task memory; pre-aggregate or salt such keys before a
    fact-fact join.
    """
    right_on = right_on or left_on
    if how not in ("inner", "left"):
        raise ValueError(f"how={how!r}: only 'inner' and 'left'")
    lschema, rschema = left.schema(), right.schema()
    lrest = [n for n in lschema.names if n != left_on]
    rrest = [n for n in rschema.names if n != right_on]
    overlap = sorted(set(lrest) & set(rrest))
    if overlap:
        raise ValueError(
            f"non-key columns {overlap} exist on both sides — rename "
            f"upstream (no implicit suffixing)")
    # both sides cross the exchange, one row per input row
    nl, nr = estimate_rows(left), estimate_rows(right)
    parts, blocks = plan(None if nl is None or nr is None else nl + nr,
                         ROWS_PER_PART, num_parts)
    def _pa_type(t) -> pa.DataType:
        # ray.data.Schema.types yields pyarrow types for Arrow blocks but
        # numpy dtypes / Python classes for pandas-backed datasets
        if isinstance(t, pa.DataType):
            return t
        if t in (str, object):
            return pa.string()
        if t is bytes:
            return pa.binary()
        return pa.from_numpy_dtype(np.dtype(t))

    types = {n: _pa_type(lschema.types[lschema.names.index(n)])
             for n in lrest}
    types.update({n: _pa_type(rschema.types[rschema.names.index(n)])
                  for n in rrest})

    def tag(side: int, key: str, own: list):
        def fn(b: pa.Table) -> pa.Table:
            n = len(b)
            cols = {"part": pa.array(part_of(
                        b[key].to_numpy(zero_copy_only=False), parts)),
                    "_k": b[key],
                    "_side": pa.array(np.full(n, side, dtype=np.int8))}
            for name in (*lrest, *rrest):
                cols[name] = b[name] if name in own \
                    else pa.nulls(n, type=types[name])
            return pa.table(cols)
        return fn

    tagged = left.map_batches(tag(0, left_on, lrest),
                              batch_format="pyarrow") \
        .union(right.map_batches(tag(1, right_on, rrest),
                                 batch_format="pyarrow"))

    out_schema = pa.schema(
        [(left_on, _pa_type(lschema.types[lschema.names.index(left_on)]))]
        + list(types.items()))

    def join_part(g: pa.Table) -> pa.Table:
        side = g["_side"]
        # split FIRST, then to_pandas per side: each side's own columns
        # are null-free, so integer dtypes survive the conversion
        lf = g.filter(pc.equal(side, 0)).select(["_k", *lrest]).to_pandas()
        rf = g.filter(pc.equal(side, 1)).select(["_k", *rrest]).to_pandas()
        out = lf.merge(rf, on="_k", how=how).rename(columns={"_k": left_on})
        # Arrow in the declared types: an empty part stays typed, and a
        # left join's unmatched rows are nulls of the right column's type
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    return exchange(tagged, blocks, join_part, "pyarrow")


def bloom_semijoin(ds, keys, key_col: str, keys_col: str | None = None,
                   bits_per_key: int = 10, verify: str | None = "shuffle",
                   max_broadcast_bytes: int = 256 << 20):
    """Semijoin accelerated by a broadcast BLOOM FILTER over the key
    set: a bit array of ~``bits_per_key``·n bits (n·1.25 bytes at the
    default — ~8× smaller than broadcasting 64-bit key hashes, more
    vs raw string keys) is built once and dropped into the object
    store; the fact stream tests it inside ``map_batches`` and rows
    that fail — definite non-members, no false negatives — die
    map-side. Survivors (matches + ~0.8% false positives at 10
    bits/key) then verify EXACTLY:

    - ``verify="shuffle"`` (default): tagged-union hash-partition
      exchange of the SURVIVORS against the distinct key table — the
      100-TB shape when the key set is too big to broadcast exactly
      (the exchange carries only the bloom-surviving sliver of the
      fact table, which is the point).
    - ``verify="broadcast"``: exact ``broadcast_semijoin`` over the
      survivors, for key sets that do fit a worker's heap.
    - ``verify=None``: APPROXIMATE — returns the bloom survivors
      as-is (superset of the true semijoin; false-positive rate
      ~(1−e^(−k/b))^k). For pipelines that tolerate overshoot, e.g.
      a pre-filter feeding an exact downstream join.

    Bloom is a SEMI-join tool only: an anti-join cannot drop anything
    map-side (bloom-fail rows are the KEEPERS and they are the bulk),
    so ``anti`` stays with ``broadcast_semijoin``. Build cost: the
    driver streams 8 B per distinct key (the uint64 hashes) to set the
    bits — fine to ~10⁸ keys; past that, shard the key space and run
    one bloom_semijoin per shard. → Dataset with ``ds``'s schema."""
    import pandas as pd

    keys_col = keys_col or key_col
    if verify not in ("shuffle", "broadcast", None):
        raise ValueError(f"verify={verify!r}")
    # distinct key hashes, gathered as uint64 (8 B/key, not raw keys)
    _HK = "bloom_semijoin16"  # exactly-16-byte siphash key, both sides

    def _key_hash(vals) -> np.ndarray:
        # canonicalize numeric width/signedness before hashing:
        # pd.util.hash_array hashes the width-preserved reinterpretation
        # (int32 -1 != int64 -1), so an int32 fact column probing an
        # int64 key set would silently false-negative without this
        a = np.asarray(vals)
        if a.dtype.kind == "i":
            a = a.astype(np.int64, copy=False)
        elif a.dtype.kind == "u":
            a = a.astype(np.uint64, copy=False)
        elif a.dtype.kind == "f":
            a = a.astype(np.float64, copy=False)
        return pd.util.hash_array(a, hash_key=_HK, categorize=False)

    # per-batch unique BEFORE the concat so driver memory is bounded by
    # per-batch distinct counts, not raw key rows (duplicated key
    # columns are the norm when the key side derives from a fact table)
    kh = np.unique(np.concatenate([
        np.unique(_key_hash(b[keys_col].to_numpy(zero_copy_only=False)))
        for b in keys.select_columns([keys_col])
        .iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows] or [np.empty(0, np.uint64)]))
    n = max(int(kh.size), 1)
    m = 1 << max(6, int(np.ceil(np.log2(n * bits_per_key))))  # pow2 bits
    k_hashes = max(1, int(round(bits_per_key * np.log(2.0))))
    bits = np.zeros(m >> 3, dtype=np.uint8)
    h2 = (kh * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    for i in range(k_hashes):
        idx = ((kh + np.uint64(i) * h2) & np.uint64(m - 1))
        np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                         np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
    bits_ref = ray.put(bits)
    cache_key = ("bloom_bits", bits_ref.hex())

    def bloom_filt(b: pa.Table) -> pa.Table:
        from ..util import proc_cached
        bb = proc_cached(cache_key, lambda: ray.get(bits_ref), cap=1)
        h = _key_hash(b[key_col].to_numpy(zero_copy_only=False))
        g2 = (h * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
        mask = np.ones(len(h), dtype=bool)
        for i in range(k_hashes):
            idx = (h + np.uint64(i) * g2) & np.uint64(m - 1)
            mask &= (bb[(idx >> np.uint64(3)).astype(np.int64)]
                     & (np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
                     ) != 0
        return b.filter(pa.array(mask))

    surv = ds.map_batches(bloom_filt, batch_format="pyarrow")
    if verify is None:
        return surv
    if verify == "broadcast":
        return broadcast_semijoin(surv, keys, key_col, keys_col=keys_col,
                                  max_broadcast_bytes=max_broadcast_bytes)
    # shuffle verify: distinct keys under the fact key's name, then an
    # inner shuffle join — the right side carries no non-key columns,
    # and is deduplicated, so the join IS an exact semijoin
    def dedup_rename(b: pa.Table) -> pa.Table:
        return pa.table({key_col: pc.unique(b[keys_col])})
    kd = keys.select_columns([keys_col]) \
        .map_batches(dedup_rename, batch_format="pyarrow") \
        .groupby(key_col).count() \
        .map_batches(lambda b: b.select([key_col]), batch_format="pyarrow")
    return shuffle_hash_join(surv, kd, key_col, how="inner")
