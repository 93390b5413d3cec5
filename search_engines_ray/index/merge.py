"""Incremental index merge: segment-style concatenation of built
indexes into a new one, without retokenizing a single document.

The index layout was designed for this (build.py's docstring contract):
a term's postings are stored as SALTED RUNS over disjoint docid ranges,
merged at read time by ``min_docid`` concatenation (``reader.py
postings_many``), and the docid blob's first varbyte value is ABSOLUTE
(``varbyte.delta_encode``). So merging index B after index A is
metadata surgery plus one vectorized pass over each block's docid
blobs, which shifts every run's leading absolute docid and leaves every
gap byte as it is:

- forward rows of B shift their ``pid`` by A's partition count; the
  global docid (= ``pid_offsets[pid] + docid_local``) then lands in
  ``[n_docs_A, n_docs_A + n_docs_B)`` via the merged ``pid_offsets``.
- postings rows of B renumber ``salt += merge_salts_A`` (keeping
  (term, salt) unique and the per-salt distributed query tasks
  1/S-of-the-corpus sized) and rebase ``min_docid``/the blob's leading
  absolute docid by ``n_docs_A``. df/ctf columns are per-run and query
  paths already sum them across runs, so they need no touch.
- ``stats.json`` adds: n_docs, per-field doc_count/sum_len,
  pid_offsets concatenation, merge_salts/docid_partitions sums.

Because every ranking statistic (n_docs, sum_len, per-run df/ctf) is
recomputed-by-addition, a merged index returns BYTE-IDENTICAL search
results to an index built over the union corpus in one pass (docids may
permute, but scores and the score-desc/external-id-asc output order
don't depend on internal docids) — the equivalence the tests assert.

This is the Lucene-style segment-merge capability the reference gets
for free from its Lucene backend (its Idx facade opens one pre-merged
index, ``Idx.java:44-58``); here it makes the build plane incremental:
index the day's crawl alone, then fold it into the main index at
metadata cost, instead of re-running tokenization over 100 TB.

Every input streams through Ray Data (one read→map→write job per input
and plane); nothing is gathered to the driver but the stats dicts.
Compaction (``compact_index``) cuts the runs into fragments of the new
salt layout and hands them to the build's own sort and merge kernel.

Caveat (same as a Lucene segment merge): build-plane url dedup is per
build — a document present in BOTH inputs stays present twice after the
merge. Dedup across segments upstream (``functions.dedup.exact_dedup``
on the incoming crawl against the main index's url set, or a
``broadcast_semijoin`` anti-filter) before indexing the new segment.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from .build import (
    _BLOB_COLS, _POSTINGS_SCHEMA, FORWARD_DIR, POSTINGS_DIR, STATS_FILE,
    _blob_array, _cumsum0, _gather_positions, _joined_bytes,
)
from .varbyte import (
    _byte_offsets, _vb_bytes, decode_joined, encode_runs, vb_decode,
)


def _rebase_docids(blobs, df: np.ndarray, base: int) -> pa.Array:
    """Docid blobs with ``base`` added to each run's leading absolute
    docid (run ``r`` holds ``df[r]`` values). The other gaps re-encode
    to the bytes they came from: the codec writes one form per value."""
    gaps = vb_decode(_joined_bytes(blobs))
    run_off = _cumsum0(df)
    gaps[run_off[:-1]] += np.uint64(base)
    data, nbytes = _vb_bytes(gaps)
    return _blob_array(data, _byte_offsets(nbytes, run_off))


def merge_indexes(index_a: str, index_b: str, out_dir: str) -> dict:
    """Merge built index ``index_b`` into ``index_a``'s docid space,
    writing a complete new index at ``out_dir``: the two-input
    ``merge_indexes_many``. Returns the merged stats dict. Requires both
    inputs to share ``num_buckets`` (bucket partition pruning hashes
    terms identically on both sides), ``analyzer`` and field set."""
    return merge_indexes_many([index_a, index_b], out_dir)


def _refragment(t: pa.Table, dels: np.ndarray, salts: int,
                n_live: int) -> pa.Table:
    """A block of postings rows cut into fragments of the compacted
    layout, in ``_POSTINGS_SCHEMA``: tombstoned docids (``dels``,
    sorted) dropped, survivors renumbered densely (old docid − #deleted
    below) and each run split where the new salt ``docid * salts //
    n_live`` changes; runs left empty are dropped. Fragments of one new
    run join in ``_merge_bucket``."""
    df = t["df"].to_numpy()
    d, tf, p = decode_joined(*(_joined_bytes(t[c]) for c in _BLOB_COLS),
                             _cumsum0(df))
    row = np.repeat(np.arange(t.num_rows), df)
    if dels.size:
        below = np.searchsorted(dels, d)
        keep = np.flatnonzero(dels[np.minimum(below, dels.size - 1)] != d)
        if p.size:
            p = _gather_positions(p, tf, keep)
        d, tf, row = d[keep] - below[keep], tf[keep], row[keep]
    salt = d * salts // n_live
    new = np.ones(d.size, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (salt[1:] != salt[:-1])
    starts = np.flatnonzero(new)
    if not starts.size:
        return _POSTINGS_SCHEMA.empty_table()
    run_off = np.append(starts, d.size)
    blobs = encode_runs(d, tf, p, run_off)
    head = t.select(["term", "field", "bucket"]).take(row[starts])
    return pa.table({
        "term": head["term"], "field": head["field"],
        "bucket": head["bucket"].cast(pa.int32()),
        "salt": salt[starts].astype(np.int32),
        "df": np.diff(run_off),
        "ctf": np.add.reduceat(tf, starts, dtype=np.int64),
        "min_docid": d[starts],
        "max_tf": np.maximum.reduceat(tf, starts).astype(np.int32),
        **{c: _blob_array(*b) for c, b in zip(_BLOB_COLS, blobs)},
    }, schema=_POSTINGS_SCHEMA)


def compact_index(index_dir: str, out_dir: str,
                  merge_salts: int | None = None) -> dict:
    """Rewrite ``index_dir``'s postings into exactly ``merge_salts``
    docid-range runs per (term, field), writing a full new index at
    ``out_dir``. Returns the new stats dict.

    With a ``deletes.json`` tombstone sidecar present (``delete_docs``),
    compaction also PURGES the tombstoned documents — Lucene's
    deletes-until-merge made physical: deleted docids drop out of every
    posting run and the forward table, survivors renumber densely (new
    docid = old − #deleted below, pure arithmetic against the sorted
    tombstone array — no mapping table ships), and every statistic
    (n_docs, per-field doc_count / sum_len, pid_offsets) is recomputed,
    so post-purge rankings equal a fresh build over the surviving
    corpus exactly. The tombstone array rides along in task arguments —
    it is the DELETED set (≪ corpus by assumption); shard it like the
    doclens if a caller ever tombstones a constant fraction of the
    corpus. Without deletes the forward plane is copied verbatim
    (docids unchanged).

    This is the LSM compaction that pairs with ``merge_indexes``: every
    merge ADDS the inputs' salt counts, so after k segment folds a term
    carries k× more (smaller) runs — per-salt distributed-query tasks
    multiply while each one shrinks, and run-level metadata stops
    pruning well. Compaction restores the build-time invariant
    (``merge_salts`` runs of roughly equal docid mass, boundaries at
    ``docid * S // n_docs``) without touching a single document.

    Shape: the build's postings path. One map per read block
    (``_refragment``) decodes its runs, applies the purge and cuts them
    at the new salt boundaries; the fragments then take the build's
    ``(bucket, salt)`` sort and ``_merge_bucket``, which joins the
    fragments of each new run. Payload bytes cross the wire once;
    documents never do. ``merge_salts=None`` auto-sizes like the build
    plane: ``ceil(n_docs / docs_per_salt)``, min 4.
    """
    import ray.data as rd

    from .build import IndexBuildConfig, _write_runs

    with open(os.path.join(index_dir, STATS_FILE)) as f:
        stats = json.load(f)
    n_docs = int(stats["n_docs"])
    dels = np.empty(0, np.int64)
    if os.path.exists(os.path.join(index_dir, DELETES_FILE)):
        with open(os.path.join(index_dir, DELETES_FILE)) as f:
            dels = np.asarray(sorted(json.load(f).get("docids", [])),
                              np.int64)
    n_live = n_docs - int(dels.size)
    if merge_salts is None:
        dps = IndexBuildConfig().docs_per_salt
        merge_salts = int(min(4096, max(4, -(-n_live // dps))))
    S = int(merge_salts)
    offsets = np.asarray(stats["pid_offsets"], np.int64)
    os.makedirs(out_dir, exist_ok=True)

    fwd_out = os.path.join(out_dir, FORWARD_DIR)
    if dels.size == 0:
        rd.read_parquet(os.path.join(index_dir, FORWARD_DIR)) \
            .write_parquet(fwd_out)
    else:
        def purge_fwd(b: pa.Table) -> pa.Table:
            pid = b["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
            old = offsets[pid] + b["docid_local"].to_numpy(
                zero_copy_only=False)
            below = np.searchsorted(dels, old)          # deleted < old
            probe = np.minimum(below, dels.size - 1)
            keep = dels[probe] != old
            # new local rank = old local − deleted below within the pid
            new_local = (b["docid_local"].to_numpy(zero_copy_only=False)
                         - (below - np.searchsorted(dels, offsets[pid])))
            b = b.set_column(
                b.schema.get_field_index("docid_local"), "docid_local",
                pa.array(new_local.astype(np.int64)))
            return b.filter(pa.array(keep))

        rd.read_parquet(os.path.join(index_dir, FORWARD_DIR)) \
            .map_batches(purge_fwd, batch_format="pyarrow") \
            .write_parquet(fwd_out)

    _write_runs(rd.read_parquet(os.path.join(index_dir, POSTINGS_DIR))
                .map_batches(_refragment, batch_size=None,
                             batch_format="pyarrow",
                             fn_kwargs={"dels": dels, "salts": S,
                                        "n_live": n_live}),
                os.path.join(out_dir, POSTINGS_DIR))

    new_stats = dict(stats)
    new_stats["merge_salts"] = S
    new_stats["compacted_from"] = os.path.abspath(index_dir)
    if dels.size:
        # purge made the stats stale: dense renumber shifts the pid
        # boundaries by the deleted-below counts, and per-field
        # doc_count/sum_len re-aggregate from the purged forward table
        # (a pruned column scan, streamed — one int64 pair per field
        # per block reaches the driver).
        flds = list(stats["fields"])

        def psum(b: pa.Table) -> pa.Table:
            cols = {}
            for f2 in flds:
                arr = b[f"len_{f2}"].to_numpy(
                    zero_copy_only=False).astype(np.int64)
                cols[f"s_{f2}"] = pa.array([int(arr.sum())], pa.int64())
                cols[f"c_{f2}"] = pa.array([int((arr > 0).sum())],
                                           pa.int64())
            return pa.table(cols)

        rows = rd.read_parquet(
            fwd_out, columns=[f"len_{f2}" for f2 in flds]) \
            .map_batches(psum, batch_format="pyarrow").take_all()
        new_stats["n_docs"] = int(n_live)
        new_stats["pid_offsets"] = [
            int(x) for x in offsets - np.searchsorted(dels, offsets)]
        new_stats["fields"] = {
            f2: {"doc_count": sum(int(r[f"c_{f2}"]) for r in rows),
                 "sum_len": sum(int(r[f"s_{f2}"]) for r in rows)}
            for f2 in flds}
        new_stats["purged_deletes"] = int(dels.size)
    with open(os.path.join(out_dir, STATS_FILE), "w") as f:
        json.dump(new_stats, f)
    return new_stats


DELETES_FILE = "deletes.json"


def delete_docs(index_dir: str, external_ids) -> int:
    """Tombstone documents by external id (Lucene-style deletes-as-
    mask): appends to ``deletes.json`` in the index dir; idempotent
    union. Every search path masks tombstoned docids out after scoring
    and before its top-k cut with ``query.trec.drop_deleted``: the
    driver engine (and so each federated segment), BM25F, MaxScore
    (before its threshold θ) and the distributed batch paths, inside
    each salt task's ``_cut``. Corpus statistics stay as-built until
    the next ``compact_index`` (which physically purges them and
    refreshes every statistic), the same freshness contract as
    Lucene's deletes-until-merge. Returns the total tombstone count.
    Unknown external ids are ignored (the usual delete-by-key
    semantics)."""
    from .reader import IndexReader

    reader = IndexReader(index_dir)
    ids = reader.internal_docids_for(list(external_ids))
    docids = sorted(int(i) for i in np.asarray(ids) if int(i) >= 0)
    path = os.path.join(index_dir, DELETES_FILE)
    prev = []
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f).get("docids", [])
    merged = sorted(set(prev) | set(docids))
    with open(path, "w") as f:
        json.dump({"docids": merged}, f)
    return len(merged)


def upsert_docs(index_dir: str, pages, out_dir: str, cfg,
                input_token: str | None = None) -> dict:
    """Update-by-key (url) — the Lucene ``updateDocument`` lifecycle
    composed from this module's segment primitives, never retokenizing
    the main corpus:

    1. build a fresh segment index over ``pages`` (the incremental
       crawl batch; a ``ray.data.Dataset`` in the pages shape),
    2. ``merge_indexes`` it into ``index_dir``'s docid space at
       ``out_dir`` (metadata-only fold),
    3. tombstone, in the merged index, the MAIN-index version of every
       url the segment carries (plus any tombstones the main index
       already had — ``merge_indexes`` does not copy the sidecar, and
       main docids are preserved verbatim by the merge, so both sets
       transfer as-is).

    Search over ``out_dir`` therefore sees "latest version wins":
    updated urls score from the segment's postings only, brand-new
    urls appear, untouched docs are unaffected. Statistics stay
    as-built (old + new versions both counted) until the next
    ``compact_index``, which physically purges the stale versions —
    exactly Lucene's update = delete + add with deletes-until-merge
    freshness.

    Scale shape: the only non-metadata work is indexing the segment
    (∝ batch size, not corpus) and resolving the segment's url set to
    main docids (``internal_docids_for`` — a column-pruned filtered
    scan of the main forward plane, never O(n_docs) driver memory).
    The url list itself is driver-held: it is the incremental batch's
    key set, assumed ≪ corpus; for a batch approaching corpus scale,
    rebuild instead of upserting. Returns the merged stats dict."""
    import pyarrow.dataset as pads

    from .build import build_index
    from .reader import IndexReader

    seg_dir = out_dir.rstrip("/") + ".seg"
    build_index(pages, seg_dir, cfg,
                input_token=input_token or seg_dir, resume=True)
    stats = merge_indexes(index_dir, seg_dir, out_dir)

    seg_urls = pads.dataset(
        os.path.join(seg_dir, FORWARD_DIR), format="parquet") \
        .to_table(columns=["external_id"])["external_id"].to_pylist()
    main = IndexReader(index_dir)
    ids = main.internal_docids_for(seg_urls)
    stale = {int(i) for i in np.asarray(ids) if int(i) >= 0}
    stale |= {int(d) for d in main.deleted_docids()}
    with open(os.path.join(out_dir, DELETES_FILE), "w") as f:
        json.dump({"docids": sorted(stale)}, f)
    return stats


def update_attributes(index_dir: str, out_dir: str, name: str,
                      values: dict) -> int:
    """Lucene ``updateDocValues``: rewrite ONE doc-values column of the
    forward plane by external id, touching nothing else — the
    spam-score / crawl-freshness refresh that must not cost a reindex
    (the reference's LeToR reads exactly such a per-doc 'score'
    attribute, ``FeatureVector.java:207``).

    ``values`` maps external_id → new value; absent docs keep their
    old value. The mapping is the update batch (≪ corpus) and ships
    once via task closure; the forward plane streams through ONE
    column-rewrite ``map_batches`` (all other columns pass through
    zero-copy), the postings plane and stats are hard-linked /
    copied verbatim — no postings byte moves. Returns the number of
    docs whose value changed. The doc-values column must exist
    (create columns at build time via ``IndexBuildConfig.attributes``)."""
    import shutil

    import ray.data as rd

    with open(os.path.join(index_dir, STATS_FILE)) as f:
        stats = json.load(f)
    if name not in stats.get("attributes", []):
        raise KeyError(f"attribute not in index: {name!r} "
                       f"(have {stats.get('attributes', [])})")
    col = f"attr_{name}"
    os.makedirs(out_dir, exist_ok=True)

    def rewrite(b: pa.Table) -> pa.Table:
        ext = b["external_id"].to_pylist()
        old = b[col].to_pylist()
        new = [values.get(e, o) for e, o in zip(ext, old)]
        i = b.schema.get_field_index(col)
        return b.set_column(i, col, pa.array(new, b.schema.field(i).type))

    rd.read_parquet(os.path.join(index_dir, FORWARD_DIR)) \
        .map_batches(rewrite, batch_format="pyarrow") \
        .write_parquet(os.path.join(out_dir, FORWARD_DIR))

    # postings + sidecars verbatim (postings bytes never move)
    post_src = os.path.join(index_dir, POSTINGS_DIR)
    post_dst = os.path.join(out_dir, POSTINGS_DIR)
    if not os.path.exists(post_dst):
        shutil.copytree(post_src, post_dst)
    shutil.copy(os.path.join(index_dir, STATS_FILE),
                os.path.join(out_dir, STATS_FILE))
    dels = os.path.join(index_dir, DELETES_FILE)
    if os.path.exists(dels):
        shutil.copy(dels, os.path.join(out_dir, DELETES_FILE))
    # changed count = update-batch keys that resolve to a live doc
    from .reader import IndexReader
    r = IndexReader(index_dir)
    ids = r.internal_docids_for(sorted(values))
    return int(sum(1 for i in np.asarray(ids) if int(i) >= 0))


def merge_indexes_many(index_dirs: list[str], out_dir: str) -> dict:
    """N-way single-pass segment merge: fold ANY number of built
    indexes into one docid space, writing each input's planes exactly
    ONCE. Repeated binary ``merge_indexes`` folds rewrite the first
    segment's bytes k−1 times (LSM write amplification); the N-way form
    is what a daily 100-TB crawl pipeline folds its shard builds with.

    Per input i the metadata surgery generalizes the two-input case of
    the module docstring: ``pid += Σ_{j<i} pids_j``, ``salt += Σ_{j<i}
    salts_j``, docids rebase by ``Σ_{j<i} n_docs_j`` (min_docid column +
    each docid blob's leading absolute varint, ``_rebase_docids``);
    df/ctf stay per-run. Stats recompute by addition, so rankings equal
    a one-pass build over the concatenated corpus — the equivalence the
    merge tests prove. Inputs must share
    num_buckets/analyzer/positions/fields; the cross-segment url-dedup
    caveat of the module docstring applies."""
    import ray.data as rd

    if len(index_dirs) < 2:
        raise ValueError("merge_indexes_many needs >= 2 inputs")
    stats_list = []
    for d in index_dirs:
        with open(os.path.join(d, STATS_FILE)) as f:
            stats_list.append(json.load(f))
    s0 = stats_list[0]
    for d, s in zip(index_dirs[1:], stats_list[1:]):
        for key in ("num_buckets", "analyzer", "positions"):
            if s0.get(key, True) != s.get(key, True):
                raise ValueError(
                    f"cannot merge {d}: {key} differs "
                    f"({s0.get(key)!r} vs {s.get(key)!r})")
        if sorted(s0["fields"]) != sorted(s["fields"]):
            raise ValueError(f"cannot merge {d}: field sets differ")
    os.makedirs(out_dir, exist_ok=True)
    fwd_out = os.path.join(out_dir, FORWARD_DIR)
    post_out = os.path.join(out_dir, POSTINGS_DIR)

    doc_base = pid_base = salt_base = 0
    pid_offsets = [0]
    fields = {f: {"doc_count": 0, "sum_len": 0} for f in s0["fields"]}
    for d, s in zip(index_dirs, stats_list):
        n_i = int(s["n_docs"])
        pids_i = len(s["pid_offsets"]) - 1
        salts_i = int(s.get("merge_salts", 4))

        def shift_fwd(b: pa.Table, pid_base=pid_base) -> pa.Table:
            if pid_base == 0:
                return b
            pid = b["pid"].to_numpy(zero_copy_only=False) \
                + np.int32(pid_base)
            return b.set_column(b.schema.get_field_index("pid"), "pid",
                                pa.array(pid.astype(np.int32)))

        rd.read_parquet(os.path.join(d, FORWARD_DIR)) \
            .map_batches(shift_fwd, batch_format="pyarrow") \
            .write_parquet(fwd_out)

        def rebase(b: pa.Table, doc_base=doc_base,
                   salt_base=salt_base) -> pa.Table:
            if salt_base or doc_base:
                salt = b["salt"].to_numpy(zero_copy_only=False) \
                    + np.int32(salt_base)
                mind = b["min_docid"].to_numpy(zero_copy_only=False) \
                    + np.int64(doc_base)
                b = b.set_column(b.schema.get_field_index("salt"), "salt",
                                 pa.array(salt.astype(np.int32)))
                b = b.set_column(b.schema.get_field_index("min_docid"),
                                 "min_docid", pa.array(mind))
                b = b.set_column(
                    b.schema.get_field_index("docid_blob"), "docid_blob",
                    _rebase_docids(b["docid_blob"], b["df"].to_numpy(),
                                   doc_base))
            i = b.schema.get_field_index("bucket")
            return b.set_column(i, "bucket", b["bucket"].cast(pa.int32()))

        rd.read_parquet(os.path.join(d, POSTINGS_DIR)) \
            .map_batches(rebase, batch_format="pyarrow") \
            .write_parquet(post_out, partition_cols=["bucket"])

        pid_offsets += [int(o) + doc_base for o in s["pid_offsets"][1:]]
        for f in fields:
            fields[f]["doc_count"] += s["fields"][f]["doc_count"]
            fields[f]["sum_len"] += s["fields"][f]["sum_len"]
        doc_base += n_i
        pid_base += pids_i
        salt_base += salts_i

    stats = {
        "version": s0.get("version", 1),
        "n_docs": doc_base,
        "fields": fields,
        "num_buckets": s0["num_buckets"],
        "merge_salts": salt_base,
        "docid_partitions": pid_base,
        "analyzer": s0.get("analyzer"),
        "positions": bool(s0.get("positions", True)),
        "pid_offsets": pid_offsets,
        "merged_from": [os.path.abspath(d) for d in index_dirs],
    }
    if any("attributes" in s for s in stats_list):
        attrs = stats_list[0].get("attributes", [])
        if all(s.get("attributes", []) == attrs for s in stats_list):
            stats["attributes"] = attrs
    with open(os.path.join(out_dir, STATS_FILE), "w") as f:
        json.dump(stats, f)
    return stats


def snapshot_index(index_dir: str, tar_path: str) -> dict:
    """Ship-a-segment: pack a built index into one tar archive
    (Elasticsearch snapshot / Lucene replication analogue — move an
    immutable segment between clusters or into cold storage). Members
    are added in SORTED path order with zeroed mtimes/uid/gid, so the
    SAME index bytes always produce the SAME archive bytes
    (deduplicating snapshot stores rely on that). Returns
    {files, bytes}. Uncompressed tar: parquet pages are already
    compressed; a gzip layer would only burn CPU at 100-TB scale."""
    import tarfile

    names = []
    for root, dirs, files in os.walk(index_dir):
        dirs.sort()
        for f in sorted(files):
            names.append(os.path.join(root, f))
    total = 0
    with tarfile.open(tar_path, "w") as tf:
        for p in names:
            arc = os.path.relpath(p, index_dir)
            ti = tf.gettarinfo(p, arcname=arc)
            ti.mtime = 0
            ti.uid = ti.gid = 0
            ti.uname = ti.gname = ""
            with open(p, "rb") as fh:
                tf.addfile(ti, fh)
            total += ti.size
    return {"files": len(names), "bytes": total}


def restore_index(tar_path: str, out_dir: str, verify: bool = True) -> dict:
    """Unpack a ``snapshot_index`` archive into ``out_dir`` and (by
    default) run the full integrity verifier over the restored index —
    stats↔docmeta re-aggregation, per-run postings invariants and the
    cross-plane Σctf check (``inspect.verify_index``) — so a truncated
    or bit-rotted archive is caught at restore time, not at query
    time. Returns the verifier's checks dict (or {} when skipped)."""
    import tarfile

    os.makedirs(out_dir, exist_ok=True)
    with tarfile.open(tar_path, "r") as tf:
        tf.extractall(out_dir, filter="data")
    if not verify:
        return {}
    from .inspect import cmd_verify
    from .reader import IndexReader
    checks = cmd_verify(IndexReader(out_dir))
    if not checks.get("ok"):
        bad = {k: v for k, v in checks.items()
               if isinstance(v, dict) and not v.get("ok")}
        raise RuntimeError(f"restored index failed verification: {bad}")
    return checks


def point_alias(alias_path: str, index_dir: str) -> str:
    """Atomic serving-alias flip (Elasticsearch alias swap / Solr
    collection alias): ``alias_path`` becomes a symlink to
    ``index_dir``, replaced atomically (symlink-to-temp + rename), so
    a reader opening the alias sees either the old or the new index —
    never a partial state. Zero-downtime reindex: build the new index
    beside the old, verify it, flip, delete the old at leisure.
    Readers opened through the alias resolve the target at open time;
    the serving cache keys on the resolved stats mtime + tombstone
    state, so a flip invalidates cached results implicitly. Returns
    the resolved target."""
    target = os.path.abspath(index_dir)
    if not os.path.exists(os.path.join(target, STATS_FILE)):
        raise FileNotFoundError(f"not a built index: {target}")
    tmp = alias_path + ".tmp_alias"
    if os.path.lexists(tmp):
        os.unlink(tmp)
    os.symlink(target, tmp)
    os.replace(tmp, alias_path)
    return target
