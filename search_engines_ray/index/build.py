"""Ray-Data-native inverted-index build pipeline.

The reference consumed a prebuilt Lucene 4.3 index
(``/root/reference/QryEval/Idx.java:162-197``); per the north rule we build
the equivalent index ourselves from a Parquet table of web pages
(columns per BASELINE.json input_hint: ``url, warc_ts, html, text, lang``).

Pipeline (two ``ray.data`` jobs — SURVEY.md §3.4/§7):

1. **project + pid** — ``select_columns`` drops ``html`` before anything
   wide; ``add_pid`` tags each row with a stable md5 partition of its
   url (``pid``).
2. **forward write** — ONE shuffle (``groupby("pid")``) and NO counting
   pre-pass: a ``map_groups`` writer (``_Tokenize``, Arrow groups) does
   per pid the exact dedup by url (first-wins, deterministic), the url
   sort and the *local* rank ``docid_local``, tokenizes in
   ``tokenize_batch_size`` chunks (process-cached analyzer) and streams
   them through one ``ParquetWriter`` into ``forward/part-pid-<pid>``:
   per doc and field, the term list, gap-preserving positions and
   stopword-inclusive field length (semantics of ``Idx.java:87-90``) —
   both the tokenize checkpoint and the per-doc TermVector equivalent
   (``TermVector.java``) used by PRF. The global docid =
   ``pid_offsets[pid] + docid_local`` is never stored. Each writer
   returns its pid's doc count and per-field length sums and non-zero
   counts; ``forward_SUCCESS.json`` records those rows.
3. **stats** — driver-only: ``stats.json`` (N, per-field doc_count /
   sum_len — ``Idx.getSumOfFieldLengths`` / ``getDocCount`` — and
   ``pid_offsets``, the cumsum of per-pid counts) from the forward
   manifest, no Ray job. Docids within a pid are contiguous, which gives
   salt-by-docid-range merge runs and range-sharded doclen lookup for
   free.
4. **postings** — per-batch partial posting fragments (term, field, salt,
   df, ctf, delta+varbyte blobs from one ``encode_runs`` pass; docids
   ascending within a fragment), then a ``sort(["bucket","salt"])``
   whose keys are *hash buckets*, not individual terms, and one Arrow
   merge kernel per sorted block (``_merge_bucket``) — a head term costs
   one in-memory merge, not a million tiny groups. ``salt`` = contiguous
   docid range (derived from pid), so a term's runs cover disjoint,
   ordered docid ranges: skewed head terms split across at most
   ``merge_salts`` rows and the reader concatenates runs without
   re-sorting (skew plan from SURVEY.md §4/§7.3). Each run carries
   block-max metadata (``min_docid``, ``max_tf``) — a run is a
   docid-range block, so WAND/BMW-style scorers can upper-bound a run's
   contribution as ``idf · tfw(max_tf)`` and skip runs that cannot reach
   the top-k.
5. **write** — ``write_parquet(postings/, partition_cols=["bucket"])`` so
   query-time term fetch prunes to one bucket directory; per-stage
   ``_SUCCESS.json`` manifests (config + input fingerprint) make the
   whole build resumable stage-by-stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..analysis.tokenizer import analyzer_for_mode
from ..util import proc_cached
from .varbyte import decode_joined, encode_runs

# bump when the on-disk layout changes: resume fingerprints include it,
# so indexes cached by an older code version rebuild instead of
# half-matching
FORMAT_VERSION = 5

STATS_FILE = "stats.json"
FORWARD_DIR = "forward"
DOCMETA_DIR = "docmeta"
POSTINGS_DIR = "postings"

_BLOB_COLS = ("docid_blob", "tf_blob", "pos_blob")
_POSTINGS_SCHEMA = pa.schema([
    ("term", pa.string()), ("field", pa.string()), ("bucket", pa.int32()),
    ("salt", pa.int32()), ("df", pa.int64()), ("ctf", pa.int64()),
    ("min_docid", pa.int64()), ("max_tf", pa.int32()),
    *((c, pa.binary()) for c in _BLOB_COLS)])


def term_bucket(term: str, num_buckets: int) -> int:
    """Stable term → bucket hash (md5; never Python's salted hash())."""
    return int.from_bytes(hashlib.md5(term.encode()).digest()[:8], "big") % num_buckets


def url_pid(url: str, num_pids: int) -> int:
    return int.from_bytes(hashlib.md5(url.encode()).digest()[8:16], "big") % num_pids


@dataclass
class IndexBuildConfig:
    # field name -> source column on the pages table
    fields: dict = dc_field(default_factory=lambda: {"body": "text"})
    url_column: str = "url"
    num_buckets: int = 32          # postings term-hash partitions (scale: thousands)
    docid_partitions: int = 32     # pid count for docid assignment
    merge_salts: int | None = None  # posting runs per term (skew bound +
    #   distributed-query parallelism/memory grain). None = auto-size at
    #   build time: ceil(n_docs / docs_per_salt), min 4, capped at
    #   docid_partitions (salt derives from pid, so S ≤ P; at cluster
    #   scale P is configured in the thousands). A fixed S would make
    #   every per-salt query task decode 1/S of the corpus — a per-task
    #   memory/straggler killer at 100× scale (VERDICT r3 item 1).
    docs_per_salt: int = 2_000_000  # auto-size target docs per salt
    tokenize_batch_size: int = 512  # docs per tokenize + write chunk
    tokenize_concurrency: int | tuple = 4   # retained for API compat; unused
    postings_batch_size: int = 16384        # docs per partial-postings batch
    dedup: bool = True
    store_positions: bool = True   # False = BoW-only index: postings
    #   carry empty position blobs (positions are the BULK of postings
    #   bytes on webtext, so a pure-BM25/Indri 100-TB index halves or
    #   better its footprint). #NEAR/#WINDOW then raise at query time;
    #   the forward table keeps its per-doc position lists either way
    #   (term-vector API + a later positional re-merge stay possible).
    analyzer: str = "lucene"       # "lucene" (full chain) | "lucene_nostem"
                                   # (STEMMER=NONE, reference toy index)
                                   # | "simple" (SQL-checkable)
    attributes: dict | None = None  # doc-values plane (Lucene DocValues):
    #   attr name -> source column on the pages table, stored as
    #   ``attr_<name>`` columns of the forward parquet — candidate-set
    #   fetch (reader.attributes_for) and pruned range/equality scans
    #   (reader.docids_where) for sort-by-field / metadata-filtered
    #   retrieval without touching the source table.
    index_synonyms: dict | None = None  # index-time synonym injection
    #   (Lucene SynonymFilter with posIncrement=0): analyzed term →
    #   list of extra terms indexed at the SAME position. Field length
    #   and the position stream stay unchanged (synonyms add tf/df,
    #   not length), so doclen-normalized scores treat them exactly as
    #   Lucene does. Applied AFTER the analyzer chain, so keys must be
    #   analyzed forms.
    lineage: bool = False          # per-PARTITION checkpointing: each
    #   forward pid file and each (bucket, salt) postings cell gets a
    #   lineage sidecar (fingerprint + metrics) next to its atomically
    #   written file, so a crashed 100-TB build resumes from the last
    #   finished partition instead of restarting the stage (north rule:
    #   "resumable from checkpoint with per-partition lineage +
    #   metrics"). Both paths run the same forward writer and merge
    #   kernel, and on both the task grain is the sort's blocks; lineage
    #   adds the sidecars, the resume skip and one postings file per
    #   (bucket, salt) cell. Both produce identical indexes (tested).

    def fingerprint(self, input_token: str, stage: str = "all") -> str:
        """Per-stage resume fingerprint. The forward stage does not
        depend on the postings-merge knobs (num_buckets / merge_salts —
        salt is derived from the stored pid at postings time), so
        re-tuning the merge re-runs only the cheap stats + postings
        stages, never the tokenize."""
        parts = [FORMAT_VERSION, sorted(self.fields.items()),
                 self.url_column, self.docid_partitions, self.analyzer,
                 self.dedup, input_token]
        if self.attributes:
            # appended only when set: configs without attributes keep
            # their pre-doc-values fingerprints (no cache invalidation)
            parts += [sorted(self.attributes.items())]
        if self.index_synonyms:
            parts += [sorted((k, sorted(v))
                             for k, v in self.index_synonyms.items())]
        if stage != FORWARD_DIR:
            # stats.json records num_buckets/merge_salts (the reader's
            # bucket-pruning contract), so docmeta + postings include them
            parts += [self.num_buckets, self.merge_salts,
                      self.docs_per_salt, self.store_positions]
        blob = json.dumps(parts, sort_keys=True)
        return hashlib.md5(blob.encode()).hexdigest()


def _stage_record(index_dir: str, stage: str) -> dict | None:
    try:
        with open(os.path.join(index_dir, stage + "_SUCCESS.json")) as f:
            return json.load(f)
    except Exception:
        return None


def _stage_done(index_dir: str, stage: str, fp: str) -> bool:
    return (_stage_record(index_dir, stage) or {}).get("fingerprint") == fp


def _mark_stage(index_dir: str, stage: str, fp: str, **metrics) -> None:
    with open(os.path.join(index_dir, stage + "_SUCCESS.json"), "w") as f:
        json.dump({"fingerprint": fp, "completed_at": time.time(), **metrics}, f)


def _write_json(path: str, obj: dict) -> None:
    """Atomic json write (tmp + rename)."""
    with open(path + ".tmp", "w") as fh:
        json.dump(obj, fh)
    os.replace(path + ".tmp", path)


# ---------------------------------------------------------------------------
# per-partition lineage (cfg.lineage=True): pid-grain forward checkpoints
# ---------------------------------------------------------------------------
LINEAGE_DIR = "_lineage"


def _fwd_file(pid: int) -> str:
    return f"part-pid-{pid:06d}.parquet"


def _pid_of_fwd_file(name: str) -> int | None:
    if name.startswith("part-pid-") and name.endswith(".parquet"):
        try:
            return int(name[len("part-pid-"):-len(".parquet")])
        except ValueError:
            return None
    return None


def forward_lineage(index_dir: str) -> dict[int, dict]:
    """pid → lineage entry (fingerprint, n_docs, per-field token sums and
    non-zero counts, wall_s, completed_at) for a ``lineage=True`` build.
    Sidecars are the authoritative per-partition record; entries whose
    data file is gone are dropped (the pair is what makes a partition
    resumable)."""
    fwd_path = os.path.join(index_dir, FORWARD_DIR)
    d = os.path.join(fwd_path, LINEAGE_DIR)
    out: dict[int, dict] = {}
    if not os.path.isdir(d):
        return out
    for name in sorted(os.listdir(d)):
        if not (name.startswith("pid-") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(d, name)) as f:
                e = json.load(f)
            pid = int(e["pid"])
        except Exception:
            continue
        if os.path.exists(os.path.join(fwd_path, _fwd_file(pid))):
            out[pid] = e
    return out


def _forward_rows(batch: pa.Table, fields: dict, mode: str,
                  attributes: dict, synonyms: dict) -> pa.Table:
    """Forward-index rows of ``batch`` (docid_local, external_id, pid, the
    configured doc-value attribute columns passed through as
    ``attr_<name>``, and per field: terms/positions/len)."""
    n = batch.num_rows
    out: dict = {
        "docid_local": batch["docid_local"],
        "external_id": batch["external_id"],
        "pid": batch["pid"],
    }
    for aname, col in sorted(attributes.items()):
        out[f"attr_{aname}"] = batch[col]
    # Ray reuses worker processes across tasks, so a process-global
    # analyzer gives actor-style setup amortization (stem cache,
    # compiled regexes) WITHOUT an actor pool
    analyze = proc_cached(("analyzer", mode),
                          lambda: analyzer_for_mode(mode)).analyze
    for fname, col in fields.items():
        texts = batch[col].to_pylist()
        terms_col, pos_col, len_col = [], [], np.empty(n, dtype=np.int32)
        for i, txt in enumerate(texts):
            terms, pos, flen = analyze(txt or "")
            if synonyms:
                # SynonymFilter posIncrement=0: emit extras at the SAME
                # position, in stream order so per-term position lists
                # stay ascending (delta-encode contract); flen unchanged
                # — synonyms add tf, not length
                t2, p2 = [], []
                for t, p in zip(terms, pos):
                    t2.append(t)
                    p2.append(p)
                    for s in synonyms.get(t, ()):
                        t2.append(s)
                        p2.append(p)
                terms, pos = t2, p2
            terms_col.append(terms)
            pos_col.append(pos)
            len_col[i] = flen
        out[f"terms_{fname}"] = pa.array(terms_col, type=pa.list_(pa.string()))
        out[f"pos_{fname}"] = pa.array(pos_col, type=pa.list_(pa.int32()))
        out[f"len_{fname}"] = pa.array(len_col)
    return pa.table(out)


class _Tokenize:
    """Forward writer, one call per pid group (Arrow): docid assignment,
    tokenize and an ATOMIC write of the pid's forward file, streamed in
    ``tokenize_batch_size`` chunks through one ``ParquetWriter``. Returns
    the pid's stats row (doc count, per-field length sum and non-zero
    count). With ``lineage`` it also writes the pid's sidecar (data
    first, sidecar second — a sidecar therefore implies complete
    data)."""

    __name__ = "_Tokenize"  # map_groups names its op after fn.__name__

    def __init__(self, cfg: "IndexBuildConfig", fwd_path: str, fp: str):
        self.cfg = cfg
        self.fwd_path = fwd_path
        self.fp = fp

    def __call__(self, g: pa.Table) -> pa.Table:
        t0 = time.time()
        cfg, url = self.cfg, self.cfg.url_column
        pid = int(g["pid"][0].as_py())
        # url-sorted; with dedup the first-wins rule keeps each url's
        # smallest row under a full column sort (reference docids are
        # unique by construction; SURVEY.md §2.5 "dedup")
        keys = [url] + ([c for c in g.column_names if c != url]
                        if cfg.dedup else [])
        g = g.take(pc.sort_indices(g, [(k, "ascending") for k in keys],
                                   null_placement="at_end"))
        if cfg.dedup:
            u = g[url].combine_chunks()
            first = np.ones(g.num_rows, dtype=bool)
            first[1:] = pc.not_equal(u[1:], u[:-1]).to_numpy(
                zero_copy_only=False)
            g = g.filter(first)
        n = g.num_rows
        g = g.append_column("docid_local", pa.array(np.arange(n, dtype=np.int64)))
        g = g.append_column("external_id", g[url].cast(pa.string()))
        row = {"pid": pid, "n_docs": n}
        for f in cfg.fields:
            row[f"sum_len_{f}"] = row[f"nz_{f}"] = 0
        dest = os.path.join(self.fwd_path, _fwd_file(pid))
        writer = None
        for lo in range(0, n, cfg.tokenize_batch_size):
            tbl = _forward_rows(g.slice(lo, cfg.tokenize_batch_size),
                                cfg.fields, cfg.analyzer,
                                cfg.attributes or {}, cfg.index_synonyms or {})
            writer = writer or pq.ParquetWriter(dest + ".tmp", tbl.schema)
            writer.write_table(tbl)
            for f in cfg.fields:
                lens = tbl[f"len_{f}"].to_numpy()
                row[f"sum_len_{f}"] += int(lens.sum(dtype=np.int64))
                row[f"nz_{f}"] += int(np.count_nonzero(lens))
        writer.close()
        os.replace(dest + ".tmp", dest)
        if cfg.lineage:
            _write_json(
                os.path.join(self.fwd_path, LINEAGE_DIR, f"pid-{pid:06d}.json"),
                {**row, "fingerprint": self.fp, "file": _fwd_file(pid),
                 "wall_s": round(time.time() - t0, 3),
                 "completed_at": time.time()})
        return pa.table({k: [v] for k, v in row.items()})


def _sweep_forward(fwd_path: str, fp_fwd: str) -> dict[int, dict]:
    """Lineage resume: pid → sidecar of every pid whose (data file,
    sidecar, fingerprint) triple is intact. Anything else is from a
    crashed write or a different config and is removed, so resumed
    output can't double-count; likewise orphan/invalid sidecars."""
    done = {p: e for p, e in forward_lineage(os.path.dirname(fwd_path)).items()
            if e.get("fingerprint") == fp_fwd}
    for name in os.listdir(fwd_path):
        full = os.path.join(fwd_path, name)
        if os.path.isfile(full) and (name.endswith(".tmp") or (
                name.endswith(".parquet") and _pid_of_fwd_file(name) not in done)):
            os.remove(full)
    ldir = os.path.join(fwd_path, LINEAGE_DIR)
    for name in os.listdir(ldir):
        try:
            pid = int(name[len("pid-"):-len(".json")])
        except ValueError:
            pid = None
        if pid not in done:       # also every *.json.tmp (no int parse)
            os.remove(os.path.join(ldir, name))
    return done


def _build_forward(pages: "ray.data.Dataset", fwd_path: str,
                   cfg: "IndexBuildConfig", fp_fwd: str,
                   resume: bool) -> tuple[list[dict], dict]:
    """Forward stage: ONE shuffle (the pid groupby) into the forward
    writer. Returns every pid's stats row, in pid order, and the stage
    metrics. With lineage and ``resume``, pids whose checkpoint is
    intact are skipped and their rows come from their sidecars."""
    if not (cfg.lineage and resume):
        # a crashed/invalidated stage must start clean
        shutil.rmtree(fwd_path, ignore_errors=True)
    os.makedirs(os.path.join(fwd_path, LINEAGE_DIR) if cfg.lineage
                else fwd_path, exist_ok=True)
    done = _sweep_forward(fwd_path, fp_fwd) if cfg.lineage and resume else {}
    url_col = cfg.url_column
    P = cfg.docid_partitions
    cols = sorted({url_col, *cfg.fields.values(),
                   *(cfg.attributes or {}).values()})

    def add_pid(b: pa.Table) -> pa.Table:
        urls = b[url_col].to_pylist()
        pids = np.fromiter((url_pid(u, P) for u in urls), dtype=np.int32,
                           count=len(urls))
        return b.append_column("pid", pa.array(pids))

    ds = pages.select_columns(cols).map_batches(add_pid,
                                                batch_format="pyarrow")
    if done:
        done_mask = np.zeros(P, dtype=bool)
        done_mask[list(done)] = True

        def drop_done(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(~done_mask[b["pid"].to_numpy()]))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")
    built = ds.groupby("pid").map_groups(
        _Tokenize(cfg, fwd_path, fp_fwd), batch_format="pyarrow").take_all()
    keys = ["pid", "n_docs"] + [f"{k}_{f}" for f in cfg.fields
                                for k in ("sum_len", "nz")]
    rows = sorted(({k: int(r[k]) for k in keys}
                   for r in [*built, *done.values()]), key=lambda r: r["pid"])
    return rows, {"pids_built": len(built), "pids_resumed": len(done),
                  "docs_built": sum(int(r["n_docs"]) for r in built)}


def _corpus_stats(cfg: "IndexBuildConfig", pids: list[dict]) -> dict:
    """``stats.json`` from the forward writer's per-pid rows: corpus and
    per-field totals, the pid → docid-range boundaries (docids are
    ``pid_offsets[pid] + docid_local``, so a pid's docids are exactly
    ``[pid_offsets[p], pid_offsets[p+1])`` — the shard map for
    range-sharded doclen lookup), and S: merge_salts=None auto-sizes it
    with the corpus so per-salt query tasks stay bounded (~docs_per_salt
    docids each)."""
    P = cfg.docid_partitions
    col = lambda k: np.array([r[k] for r in pids], dtype=np.int64)
    pid_n = np.zeros(P, dtype=np.int64)
    pid_n[col("pid")] = col("n_docs")
    n_docs = int(pid_n.sum())
    S = cfg.merge_salts
    if S is None:
        S = min(P, max(4, -(-n_docs // max(1, cfg.docs_per_salt))))
    return {"version": 1, "n_docs": n_docs,
            "fields": {f: {"doc_count": int(col(f"nz_{f}").sum()),
                           "sum_len": int(col(f"sum_len_{f}").sum())}
                       for f in cfg.fields},
            "num_buckets": cfg.num_buckets,
            "merge_salts": int(S),
            "docid_partitions": P, "analyzer": cfg.analyzer,
            "positions": bool(cfg.store_positions),
            "attributes": sorted(cfg.attributes or {}),
            "pid_offsets": np.concatenate(([0], np.cumsum(pid_n))).tolist()}


# ---------------------------------------------------------------------------
# postings: partial fragments, the merge kernel, (bucket, salt) lineage
# ---------------------------------------------------------------------------
def _salt_file(salt: int) -> str:
    return f"salt-{salt:05d}.parquet"


def postings_lineage(index_dir: str) -> dict[tuple[int, int], dict]:
    """(bucket, salt) → lineage entry for a ``lineage=True`` postings
    merge; entries whose data file is gone are dropped."""
    pdir = os.path.join(index_dir, POSTINGS_DIR)
    d = os.path.join(pdir, LINEAGE_DIR)
    out: dict[tuple[int, int], dict] = {}
    if not os.path.isdir(d):
        return out
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(d, name)) as f:
                e = json.load(f)
            key = (int(e["bucket"]), int(e["salt"]))
        except Exception:
            continue
        if os.path.exists(os.path.join(pdir, f"bucket={key[0]}",
                                       _salt_file(key[1]))):
            out[key] = e
    return out


def _cumsum0(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a) + 1, dtype=np.int64)
    np.cumsum(a, out=out[1:])
    return out


def _blob_array(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Binary column from ``encode_runs``' bytes + offsets, zero-copy
    (the int32 offsets conversion fails loudly past 2 GiB)."""
    offs = pa.array(offsets, pa.int32())
    return pa.Array.from_buffers(pa.binary(), len(offsets) - 1,
                                 [None, offs.buffers()[1], pa.py_buffer(data)])


def _joined_bytes(col) -> np.ndarray:
    """A binary column's values back to back, as one uint8 array."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(a.buffers()[1], np.int32)[a.offset:a.offset + len(a) + 1]
    return np.frombuffer(a.buffers()[2], np.uint8)[offs[0]:offs[-1]]


def _term_buckets(vocab: pa.Array, num_buckets: int) -> np.ndarray:
    """``term_bucket`` of each term of a dictionary."""
    return np.fromiter((term_bucket(t, num_buckets) for t in vocab.to_pylist()),
                       dtype=np.int32, count=len(vocab))


def _partial_postings_fn(fields: list[str], num_buckets: int,
                         salt_of_pid: np.ndarray, pid_offsets: np.ndarray,
                         store_positions: bool = True):
    """Returns the map_batches fn building partial posting fragments.

    Within a batch: rows sorted by docid, then for each field a single
    explode + stable sort by term code yields (term, docid) postings
    with their tf and position segments, and runs of equal (term, salt)
    — salt is monotone in docid — become fragments, all blobs from one
    ``encode_runs`` call. The global docid is derived here as
    ``pid_offsets[pid] + docid_local`` (the forward table stores only
    the pid-local rank — see build_index)."""

    def fn(batch: pa.Table) -> pa.Table:
        gdocid = (pid_offsets[batch["pid"].to_numpy()]
                  + batch["docid_local"].to_numpy())
        order = np.argsort(gdocid, kind="stable")
        batch = batch.take(order)
        docid = gdocid[order]
        salt = salt_of_pid[batch["pid"].to_numpy()]
        parts = [_POSTINGS_SCHEMA.empty_table()]
        for fname in fields:
            terms_arr = batch[f"terms_{fname}"].combine_chunks()
            flat = terms_arr.flatten()
            if len(flat) == 0:
                continue
            # dictionary-encode so the (term, docid) grouping sorts int32
            # codes (a million python string compares per batch otherwise)
            denc = flat.dictionary_encode()
            counts = np.diff(terms_arr.offsets.to_numpy())
            # group by (term, docid): docid already ascending, so a
            # stable sort by term keeps docids and each doc's positions
            # ascending within a term
            by_term = np.argsort(denc.indices.to_numpy(), kind="stable")
            term = denc.indices.to_numpy()[by_term]
            doc = np.repeat(docid, counts)[by_term]
            new_post = np.ones(term.size, dtype=bool)
            new_post[1:] = (term[1:] != term[:-1]) | (doc[1:] != doc[:-1])
            post = np.flatnonzero(new_post)
            tf = np.diff(np.append(post, term.size))
            p_term = term[post]
            p_salt = np.repeat(salt, counts)[by_term][post]
            new_run = np.ones(post.size, dtype=bool)
            new_run[1:] = (p_term[1:] != p_term[:-1]) | (p_salt[1:] != p_salt[:-1])
            run = np.flatnonzero(new_run)
            pos = (batch[f"pos_{fname}"].combine_chunks().flatten()
                   .to_numpy()[by_term] if store_positions else None)
            blobs = encode_runs(doc[post], tf, pos, np.append(run, post.size))
            parts.append(pa.table({
                "term": denc.dictionary.take(p_term[run]).cast(pa.string()),
                "field": pa.array([fname] * run.size, pa.string()),
                "bucket": _term_buckets(denc.dictionary,
                                        num_buckets)[p_term[run]],
                "salt": p_salt[run].astype(np.int32),
                "df": np.diff(np.append(run, post.size)),
                "ctf": np.add.reduceat(tf, run),
                "min_docid": doc[post][run],
                "max_tf": np.maximum.reduceat(tf, run).astype(np.int32),
                **{c: _blob_array(*b) for c, b in zip(_BLOB_COLS, blobs)},
            }, schema=_POSTINGS_SCHEMA))
        return pa.concat_tables(parts)

    return fn


def _merge_bucket(t: pa.Table) -> pa.Table:
    """Merge every (bucket, salt, term, field) run of a block of partial
    fragments in one pass; runs come out in order of first appearance.

    Fragments of a run hold disjoint docid sets (a doc lives in exactly
    one partial batch), each ascending. df/ctf/min_docid/max_tf reduce
    over a run's fragments. A single-fragment run keeps its blobs
    (one ``take``); the multi-fragment runs take one joined decode, one
    lexsort by (run, docid), one position gather and one
    ``encode_runs``."""
    n = t.num_rows
    if n == 0:
        return t
    code = lambda c: t[c].combine_chunks().dictionary_encode().indices.to_numpy()
    key = np.stack([t["bucket"].to_numpy(), t["salt"].to_numpy(),
                    code("field"), code("term")])
    order = np.lexsort(key[::-1])          # stable: rows keep block order
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (key[:, order[1:]] != key[:, order[:-1]]).any(axis=0)
    starts = np.flatnonzero(new_run)
    cnt = np.diff(np.append(starts, n))
    first = order[starts]                 # each run's first row
    reduce = lambda uf, c: uf.reduceat(t[c].to_numpy()[order], starts)
    df = reduce(np.add, "df")
    multi = cnt > 1
    blobs = [t[c].take(first[~multi]).chunks for c in _BLOB_COLS]
    if multi.any():
        rows = order[np.repeat(multi, cnt)]   # fragments of merged runs
        frag_df = t["df"].to_numpy()[rows]
        d, tf, p = decode_joined(*(_joined_bytes(t[c].take(rows))
                                   for c in _BLOB_COLS), _cumsum0(frag_df))
        run_of = np.repeat(np.repeat(np.arange(multi.sum()), cnt[multi]),
                           frag_df)
        o = np.lexsort((d, run_of))
        if p.size:
            # gather each posting's position segment in the new order
            seg = _cumsum0(tf)[:-1][o]
            new_len = tf[o].astype(np.int64)
            p = p[np.repeat(seg - _cumsum0(new_len)[:-1], new_len)
                  + np.arange(int(new_len.sum()))]
        merged = encode_runs(d[o], tf[o], p, _cumsum0(df[multi]))
        for chunks, b in zip(blobs, merged):
            chunks.append(_blob_array(*b))
    # output slot of each run: singles first, then merged runs
    slot = np.empty(cnt.size, dtype=np.int64)
    slot[~multi] = np.arange(np.count_nonzero(~multi))
    slot[multi] = np.count_nonzero(~multi) + np.arange(np.count_nonzero(multi))
    rank = np.argsort(first)              # runs in order of first appearance
    head = t.select(["term", "field", "bucket", "salt"]).take(first[rank])
    return pa.table({
        **dict(zip(head.column_names, head.columns)),
        "df": df[rank],
        "ctf": reduce(np.add, "ctf")[rank],
        "min_docid": reduce(np.minimum, "min_docid")[rank],
        "max_tf": reduce(np.maximum, "max_tf")[rank],
        **{c: pa.chunked_array(chunks, pa.binary()).take(slot[rank])
           for c, chunks in zip(_BLOB_COLS, blobs)},
    }, schema=_POSTINGS_SCHEMA)


class _PostingsGroupWriter:
    """One call per (bucket, salt) cell: run the merge kernel, write the
    cell's file atomically under its hive bucket dir, then its lineage
    sidecar. The file layout matches ``write_parquet(partition_cols=
    ["bucket"])`` as the reader consumes it: bucket encoded in the dir
    name only, every other column in-file (reader.py:266 opens bucket
    dirs directly and never reads a bucket column)."""

    __name__ = "PostingsGroupWriter"  # map_groups wraps fn.__name__

    def __init__(self, pdir: str, fp: str):
        self.pdir = pdir
        self.fp = fp

    def __call__(self, g: pa.Table) -> pa.Table:
        t0 = time.time()
        b, s = int(g["bucket"][0].as_py()), int(g["salt"][0].as_py())
        merged = _merge_bucket(g)
        bdir = os.path.join(self.pdir, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        dest = os.path.join(bdir, _salt_file(s))
        pq.write_table(merged.drop_columns(["bucket"]), dest + ".tmp")
        os.replace(dest + ".tmp", dest)
        entry = {"bucket": b, "salt": s, "fingerprint": self.fp,
                 "n_terms": merged.num_rows,
                 "wall_s": round(time.time() - t0, 3),
                 "completed_at": time.time()}
        _write_json(os.path.join(self.pdir, LINEAGE_DIR,
                                 f"b{b:05d}-s{s:05d}.json"), entry)
        return pa.table({"bucket": [b], "salt": [s], "n_terms": [merged.num_rows]})


def _postings_lineage_merge(partial: "ray.data.Dataset", index_dir: str,
                            fp: str, num_buckets: int, S: int) -> dict:
    """Postings merge with per-(bucket, salt) lineage: sweep debris,
    skip checkpointed cells (pre-shuffle filter on the partial
    fragments), merge + write the rest atomically."""
    pdir = os.path.join(index_dir, POSTINGS_DIR)
    os.makedirs(os.path.join(pdir, LINEAGE_DIR), exist_ok=True)
    entries = postings_lineage(index_dir)
    done = {k for k, e in entries.items() if e.get("fingerprint") == fp}
    for name in os.listdir(pdir):
        bdir = os.path.join(pdir, name)
        if not (os.path.isdir(bdir) and name.startswith("bucket=")):
            continue
        try:
            b = int(name.split("=", 1)[1])
        except ValueError:
            b = -1
        for f in os.listdir(bdir):
            full = os.path.join(bdir, f)
            salt = (int(f[len("salt-"):-len(".parquet")])
                    if f.startswith("salt-") and f.endswith(".parquet")
                    else None)
            if salt is None or (b, salt) not in done:
                os.remove(full)     # tmp, foreign layout, or not checkpointed
    ldir = os.path.join(pdir, LINEAGE_DIR)
    for name in os.listdir(ldir):
        try:
            b, s = (int(x[1:]) for x in name[:-len(".json")].split("-"))
        except ValueError:
            b = s = None
        if (b, s) not in done:    # also every *.json.tmp (no int parse)
            os.remove(os.path.join(ldir, name))

    if done:
        done_mask = np.zeros(num_buckets * S, dtype=bool)
        done_mask[[b * S + s for b, s in done]] = True

        def drop_done(t: pa.Table) -> pa.Table:
            key = (t["bucket"].to_numpy().astype(np.int64) * S
                   + t["salt"].to_numpy())
            return t.filter(pa.array(~done_mask[key]))

        partial = partial.map_batches(drop_done, batch_format="pyarrow")
    rows = partial.groupby(["bucket", "salt"]).map_groups(
        _PostingsGroupWriter(pdir, fp), batch_format="pyarrow").take_all()
    return {"cells_built": len(rows), "cells_resumed": len(done),
            "terms_built": int(sum(r["n_terms"] for r in rows))}


def build_index(pages: "ray.data.Dataset", index_dir: str,
                config: IndexBuildConfig | None = None,
                input_token: str = "", resume: bool = True) -> dict:
    """Build the full index at ``index_dir``; returns build metrics.

    ``input_token`` should identify the input (e.g. its path) for the
    resume fingerprint; pass ``resume=False`` to force a rebuild.
    """
    cfg = config or IndexBuildConfig()
    os.makedirs(index_dir, exist_ok=True)
    # fold cheap content identity into the resume token: a caller-
    # supplied path alone would serve a stale index if the data at that
    # path changed (ADVICE r1). For file-backed datasets hash the
    # (name, size, mtime) of the source files (capped — identity, not a
    # scan); in-memory datasets keep the caller token as-is.
    try:
        src_files = sorted(pages.input_files())
    except Exception:
        src_files = []
    if src_files:
        sig = [(f, os.path.getsize(f), os.path.getmtime(f))
               for f in src_files[:1024] if os.path.exists(f)]
        input_token = (f"{input_token}|n={len(src_files)}|"
                       + hashlib.md5(json.dumps(sig).encode()).hexdigest())
    fp = cfg.fingerprint(input_token)
    fp_fwd = cfg.fingerprint(input_token, FORWARD_DIR)
    metrics: dict = {}
    t0 = time.time()

    fields = list(cfg.fields)
    P = cfg.docid_partitions

    fwd_path = os.path.join(index_dir, FORWARD_DIR)
    if not (resume and _stage_done(index_dir, FORWARD_DIR, fp_fwd)):
        pids, lin = _build_forward(pages, fwd_path, cfg, fp_fwd, resume)
        metrics.update({f"forward_{k}": v for k, v in lin.items()})
        _mark_stage(index_dir, FORWARD_DIR, fp_fwd, pids=pids, **lin)
    metrics["forward_s"] = time.time() - t0

    # ---- stats, from the forward writer's per-pid rows (docmeta is a
    # column projection of the forward parquet — no separate write; the
    # reader scans forward/ with pruned columns)
    t1 = time.time()
    if not (resume and _stage_done(index_dir, DOCMETA_DIR, fp)):
        stats = _corpus_stats(cfg, _stage_record(index_dir, FORWARD_DIR)["pids"])
        with open(os.path.join(index_dir, STATS_FILE), "w") as fh:
            json.dump(stats, fh, indent=1)
        _mark_stage(index_dir, DOCMETA_DIR, fp, n_docs=stats["n_docs"])
    metrics["docmeta_s"] = time.time() - t1

    # ---- postings
    t2 = time.time()
    if not (resume and _stage_done(index_dir, POSTINGS_DIR, fp)):
        with open(os.path.join(index_dir, STATS_FILE)) as fh:
            st = json.load(fh)
        pdir = os.path.join(index_dir, POSTINGS_DIR)
        if not (cfg.lineage and resume):
            shutil.rmtree(pdir, ignore_errors=True)
        os.makedirs(pdir, exist_ok=True)
        lin = {}
        if st["n_docs"]:
            pid_offsets = np.asarray(st["pid_offsets"], dtype=np.int64)
            # S comes from stats.json (the auto-size resolution ran — or
            # resumed — in the stats stage), so a resumed postings stage
            # always matches the readers' contract
            S = int(st["merge_salts"])
            salt_of_pid = (np.arange(P, dtype=np.int64) * S // P).astype(np.int32)
            fwd_cols = ["docid_local", "pid"]
            for f in fields:
                fwd_cols += [f"terms_{f}", f"pos_{f}"]
            fwd = ray.data.read_parquet(fwd_path, columns=fwd_cols)
            partial = fwd.map_batches(
                _partial_postings_fn(fields, cfg.num_buckets, salt_of_pid,
                                     pid_offsets, cfg.store_positions),
                batch_format="pyarrow", batch_size=cfg.postings_batch_size)
            if cfg.lineage:
                lin = _postings_lineage_merge(partial, index_dir, fp,
                                              cfg.num_buckets, S)
            else:
                # the sort keeps each (bucket, salt) key inside one block
                partial.sort(["bucket", "salt"]).map_batches(
                    _merge_bucket, batch_size=None, batch_format="pyarrow"
                ).write_parquet(pdir, partition_cols=["bucket"])
        metrics.update({f"postings_{k}": v for k, v in lin.items()})
        _mark_stage(index_dir, POSTINGS_DIR, fp, **lin)
    metrics["postings_s"] = time.time() - t2
    metrics["total_s"] = time.time() - t0
    return metrics
