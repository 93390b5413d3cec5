"""Ray-Data-native inverted-index build pipeline.

The reference consumed a prebuilt Lucene 4.3 index
(``/root/reference/QryEval/Idx.java:162-197``); per the north rule we build
the equivalent index ourselves from a Parquet table of web pages
(columns per BASELINE.json input_hint: ``url, warc_ts, html, text, lang``).

Pipeline (all ``ray.data`` — SURVEY.md §3.4/§7):

1. **project + dedup** — ``select_columns`` drops ``html`` before anything
   wide; exact dedup by ``url`` (first-wins, deterministic).
2. **docid assignment** — deterministic dense int64 docids with ONE
   shuffle and NO counting pre-pass: a stable md5 partition of urls
   (``pid``), per-pid dedup + url-sort + *local* rank inside
   ``map_groups``. Only ``(pid, docid_local)`` is stored; the global
   docid = ``pid_offsets[pid] + docid_local`` where ``pid_offsets``
   (cumsum of per-pid counts) is derived by the stats pass and recorded
   in ``stats.json``. Docids within a pid are contiguous, which later
   gives us salt-by-docid-range merge runs and range-sharded doclen
   lookup for free.
3. **tokenize** — actor-pool ``map_batches`` (analyzer + stem cache built
   once per actor in ``__init__``); emits the *forward index*: per doc and
   field, the term list, gap-preserving positions and stopword-inclusive
   field length (semantics of ``Idx.java:87-90``). Written to
   ``<index>/forward/`` parquet — both the tokenize checkpoint and the
   per-doc TermVector equivalent (``TermVector.java``) used by PRF.
4. **docmeta + stats** — docid → external_id + per-field lengths table;
   global ``stats.json`` (N, per-field doc_count / sum_len), matching
   ``Idx.getSumOfFieldLengths`` / ``getDocCount``.
5. **postings** — per-batch partial posting fragments (term, field, salt,
   df, ctf, delta+varbyte blobs; docids ascending within a fragment), then
   a ``groupby(["bucket","salt"])`` shuffle whose groups are *hash
   buckets*, not individual terms — the per-term fan-in happens
   vectorized inside ``map_groups``, so a head term costs one in-memory
   merge, not a million tiny groups. ``salt`` = contiguous docid range
   (derived from pid), so a term's runs cover disjoint, ordered docid
   ranges: skewed head terms split across at most ``merge_salts`` rows
   and the reader concatenates runs without re-sorting
   (skew plan from SURVEY.md §4/§7.3). Each run carries block-max
   metadata (``min_docid``, ``max_tf``) — a run is a docid-range block,
   so WAND/BMW-style scorers can upper-bound a run's contribution as
   ``idf · tfw(max_tf)`` and skip runs that cannot reach the top-k.
6. **write** — ``write_parquet(postings/, partition_cols=["bucket"])`` so
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
import pandas as pd
import pyarrow as pa

import ray.data

from ..analysis.tokenizer import analyzer_for_mode
from ..util import proc_cached
from .varbyte import encode_postings, decode_postings

# bump when the on-disk layout changes: resume fingerprints include it,
# so indexes cached by an older code version rebuild instead of
# half-matching
FORMAT_VERSION = 4

STATS_FILE = "stats.json"
FORWARD_DIR = "forward"
DOCMETA_DIR = "docmeta"
POSTINGS_DIR = "postings"


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
    tokenize_batch_size: int = 512
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
    lineage: bool = False          # per-PARTITION checkpointing: the
    #   forward stage at pid grain, the postings merge at (bucket, salt)
    #   grain — each partition writes its file atomically plus a lineage
    #   sidecar (fingerprint + metrics), so a crashed 100-TB build
    #   resumes from the last finished partition instead of restarting
    #   the stage (north rule: "resumable from checkpoint with
    #   per-partition lineage + metrics"). Off by default on one box:
    #   the streaming path pipelines tokenize batches across pid groups,
    #   while the lineage path makes the pid the task grain (assign +
    #   tokenize + write in one task) — same shuffle count, same output
    #   bytes, but scheduling granularity = P tasks, so size
    #   docid_partitions ≥ 4× cluster cores when enabling this. Both
    #   paths produce bit-identical indexes (tested).

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


def _stage_done(index_dir: str, stage: str, fp: str) -> bool:
    p = os.path.join(index_dir, stage + "_SUCCESS.json")
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            return json.load(f).get("fingerprint") == fp
    except Exception:
        return False


def _mark_stage(index_dir: str, stage: str, fp: str, **metrics) -> None:
    with open(os.path.join(index_dir, stage + "_SUCCESS.json"), "w") as f:
        json.dump({"fingerprint": fp, "completed_at": time.time(), **metrics}, f)


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
    """pid → lineage entry (fingerprint, n_docs, per-field token sums,
    wall_s, completed_at) for a ``lineage=True`` build. Sidecars are the
    authoritative per-partition record; entries whose data file is gone
    are dropped (the pair is what makes a partition resumable)."""
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


class _ForwardGroupWriter:
    """One task per pid: docid assignment + tokenize + ATOMIC write of the
    pid's forward file, then its lineage sidecar (data first, sidecar
    second — a sidecar therefore implies complete data). Returns one tiny
    metrics row; the driver consumes those P rows as the stage record."""

    __name__ = "ForwardGroupWriter"  # map_groups wraps fn.__name__

    def __init__(self, cfg: "IndexBuildConfig", fwd_path: str, fp: str):
        self.fields = dict(cfg.fields)
        self.mode = cfg.analyzer
        self.url_col = cfg.url_column
        self.dedup = cfg.dedup
        self.attributes = dict(cfg.attributes or {})
        self.synonyms = dict(cfg.index_synonyms or {})
        self.fwd_path = fwd_path
        self.fp = fp

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq
        t0 = time.time()
        pid = int(g["pid"].iloc[0])
        if self.dedup:
            # identical first-wins rule as the streaming path (bit-equal
            # docids between the two forward implementations)
            g = g.sort_values(list(g.columns)).drop_duplicates(
                self.url_col, keep="first")
        g = g.sort_values(self.url_col, kind="mergesort").reset_index(drop=True)
        g["docid_local"] = np.arange(len(g), dtype=np.int64)
        g["external_id"] = g[self.url_col]
        tbl = _Tokenize(self.fields, self.mode, self.attributes,
                        self.synonyms)(
            pa.Table.from_pandas(g, preserve_index=False))
        dest = os.path.join(self.fwd_path, _fwd_file(pid))
        tmp = dest + ".tmp"
        pq.write_table(tbl, tmp)
        os.replace(tmp, dest)
        entry = {
            "pid": pid, "fingerprint": self.fp, "file": os.path.basename(dest),
            "n_docs": int(len(g)), "wall_s": round(time.time() - t0, 3),
            "completed_at": time.time(),
            **{f"sum_len_{f}": int(np.sum(tbl[f"len_{f}"].to_numpy()))
               for f in self.fields},
        }
        side = os.path.join(self.fwd_path, LINEAGE_DIR, f"pid-{pid:06d}.json")
        with open(side + ".tmp", "w") as fh:
            json.dump(entry, fh)
        os.replace(side + ".tmp", side)
        return pd.DataFrame([{"pid": pid, "n_docs": entry["n_docs"],
                              "wall_s": entry["wall_s"]}])


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


class _PostingsGroupWriter:
    """One task per (bucket, salt) cell: run the fan-in merge, write the
    cell's file atomically under its hive bucket dir, then its lineage
    sidecar. The file layout matches ``write_parquet(partition_cols=
    ["bucket"])`` as the reader consumes it: bucket encoded in the dir
    name only, every other column in-file (reader.py:266 opens bucket
    dirs directly and never reads a bucket column)."""

    __name__ = "PostingsGroupWriter"  # map_groups wraps fn.__name__

    def __init__(self, pdir: str, fp: str):
        self.pdir = pdir
        self.fp = fp

    def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq
        t0 = time.time()
        b = int(g["bucket"].iloc[0])
        s = int(g["salt"].iloc[0])
        merged = _merge_bucket(g)
        bdir = os.path.join(self.pdir, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        dest = os.path.join(bdir, _salt_file(s))
        tmp = dest + ".tmp"
        pq.write_table(pa.Table.from_pandas(merged.drop(columns=["bucket"]),
                                            preserve_index=False), tmp)
        os.replace(tmp, dest)
        entry = {"bucket": b, "salt": s, "fingerprint": self.fp,
                 "n_terms": int(len(merged)), "wall_s": round(time.time() - t0, 3),
                 "completed_at": time.time()}
        side = os.path.join(self.pdir, LINEAGE_DIR, f"b{b:05d}-s{s:05d}.json")
        with open(side + ".tmp", "w") as fh:
            json.dump(entry, fh)
        os.replace(side + ".tmp", side)
        return pd.DataFrame([{"bucket": b, "salt": s,
                              "n_terms": entry["n_terms"]}])


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
        full = os.path.join(ldir, name)
        if name.endswith(".tmp"):
            os.remove(full)
            continue
        try:
            b, s = (int(x[1:]) for x in name[:-len(".json")].split("-"))
        except ValueError:
            os.remove(full)
            continue
        if (b, s) not in done:
            os.remove(full)

    if done:
        done_mask = np.zeros(num_buckets * S, dtype=bool)
        done_mask[[b * S + s for b, s in done]] = True

        def drop_done(t: pa.Table) -> pa.Table:
            key = (t["bucket"].to_numpy().astype(np.int64) * S
                   + t["salt"].to_numpy())
            return t.filter(pa.array(~done_mask[key]))

        partial = partial.map_batches(drop_done, batch_format="pyarrow")
    rows = partial.groupby(["bucket", "salt"]).map_groups(
        _PostingsGroupWriter(pdir, fp), batch_format="pandas").take_all()
    return {"cells_built": len(rows), "cells_resumed": len(done),
            "terms_built": int(sum(r["n_terms"] for r in rows))}


def _build_forward_lineage(pages: "ray.data.Dataset", fwd_path: str,
                           cfg: "IndexBuildConfig", fp_fwd: str) -> dict:
    """Forward stage with per-pid lineage: skip pids whose (data file,
    sidecar, fingerprint) triple is intact, clear anything unaccounted
    for (crashed tmp files, stale foreign output), rebuild the rest."""
    index_dir = os.path.dirname(fwd_path)
    os.makedirs(os.path.join(fwd_path, LINEAGE_DIR), exist_ok=True)
    entries = forward_lineage(index_dir)
    done = {p for p, e in entries.items() if e.get("fingerprint") == fp_fwd}
    # sweep: any data file not backed by a fingerprint-valid sidecar is
    # from a crashed write or a different config — remove it so resumed
    # output can't double-count; likewise orphan/invalid sidecars
    for name in os.listdir(fwd_path):
        full = os.path.join(fwd_path, name)
        if not os.path.isfile(full):
            continue
        if name.endswith(".tmp"):
            os.remove(full)
        elif name.endswith(".parquet") and _pid_of_fwd_file(name) not in done:
            os.remove(full)
    ldir = os.path.join(fwd_path, LINEAGE_DIR)
    for name in os.listdir(ldir):
        full = os.path.join(ldir, name)
        if name.endswith(".tmp"):
            os.remove(full)
            continue
        try:
            pid = int(name[len("pid-"):-len(".json")])
        except ValueError:
            os.remove(full)
            continue
        if pid not in done:
            os.remove(full)

    url_col = cfg.url_column
    P = cfg.docid_partitions
    cols = sorted({url_col, *cfg.fields.values(),
                   *(cfg.attributes or {}).values()})
    ds = pages.select_columns(cols)

    def add_pid(b: pa.Table) -> pa.Table:
        urls = b[url_col].to_pylist()
        pids = np.fromiter((url_pid(u, P) for u in urls), dtype=np.int32,
                           count=len(urls))
        return b.append_column("pid", pa.array(pids))

    ds = ds.map_batches(add_pid, batch_format="pyarrow")
    if done:
        done_mask = np.zeros(P, dtype=bool)
        done_mask[list(done)] = True

        def drop_done(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(~done_mask[b["pid"].to_numpy()]))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")
    writer = _ForwardGroupWriter(cfg, fwd_path, fp_fwd)
    rows = ds.groupby("pid").map_groups(
        writer, batch_format="pandas").take_all()  # ≤ P tiny metric rows
    return {"pids_built": len(rows), "pids_resumed": len(done),
            "docs_built": int(sum(r["n_docs"] for r in rows))}


class _Tokenize:
    """Tokenize stage (stateless task form): emits forward-index rows
    (docid, external_id, pid, per field: terms/positions/len, and the
    configured doc-value attribute columns passed through as
    ``attr_<name>``)."""

    def __init__(self, fields: dict, analyzer_mode: str = "lucene",
                 attributes: dict | None = None,
                 synonyms: dict | None = None):
        self.fields = fields
        self.mode = analyzer_mode
        self.attributes = attributes or {}
        self.synonyms = synonyms or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out: dict = {
            "docid_local": batch["docid_local"],
            "external_id": batch["external_id"],
            "pid": batch["pid"],
        }
        for aname, col in sorted(self.attributes.items()):
            out[f"attr_{aname}"] = batch[col]
        # Ray reuses worker processes across tasks, so a process-global
        # analyzer gives actor-style setup amortization (stem cache,
        # compiled regexes) WITHOUT an actor pool — tasks schedule
        # elastically on every CPU and there is no pool spin-up or
        # read-starvation to tune (the earlier actor pool variant
        # stalled when concurrency == session CPUs).
        analyze = proc_cached(("analyzer", self.mode),
                              lambda: analyzer_for_mode(self.mode)).analyze
        for fname, col in self.fields.items():
            texts = batch[col].to_pylist()
            terms_col, pos_col, len_col = [], [], np.empty(n, dtype=np.int32)
            for i, txt in enumerate(texts):
                terms, pos, flen = analyze(txt or "")
                if self.synonyms:
                    # SynonymFilter posIncrement=0: emit extras at the
                    # SAME position, in stream order so per-term
                    # position lists stay ascending (delta-encode
                    # contract); flen unchanged — synonyms add tf, not
                    # length
                    t2, p2 = [], []
                    for t, p in zip(terms, pos):
                        t2.append(t)
                        p2.append(p)
                        for s in self.synonyms.get(t, ()):
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


def _partial_postings_fn(fields: list[str], num_buckets: int,
                         salt_of_pid: np.ndarray, pid_offsets: np.ndarray,
                         store_positions: bool = True):
    """Returns the map_batches fn building partial posting fragments.

    Within a batch: rows sorted by docid, then for each field a single
    explode + lexsort over (term, docid) yields per-(term,docid) tf and
    position segments without a per-posting Python loop. The global
    docid is derived here as ``pid_offsets[pid] + docid_local`` (the
    forward table stores only the pid-local rank — see build_index)."""

    def fn(batch: pa.Table) -> pa.Table:
        gdocid = (pid_offsets[batch["pid"].to_numpy()]
                  + batch["docid_local"].to_numpy())
        batch = batch.append_column("docid", pa.array(gdocid, pa.int64()))
        batch = batch.sort_by("docid")
        docid = batch["docid"].to_numpy()
        pid = batch["pid"].to_numpy()
        out = {k: [] for k in
               ("term", "field", "bucket", "salt", "df", "ctf", "min_docid",
                "max_tf", "docid_blob", "tf_blob", "pos_blob")}
        for fname in fields:
            terms_arr = batch[f"terms_{fname}"].combine_chunks()
            pos_list = batch[f"pos_{fname}"]
            flat = terms_arr.flatten()
            if len(flat) == 0:
                continue
            # dictionary-encode so the (term, docid) grouping sorts int32
            # codes (a million python string compares per batch otherwise)
            denc = flat.dictionary_encode()
            codes = denc.indices.to_numpy().astype(np.int32)
            vocab = denc.dictionary.to_pylist()
            flat_pos = pos_list.combine_chunks().flatten().to_numpy().astype(np.int64)
            counts = np.diff(terms_arr.offsets.to_numpy())
            doc_of_tok = np.repeat(docid, counts)
            salt_of_tok = np.repeat(salt_of_pid[pid], counts)
            # group by (term, docid); docid already ascending, stable sort by term
            order = np.argsort(codes, kind="stable")
            t_sorted = codes[order]
            d_sorted = doc_of_tok[order]
            s_sorted = salt_of_tok[order]
            p_sorted = flat_pos[order]
            # boundaries where (term, docid) changes
            new_term = np.empty(t_sorted.size, dtype=bool)
            new_term[0] = True
            new_term[1:] = t_sorted[1:] != t_sorted[:-1]
            new_post = new_term.copy()
            new_post[1:] |= d_sorted[1:] != d_sorted[:-1]
            post_starts = np.flatnonzero(new_post)
            tf = np.diff(np.append(post_starts, t_sorted.size)).astype(np.int32)
            post_docids = d_sorted[post_starts]
            post_salts = s_sorted[post_starts]
            post_terms = t_sorted[post_starts]
            # positions within a (term,doc) group are ascending already
            # (docid-major then original position order is preserved by the
            # stable sort? positions within one doc's term list are in token
            # order which is ascending) -> p_sorted is the concat we need.
            term_starts_in_posts = np.flatnonzero(new_term[post_starts])
            term_bounds = np.append(term_starts_in_posts, post_starts.size)
            pos_bounds = np.append(post_starts, t_sorted.size)
            for ti in range(term_starts_in_posts.size):
                lo, hi = term_bounds[ti], term_bounds[ti + 1]
                term = vocab[post_terms[lo]]
                # split this term's postings by salt (runs of equal salt —
                # docids ascending within term, salt monotone in docid)
                salts_here = post_salts[lo:hi]
                salt_breaks = np.flatnonzero(np.diff(salts_here)) + 1
                seg_starts = np.concatenate(([0], salt_breaks, [hi - lo]))
                b = term_bucket(term, num_buckets)
                for si in range(seg_starts.size - 1):
                    a0, a1 = lo + seg_starts[si], lo + seg_starts[si + 1]
                    dids = post_docids[a0:a1]
                    tfs = tf[a0:a1]
                    pcat = (p_sorted[pos_bounds[a0]:pos_bounds[a1]]
                            if store_positions else
                            np.empty(0, np.int64))
                    dblob, tblob, pblob = encode_postings(dids, tfs, pcat)
                    out["term"].append(term)
                    out["field"].append(fname)
                    out["bucket"].append(b)
                    out["salt"].append(int(post_salts[a0]))
                    out["df"].append(int(dids.size))
                    out["ctf"].append(int(tfs.sum()))
                    out["min_docid"].append(int(dids[0]))
                    out["max_tf"].append(int(tfs.max()))
                    out["docid_blob"].append(dblob)
                    out["tf_blob"].append(tblob)
                    out["pos_blob"].append(pblob)
        return pa.table({
            "term": pa.array(out["term"], pa.string()),
            "field": pa.array(out["field"], pa.string()),
            "bucket": pa.array(out["bucket"], pa.int32()),
            "salt": pa.array(out["salt"], pa.int32()),
            "df": pa.array(out["df"], pa.int64()),
            "ctf": pa.array(out["ctf"], pa.int64()),
            "min_docid": pa.array(out["min_docid"], pa.int64()),
            "max_tf": pa.array(out["max_tf"], pa.int32()),
            "docid_blob": pa.array(out["docid_blob"], pa.binary()),
            "tf_blob": pa.array(out["tf_blob"], pa.binary()),
            "pos_blob": pa.array(out["pos_blob"], pa.binary()),
        })

    return fn


def _merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Merge partial fragments within one (bucket, salt) group.

    Fan-in is vectorized per (term, field): fragments hold disjoint docid
    sets (a doc lives in exactly one tokenize batch), each ascending, so a
    stable argsort over the concatenation is a k-way merge."""
    rows = {k: [] for k in ("term", "field", "bucket", "salt", "df", "ctf",
                            "min_docid", "max_tf", "docid_blob", "tf_blob",
                            "pos_blob")}
    for (term, fld), g in group.groupby(["term", "field"], sort=False):
        if len(g) == 1:
            r = g.iloc[0]
            for k in rows:
                rows[k].append(r[k])
            continue
        dparts, tparts, pparts = [], [], []
        for db, tb, pb in zip(g["docid_blob"], g["tf_blob"], g["pos_blob"]):
            d, t, p = decode_postings(db, tb, pb)
            dparts.append(d); tparts.append(t); pparts.append(p)
        docids = np.concatenate(dparts)
        tfs = np.concatenate(tparts)
        pcat = np.concatenate(pparts)
        order = np.argsort(docids, kind="stable")
        docids = docids[order]
        tfs_o = tfs[order]
        # gather variable-length position segments in the new order
        seg_len = tfs.astype(np.int64)
        seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
        new_len = seg_len[order]
        total = int(new_len.sum())
        out_start = np.concatenate(([0], np.cumsum(new_len)[:-1]))
        if pcat.size:
            idx = (np.repeat(seg_start[order] - out_start, new_len)
                   + np.arange(total))
            pnew = pcat[idx]
        else:
            # positions-less partials (store_positions=False): nothing
            # to gather, the re-encode emits an empty pos blob
            pnew = pcat
        dblob, tblob, pblob = encode_postings(docids, tfs_o, pnew)
        rows["term"].append(term)
        rows["field"].append(fld)
        rows["bucket"].append(g["bucket"].iloc[0])
        rows["salt"].append(g["salt"].iloc[0])
        rows["df"].append(int(docids.size))
        rows["ctf"].append(int(tfs_o.sum()))
        rows["min_docid"].append(int(docids[0]))
        rows["max_tf"].append(int(tfs_o.max()))
        rows["docid_blob"].append(dblob)
        rows["tf_blob"].append(tblob)
        rows["pos_blob"].append(pblob)
    return pd.DataFrame(rows)


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

    def resolve_salts(n_docs: int) -> int:
        """merge_salts=None auto-sizes S with the corpus so per-salt
        query tasks stay bounded (~docs_per_salt docids each); recorded
        in stats.json, which is what every reader consumes."""
        if cfg.merge_salts is not None:
            return int(cfg.merge_salts)
        return int(min(P, max(4, -(-n_docs // max(1, cfg.docs_per_salt)))))

    fwd_path = os.path.join(index_dir, FORWARD_DIR)
    if cfg.lineage and not (resume and _stage_done(index_dir, FORWARD_DIR,
                                                   fp_fwd)):
        if not resume:
            shutil.rmtree(fwd_path, ignore_errors=True)
        lin = _build_forward_lineage(pages, fwd_path, cfg, fp_fwd)
        metrics.update({f"forward_{k}": v for k, v in lin.items()})
        _mark_stage(index_dir, FORWARD_DIR, fp_fwd, **lin)
    elif not (resume and _stage_done(index_dir, FORWARD_DIR, fp_fwd)):
        # idempotent re-run: write_parquet APPENDS into an existing
        # directory, so a crashed/invalidated stage must start clean
        shutil.rmtree(fwd_path, ignore_errors=True)
        url_col = cfg.url_column
        cols = sorted({url_col, *cfg.fields.values(),
                       *(cfg.attributes or {}).values()})
        ds = pages.select_columns(cols)

        def add_pid(b: pa.Table) -> pa.Table:
            urls = b[url_col].to_pylist()
            pids = np.fromiter((url_pid(u, P) for u in urls), dtype=np.int32,
                               count=len(urls))
            return b.append_column("pid", pa.array(pids))

        ds = ds.map_batches(add_pid, batch_format="pyarrow")

        # ---- docid assignment: ONE shuffle, NO counting pre-pass. The
        # pid groupby co-locates each url-hash partition; inside a group
        # we dedup (first-wins under a full column sort), url-sort, and
        # assign the *pid-local* rank only. The global docid is never
        # stored: it is ``pid_offsets[pid] + docid_local``, where
        # pid_offsets (cumsum of per-pid doc counts) falls out of the
        # stats pass that runs anyway. This removes an entire Ray job
        # (url scan + groupby + driver barrier) from the build — a fixed
        # multi-second all-to-all at any corpus size — while keeping
        # docids bit-identical to the counted design.
        dedup = cfg.dedup

        def assign_local(g: pd.DataFrame) -> pd.DataFrame:
            if dedup:
                # first-wins deterministically: smallest row under a full
                # column sort (reference docids are unique by construction;
                # SURVEY.md §2.5 "dedup")
                g = g.sort_values(list(g.columns)).drop_duplicates(
                    url_col, keep="first")
            g = g.sort_values(url_col, kind="mergesort").reset_index(drop=True)
            g["docid_local"] = np.arange(len(g), dtype=np.int64)
            g["external_id"] = g[url_col]
            return g

        ds = ds.groupby("pid").map_groups(assign_local, batch_format="pandas")
        tokenize = _Tokenize(cfg.fields, cfg.analyzer, cfg.attributes,
                             cfg.index_synonyms)
        ds = ds.map_batches(
            tokenize, batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size)
        ds.write_parquet(fwd_path)
        _mark_stage(index_dir, FORWARD_DIR, fp_fwd)
    metrics["forward_s"] = time.time() - t0

    # ---- stats (docmeta is a column projection of the forward parquet —
    # no separate write; the reader scans forward/ with pruned columns)
    t1 = time.time()
    if not (resume and _stage_done(index_dir, DOCMETA_DIR, fp)):
        # single pass: per-batch partial (n, sum_len, nonzero-count per
        # field) → tiny table → driver sum. One Ray job instead of 2+F.
        have_files = os.path.isdir(fwd_path) and any(
            f.endswith(".parquet") for f in os.listdir(fwd_path))
        if not have_files:
            # empty corpus: write a valid empty index instead of letting
            # read_parquet / concat_tables crash downstream
            stats = {"version": 1, "n_docs": 0,
                     "fields": {f: {"doc_count": 0, "sum_len": 0}
                                for f in fields},
                     "num_buckets": cfg.num_buckets,
                     "merge_salts": resolve_salts(0),
                     "docid_partitions": P, "analyzer": cfg.analyzer,
                     "positions": bool(cfg.store_positions),
                     "attributes": sorted(cfg.attributes or {}),
                     "pid_offsets": [0] * (P + 1)}
            with open(os.path.join(index_dir, STATS_FILE), "w") as fh:
                json.dump(stats, fh, indent=1)
            os.makedirs(os.path.join(index_dir, POSTINGS_DIR), exist_ok=True)
            for stage in (DOCMETA_DIR, POSTINGS_DIR):
                _mark_stage(index_dir, stage, fp, n_docs=0)
            metrics["total_s"] = time.time() - t0
            return metrics
        meta_ds = ray.data.read_parquet(
            fwd_path,
            columns=["pid"] + [f"len_{f}" for f in fields])

        def partial_stats(b: pa.Table) -> pa.Table:
            """One row per pid present in the batch: doc count + per-field
            len sums/nonzero counts. The per-pid grain (vs per-batch)
            lets the driver also derive the docid-range boundaries each
            pid owns — the shard map for range-sharded doclen lookup in
            the distributed scorer (docids are offsets[pid]+rank, so a
            pid's docids are exactly [boundary[p], boundary[p+1]))."""
            pids = b["pid"].to_numpy()
            uniq, inv = np.unique(pids, return_inverse=True)
            row: dict = {"pid": uniq.astype(np.int32)}
            n = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(n, inv, 1)
            row["n"] = n
            for f in fields:
                lens = b[f"len_{f}"].to_numpy().astype(np.int64)
                s = np.zeros(uniq.size, dtype=np.int64)
                np.add.at(s, inv, lens)
                nz = np.zeros(uniq.size, dtype=np.int64)
                np.add.at(nz, inv, (lens > 0).astype(np.int64))
                row[f"sum_{f}"] = s
                row[f"nz_{f}"] = nz
            return pa.table(row)

        parts = pa.concat_tables(
            meta_ds.map_batches(partial_stats, batch_format="pyarrow")
            .iter_batches(batch_size=None, batch_format="pyarrow"))
        n_docs = int(np.sum(parts["n"].to_numpy()))
        field_stats = {}
        for f in fields:
            field_stats[f] = {
                "doc_count": int(np.sum(parts[f"nz_{f}"].to_numpy())),
                "sum_len": int(np.sum(parts[f"sum_{f}"].to_numpy()))}
        # pid → docid-range boundaries: counts per pid + the assignment
        # invariant (docids contiguous per pid, pid ranges in pid order)
        pid_n = np.zeros(P, dtype=np.int64)
        np.add.at(pid_n, parts["pid"].to_numpy(), parts["n"].to_numpy())
        pid_offsets = np.concatenate(([0], np.cumsum(pid_n))).tolist()
        stats = {"version": 1, "n_docs": int(n_docs), "fields": field_stats,
                 "num_buckets": cfg.num_buckets,
                 "merge_salts": resolve_salts(int(n_docs)),
                 "docid_partitions": P, "analyzer": cfg.analyzer,
                 "positions": bool(cfg.store_positions),
                 "attributes": sorted(cfg.attributes or {}),
                 "pid_offsets": pid_offsets}
        with open(os.path.join(index_dir, STATS_FILE), "w") as fh:
            json.dump(stats, fh, indent=1)
        _mark_stage(index_dir, DOCMETA_DIR, fp, n_docs=int(n_docs))
    metrics["docmeta_s"] = time.time() - t1

    # ---- postings
    t2 = time.time()
    if not (resume and _stage_done(index_dir, POSTINGS_DIR, fp)):
        with open(os.path.join(index_dir, STATS_FILE)) as fh:
            st = json.load(fh)
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
            if not resume:
                shutil.rmtree(os.path.join(index_dir, POSTINGS_DIR),
                              ignore_errors=True)
            lin = _postings_lineage_merge(partial, index_dir, fp,
                                          cfg.num_buckets, S)
            metrics.update({f"postings_{k}": v for k, v in lin.items()})
            _mark_stage(index_dir, POSTINGS_DIR, fp, **lin)
        else:
            shutil.rmtree(os.path.join(index_dir, POSTINGS_DIR),
                          ignore_errors=True)
            merged = partial.groupby(["bucket", "salt"]).map_groups(
                _merge_bucket, batch_format="pandas")
            merged.write_parquet(os.path.join(index_dir, POSTINGS_DIR),
                                 partition_cols=["bucket"])
            if os.environ.get("SE_RAY_BUILD_STATS"):
                print(merged.stats())
            _mark_stage(index_dir, POSTINGS_DIR, fp)
    metrics["postings_s"] = time.time() - t2
    metrics["total_s"] = time.time() - t0
    return metrics
