"""Index reader: the engine's equivalent of the reference's ``Idx`` facade
(``/root/reference/QryEval/Idx.java``) + ``InvList`` fetch
(``InvList.java:107-145``) + ``DocLengthStore`` (``DocLengthStore.java``).

Driver-side, pyarrow-only (no Ray session required): query evaluation
reads a handful of term posting lists via bucket-pruned parquet scans.
The distributed scoring path (``query/distributed.py``) reads the same
layout from Ray tasks, one salt per task, through a per-worker
hive-partitioned dataset handle.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .build import DOCMETA_DIR, FORWARD_DIR, POSTINGS_DIR, STATS_FILE, term_bucket
from .varbyte import decode_postings


@dataclass
class Posting:
    """One (term, field) inverted list — reference ``InvList``:
    df, ctf, docid-ascending postings with positions."""
    term: str
    field: str
    df: int
    ctf: int
    docids: np.ndarray          # int64, ascending
    tfs: np.ndarray             # int32
    positions: np.ndarray | None = None   # int32, concat of per-doc lists
    # positions[i0:i1] of doc j where bounds = cumsum(tfs)

    def pos_bounds(self) -> np.ndarray:
        b = np.empty(self.tfs.size + 1, dtype=np.int64)
        b[0] = 0
        np.cumsum(self.tfs, out=b[1:])
        return b


class IndexReader:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        stats_path = os.path.join(index_dir, STATS_FILE)
        with open(stats_path) as f:
            self.stats = json.load(f)
        # build identity for worker-side caches: a rebuilt index at the
        # same path must invalidate process-global shard caches
        self.stats_token = os.path.getmtime(stats_path)
        self.num_buckets = self.stats["num_buckets"]
        self._docmeta = None
        self._doclens: dict[str, np.ndarray] = {}
        self._external_ids: np.ndarray | None = None
        self._fwd_dset = None

    def _forward_dataset(self):
        """Cached pyarrow dataset handle for the forward table — the
        file-metadata open is ~100 ms on a partitioned dir and sits on
        the per-query path (external_ids_for), so it must not repeat."""
        if self._fwd_dset is None:
            self._fwd_dset = pads.dataset(
                os.path.join(self.index_dir, FORWARD_DIR), format="parquet")
        return self._fwd_dset

    def deleted_docids(self) -> np.ndarray:
        """Sorted tombstoned docids (``merge.delete_docs`` sidecar);
        empty when none. Search paths mask these AFTER scoring —
        corpus stats stay as-built until ``compact_index`` purges
        (Lucene's deletes-until-merge contract). Cached by sidecar
        mtime so the per-search cost is one stat() call."""
        path = os.path.join(self.index_dir, "deletes.json")
        try:
            mt = os.path.getmtime(path)
        except OSError:
            return np.empty(0, np.int64)
        cached = getattr(self, "_deletes", None)
        if cached is not None and cached[0] == mt:
            return cached[1]
        with open(path) as f:
            arr = np.asarray(json.load(f).get("docids", []), np.int64)
        self._deletes = (mt, arr)
        return arr

    # ---- corpus statistics (Idx.java:62-65,123-138,150-153) ----
    @property
    def n_docs(self) -> int:
        return self.stats["n_docs"]

    def doc_count(self, field: str) -> int:
        return self.stats["fields"][field]["doc_count"]

    def sum_field_lengths(self, field: str) -> int:
        return self.stats["fields"][field]["sum_len"]

    def avg_len(self, field: str) -> float:
        dc = self.doc_count(field)
        return self.sum_field_lengths(field) / dc if dc else 0.0

    @property
    def fields(self) -> list[str]:
        return list(self.stats["fields"])

    # ---- docmeta ----
    def _load_docmeta(self):
        """docid → external_id + per-field lengths: a pruned column scan
        of the forward parquet (no separate docmeta table on disk). The
        forward table stores only ``(pid, docid_local)``; the global
        docid = ``pid_offsets[pid] + docid_local`` is derived here."""
        if self._docmeta is None:
            cols = ["pid", "docid_local", "external_id"] + [
                f"len_{f}" for f in self.fields]
            t = pq.read_table(os.path.join(self.index_dir, FORWARD_DIR),
                              columns=cols)
            docid = (self.pid_offsets[t["pid"].to_numpy()]
                     + t["docid_local"].to_numpy())
            t = t.append_column("docid", pa.array(docid, pa.int64()))
            t = t.sort_by("docid")
            self._docmeta = t
        return self._docmeta

    def doclens(self, field: str) -> np.ndarray:
        """Dense docid-indexed int32 length array (driver-mode; the
        distributed path shards this by docid range instead)."""
        arr = self._doclens.get(field)
        if arr is None:
            t = self._load_docmeta()
            arr = np.zeros(self.n_docs, dtype=np.int32)
            arr[t["docid"].to_numpy()] = t[f"len_{field}"].to_numpy()
            self._doclens[field] = arr
        return arr

    def external_ids(self) -> np.ndarray:
        if self._external_ids is None:
            t = self._load_docmeta()
            ids = np.empty(self.n_docs, dtype=object)
            ids[t["docid"].to_numpy()] = t["external_id"].to_numpy(zero_copy_only=False)
            self._external_ids = ids
        return self._external_ids

    def internal_docid(self, external_id: str) -> int:
        """Reference ``Idx.getInternalDocid`` (Idx.java:100-116): −1 when
        absent. A filtered forward scan — never materializes the dense
        id array (unless a caller already warmed it, which then answers
        ~100× faster)."""
        if self._external_ids is not None:
            hits = np.flatnonzero(self._external_ids == external_id)
            return int(hits[0]) if hits.size else -1
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local"],
            filter=pc.field("external_id") == external_id)
        if t.num_rows == 0:
            return -1
        docids = (self.pid_offsets[t["pid"].to_numpy()]
                  + t["docid_local"].to_numpy())
        return int(docids.min())

    def internal_docids_for(self, external_ids: list[str]) -> np.ndarray:
        """Batched ``internal_docid``: ONE filtered forward scan for a
        candidate set of external ids (initial-ranking readers, LeToR) —
        −1 where absent, aligned with the input order."""
        ext = list(external_ids)
        if not ext:
            return np.empty(0, np.int64)
        if self._external_ids is not None:
            # first occurrence wins (setdefault): a duplicated external
            # id must resolve to the SMALLEST docid on every path —
            # internal_docid and the scan path below both take the min
            # (ADVICE r3)
            lut: dict = {}
            for i, e in enumerate(self._external_ids):
                lut.setdefault(e, i)
            return np.asarray([lut.get(e, -1) for e in ext], dtype=np.int64)
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local", "external_id"],
            filter=pc.field("external_id").isin(ext))
        docids = (self.pid_offsets[t["pid"].to_numpy()]
                  + t["docid_local"].to_numpy())
        lut = {}
        for e, d in zip(t["external_id"].to_pylist(), docids.tolist()):
            if e not in lut or d < lut[e]:
                lut[e] = d
        return np.asarray([lut.get(e, -1) for e in ext], dtype=np.int64)

    # ---- sharded lookups (scale path: never materialize a dense
    # n_docs-sized array; shard = one pid's contiguous docid range) ----
    @property
    def pid_offsets(self) -> np.ndarray:
        """Docid-range boundaries per pid (len P+1): pid p owns docids
        [off[p], off[p+1]). Written by the build's stats pass."""
        return np.asarray(self.stats["pid_offsets"], dtype=np.int64)

    def doclen_shard(self, field: str, pid: int) -> np.ndarray:
        """Dense int32 lengths for ONE pid's docid range, index shifted by
        ``pid_offsets[pid]`` — a column-pruned, row-group-stat-pruned scan
        of the forward table (each forward block holds one pid, so
        parquet min/max stats on ``pid`` skip unrelated files/row
        groups)."""
        off = self.pid_offsets
        lo, hi = int(off[pid]), int(off[pid + 1])
        arr = np.zeros(hi - lo, dtype=np.int32)
        if hi == lo:
            return arr
        t = self._forward_dataset().to_table(
            columns=["docid_local", f"len_{field}"],
                          filter=pc.field("pid") == pid)
        arr[t["docid_local"].to_numpy()] = t[f"len_{field}"].to_numpy()
        return arr

    def _split_docids(self, docids: np.ndarray):
        """global docid → (pid, docid_local) via the pid_offsets map."""
        off = self.pid_offsets
        pids = np.searchsorted(off, docids, side="right") - 1
        return pids, docids - off[pids]

    def doclens_for(self, docids: np.ndarray,
                    fields: list[str]) -> dict[str, np.ndarray]:
        """Per-field int32 lengths aligned with ``docids`` — the
        candidate-set replacement for ``doclens(field)[docids]``: one
        pruned forward scan serves every requested field, sized by the
        query's posting union, never O(n_docs). Docids must exist (they
        come from postings). Dense arrays already warmed by a caller
        (small-corpus bench mode) answer directly."""
        docids = np.asarray(docids, dtype=np.int64)
        if all(f in self._doclens for f in fields):
            return {f: self._doclens[f][docids] for f in fields}
        if docids.size == 0:
            return {f: np.empty(0, np.int32) for f in fields}
        pids, locals_ = self._split_docids(docids)
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local"] + [f"len_{f}" for f in fields],
            filter=pc.field("pid").isin(np.unique(pids).tolist())
                   & pc.field("docid_local").isin(np.unique(locals_).tolist()))
        lut_ids = (self.pid_offsets[t["pid"].to_numpy()]
                   + t["docid_local"].to_numpy())
        order = np.argsort(lut_ids)
        pos = np.searchsorted(lut_ids[order], docids)
        return {f: t[f"len_{f}"].to_numpy()[order][pos].astype(np.int32)
                for f in fields}

    # ---- doc values (build-time attribute columns; Lucene DocValues) ----
    @property
    def attributes(self) -> list[str]:
        return list(self.stats.get("attributes", []))

    def attributes_for(self, docids: np.ndarray,
                       names: list[str]) -> dict[str, np.ndarray]:
        """Attribute values aligned with ``docids`` — candidate-set
        pruned forward scan, same shape as ``doclens_for``; the sort-by
        -field / post-filter primitive. Never O(n_docs)."""
        docids = np.asarray(docids, dtype=np.int64)
        cols = [f"attr_{n}" for n in names]
        missing = [n for n in names if n not in self.attributes]
        if missing:
            raise KeyError(f"attributes not in index: {missing} "
                           f"(have {self.attributes})")
        if docids.size == 0:
            return {n: np.empty(0, object) for n in names}
        pids, locals_ = self._split_docids(docids)
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local"] + cols,
            filter=pc.field("pid").isin(np.unique(pids).tolist())
                   & pc.field("docid_local").isin(np.unique(locals_).tolist()))
        lut_ids = (self.pid_offsets[t["pid"].to_numpy()]
                   + t["docid_local"].to_numpy())
        order = np.argsort(lut_ids)
        pos = np.searchsorted(lut_ids[order], docids)
        return {n: t[f"attr_{n}"].to_numpy(zero_copy_only=False)[order][pos]
                for n in names}

    def docids_where(self, name: str, value=None, lo=None, hi=None
                     ) -> np.ndarray:
        """Sorted global docids whose attribute equals ``value`` or
        falls in [lo, hi) — a column-pruned scan with the predicate
        pushed to parquet row-group stats. The metadata-filter source
        for ``QueryEngine.search(allowed=...)``; at cluster scale this
        set stays sharded next to the doclens, the driver only sees it
        for the final candidate intersection."""
        if name not in self.attributes:
            raise KeyError(f"attribute not in index: {name!r} "
                           f"(have {self.attributes})")
        f = pc.field(f"attr_{name}")
        if value is not None:
            flt = f == value
        else:
            flt = None
            if lo is not None:
                flt = f >= lo
            if hi is not None:
                flt = (f < hi) if flt is None else flt & (f < hi)
            if flt is None:
                raise ValueError("need value= or lo=/hi=")
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local"], filter=flt)
        ids = (self.pid_offsets[t["pid"].to_numpy()]
               + t["docid_local"].to_numpy())
        return np.sort(ids)

    def external_ids_for(self, docids: np.ndarray) -> np.ndarray:
        """External ids aligned with ``docids`` via a filtered forward
        scan — candidate sets only (top-k × queries), never the corpus.
        The (pid isin, local isin) parquet filter is a superset (cross
        product); exact match happens on the fetched rows.

        If a caller already materialized the dense id array (small
        corpus — e.g. the interactive bench warms it), answer from that
        instead of scanning: same result, ~100× faster per query."""
        docids = np.asarray(docids, dtype=np.int64)
        if self._external_ids is not None:
            return self._external_ids[docids]
        pids, locals_ = self._split_docids(docids)
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local", "external_id"],
            filter=pc.field("pid").isin(np.unique(pids).tolist())
                   & pc.field("docid_local").isin(np.unique(locals_).tolist()))
        lut_ids = (self.pid_offsets[t["pid"].to_numpy()]
                   + t["docid_local"].to_numpy())
        lut_ext = t["external_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(lut_ids)
        pos = np.searchsorted(lut_ids[order], docids)
        return lut_ext[order][pos]

    # ---- postings ----
    def postings_many(self, terms: list[str], field: str,
                      positions: bool = True) -> dict[str, Posting]:
        """Bucket-pruned fetch of several terms' posting lists at once.

        Reads only the ``bucket=<h>`` partition directories the query
        terms hash to, with a parquet filter on (term, field); merges a
        term's salted runs (disjoint docid ranges) by ``min_docid`` order
        — concatenation, no re-sort (build.py layout contract)."""
        terms = sorted(set(terms))
        if not terms:
            return {}
        if positions and not self.stats.get("positions", True):
            raise ValueError(
                "index was built with store_positions=False — positional "
                "operators (#NEAR/#WINDOW) are unavailable; rebuild with "
                "store_positions=True")
        paths = self._bucket_paths(terms)
        if not paths:
            return {}
        dset = pads.dataset(paths, format="parquet")
        cols = ["term", "field", "salt", "df", "ctf", "min_docid",
                "docid_blob", "tf_blob"] + (["pos_blob"] if positions else [])
        t = dset.to_table(
            columns=cols,
            filter=(pc.field("term").isin(terms) & (pc.field("field") == field)))
        out: dict[str, Posting] = {}
        if t.num_rows == 0:
            return out
        t = t.sort_by([("term", "ascending"), ("min_docid", "ascending")])
        tcol = t["term"].to_pylist()
        dblobs = t["docid_blob"].to_pylist()
        tblobs = t["tf_blob"].to_pylist()
        pblobs = t["pos_blob"].to_pylist() if positions else [None] * t.num_rows
        i = 0
        while i < len(tcol):
            j = i
            while j < len(tcol) and tcol[j] == tcol[i]:
                j += 1
            dparts, tparts, pparts = [], [], []
            for k in range(i, j):
                d, tf, p = decode_postings(dblobs[k], tblobs[k], pblobs[k])
                dparts.append(d); tparts.append(tf)
                if p is not None:
                    pparts.append(p)
            docids = np.concatenate(dparts)
            tfs = np.concatenate(tparts)
            pos = np.concatenate(pparts) if (positions and pparts) else None
            out[tcol[i]] = Posting(
                term=tcol[i], field=field, df=int(docids.size),
                ctf=int(tfs.sum()), docids=docids, tfs=tfs, positions=pos)
            i = j
        return out

    def postings(self, term: str, field: str, positions: bool = True) -> Posting | None:
        return self.postings_many([term], field, positions).get(term)

    def _bucket_paths(self, terms: list[str] | None = None) -> list[str]:
        """Postings files of the buckets ``terms`` hash to (every bucket
        when None), in bucket order."""
        base = os.path.join(self.index_dir, POSTINGS_DIR)
        paths: list[str] = []
        buckets = (range(self.num_buckets) if terms is None else
                   sorted({term_bucket(t, self.num_buckets) for t in terms}))
        for b in buckets:
            d = os.path.join(base, f"bucket={b}")
            if os.path.isdir(d):
                paths.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                             if f.endswith(".parquet"))
        return paths

    def _postings_paths(self) -> list[str]:
        """Every postings parquet file across all term buckets, sorted —
        the full-vocabulary scan input shared by the wildcard/fuzzy/
        regexp expansions (hash bucketing cannot prune any of them)."""
        base = os.path.join(self.index_dir, POSTINGS_DIR)
        paths: list[str] = []
        if os.path.isdir(base):
            for d in sorted(os.listdir(base)):
                full = os.path.join(base, d)
                if d.startswith("bucket=") and os.path.isdir(full):
                    paths.extend(os.path.join(full, f)
                                 for f in sorted(os.listdir(full))
                                 if f.endswith(".parquet"))
        return paths

    def terms_with_prefix(self, prefix: str, field: str,
                          max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` starting with ``prefix``,
        ascending, capped at ``max_terms`` (the wildcard-expansion
        budget — Lucene caps its PrefixQuery rewrite the same way).
        Term hash-bucketing cannot prune a prefix, so this is a
        full-vocabulary scan — but of the ``term`` column only
        (columnar prune), with the ``[prefix, prefix⁺)`` range filter
        pushed to parquet row groups."""
        if not prefix:
            return []
        paths = self._postings_paths()
        if not paths:
            return []
        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        t = pads.dataset(paths, format="parquet").to_table(
            columns=["term"],
            filter=((pc.field("field") == field)
                    & (pc.field("term") >= prefix)
                    & (pc.field("term") < hi)))
        return sorted(set(t["term"].to_pylist()))[:max_terms]

    def terms_with_substring(self, sub: str, field: str,
                             max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` CONTAINING ``sub``, ascending,
        capped at ``max_terms`` — the infix-wildcard (``*abc*``)
        expansion. Unlike a prefix there is no byte-range to push down
        (Lucene pays the same price: leading-wildcard terms enumerate
        the whole term dictionary), so this scans the pruned ``term``
        column and substring-matches vectorized in Arrow."""
        if not sub:
            return []
        paths = self._postings_paths()
        if not paths:
            return []
        t = pads.dataset(paths, format="parquet").to_table(
            columns=["term"],
            filter=((pc.field("field") == field)
                    & pc.match_substring(pc.field("term"), sub)))
        return sorted(set(t["term"].to_pylist()))[:max_terms]

    def terms_with_suffix(self, suffix: str, field: str,
                          max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` ENDING with ``suffix``,
        ascending, capped — the ``*abc`` leading-wildcard expansion.
        Same cost shape as the infix scan (no byte range to push down;
        Lucene enumerates the term dictionary likewise): pruned
        ``term`` column + vectorized Arrow ends-with."""
        if not suffix:
            return []
        paths = self._postings_paths()
        if not paths:
            return []
        t = pads.dataset(paths, format="parquet").to_table(
            columns=["term"],
            filter=((pc.field("field") == field)
                    & pc.ends_with(pc.field("term"), suffix)))
        return sorted(set(t["term"].to_pylist()))[:max_terms]

    def terms_matching_regex(self, pattern: str, field: str,
                             max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` FULLY matching ``pattern``
        (anchored, Lucene RegexpQuery semantics), ascending, capped at
        ``max_terms``. Same cost shape as the infix scan — a regex has
        no byte-range to push down, so this scans the pruned ``term``
        column and matches with Arrow's RE2 kernel (the same regex
        engine family DuckDB uses, keeping oracle semantics aligned).
        Invalid patterns raise at compile time, before any scan."""
        if not pattern:
            return []
        # validate with the SAME engine that will scan (Arrow RE2) —
        # Python re accepts constructs RE2 rejects (lookahead,
        # backreferences) and vice versa, so compiling here with re
        # would not actually guarantee the scan cannot fail mid-flight
        pc.match_substring_regex(pa.array([], type=pa.string()),
                                 pattern=f"^(?:{pattern})$")
        paths = self._postings_paths()
        if not paths:
            return []
        t = pads.dataset(paths, format="parquet").to_table(
            columns=["term"],
            filter=((pc.field("field") == field)
                    & pc.match_substring_regex(
                        pc.field("term"), f"^(?:{pattern})$")))
        return sorted(set(t["term"].to_pylist()))[:max_terms]

    def terms_within_distance(self, term: str, field: str,
                              max_distance: int = 2,
                              max_terms: int = 64) -> list[str]:
        """Indexed terms of ``field`` within ``max_distance`` unit-cost
        edits of ``term``, ordered (distance asc, term asc), capped at
        ``max_terms`` (Lucene FuzzyQuery caps its rewrite at
        maxExpansions=50 the same way). Bucket hashing cannot prune an
        edit ball, and unlike a prefix there is no byte-range filter
        either (an edit at position 0 changes the first byte), so this
        is a full scan of the ``term`` column only (columnar prune +
        dictionary pages make it metadata-sized); the DP kernel runs
        only on terms surviving the |len| band."""
        if not term or max_distance < 0:
            return []
        from ..functions.text import _levenshtein
        paths = self._postings_paths()
        if not paths:
            return []
        t = pads.dataset(paths, format="parquet").to_table(
            columns=["term"], filter=pc.field("field") == field)
        vocab = pc.unique(t["term"]).to_pylist()
        hits = []
        for v in vocab:
            if abs(len(v) - len(term)) > max_distance:
                continue
            d = _levenshtein(term, v)
            if d <= max_distance:
                hits.append((d, v))
        hits.sort()
        return [v for _, v in hits[:max_terms]]

    def postings_meta(self, terms: list[str], field: str):
        """Run-level metadata WITHOUT decoding (or even reading) posting
        blobs: per (term, salt-run) df, ctf, min_docid, max_tf. This is
        the block-max side of the index layout (build.py step 5): a run
        is a docid-range block whose BM25 contribution is bounded by
        ``idf · tfw(max_tf)`` — the MaxScore/WAND pruning input."""
        terms = sorted(set(terms))
        paths = self._bucket_paths(terms)
        if not paths:
            return None
        dset = pads.dataset(paths, format="parquet")
        t = dset.to_table(
            columns=["term", "salt", "df", "ctf", "min_docid", "max_tf"],
            filter=(pc.field("term").isin(terms) & (pc.field("field") == field)))
        return t.sort_by([("term", "ascending"), ("min_docid", "ascending")])

    def postings_runs(self, term: str, field: str, salts: list[int],
                      positions: bool = False) -> Posting | None:
        """Decode only the SELECTED salt runs of one term — the pruned
        fetch used by the MaxScore scorer once whole docid-range runs are
        provably unable to affect the top-k."""
        if not salts:
            return None
        if positions and not self.stats.get("positions", True):
            raise ValueError(
                "index was built with store_positions=False — positional "
                "operators (#NEAR/#WINDOW) are unavailable; rebuild with "
                "store_positions=True")
        paths = self._bucket_paths([term])
        if not paths:
            return None
        dset = pads.dataset(paths, format="parquet")
        cols = ["term", "salt", "min_docid", "docid_blob", "tf_blob"] + (
            ["pos_blob"] if positions else [])
        t = dset.to_table(
            columns=cols,
            filter=(pc.field("term") == term) & (pc.field("field") == field)
                   & pc.field("salt").isin([int(s) for s in salts]))
        if t.num_rows == 0:
            return None
        t = t.sort_by([("min_docid", "ascending")])
        dparts, tparts, pparts = [], [], []
        pblobs = t["pos_blob"].to_pylist() if positions else [None] * t.num_rows
        for db, tb, pb in zip(t["docid_blob"].to_pylist(),
                              t["tf_blob"].to_pylist(), pblobs):
            d, tf, p = decode_postings(db, tb, pb)
            dparts.append(d); tparts.append(tf)
            if p is not None:
                pparts.append(p)
        docids = np.concatenate(dparts)
        tfs = np.concatenate(tparts)
        pos = np.concatenate(pparts) if (positions and pparts) else None
        return Posting(term=term, field=field, df=int(docids.size),
                       ctf=int(tfs.sum()), docids=docids, tfs=tfs,
                       positions=pos)

    # ---- forward index (TermVector.java equivalent) ----
    def term_vectors(self, docids: list[int], field: str):
        """Per-doc (terms, positions, len) for the given docids — used by
        PRF (QryEval.java:98-119). Scans the forward table with a docid
        filter; fbDocs×queries docs only, never the whole corpus."""
        want = np.asarray([int(d) for d in docids], dtype=np.int64)
        pids, locals_ = self._split_docids(want)
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local", f"terms_{field}", f"pos_{field}",
                     f"len_{field}"],
            filter=pc.field("pid").isin(np.unique(pids).tolist())
                   & pc.field("docid_local").isin(np.unique(locals_).tolist()))
        gids = (self.pid_offsets[t["pid"].to_numpy()]
                + t["docid_local"].to_numpy())
        wanted = set(want.tolist())
        res = {}
        for gid, row in zip(gids.tolist(), t.to_pylist()):
            if gid in wanted:
                res[gid] = (row[f"terms_{field}"], row[f"pos_{field}"],
                            row[f"len_{field}"])
        return res
