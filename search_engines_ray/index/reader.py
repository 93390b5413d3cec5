"""Index reader: the engine's equivalent of the reference's ``Idx`` facade
(``/root/reference/QryEval/Idx.java``) + ``InvList`` fetch
(``InvList.java:107-145``) + ``DocLengthStore`` (``DocLengthStore.java``).

Driver-side, pyarrow-only (no Ray session required). The distributed
scoring path (``query/distributed.py``) uses the same reader from Ray
tasks, each over a range of salts, through the worker's process-cached
reader.

Term-level facts come from a **lexicon per build** — the reference's
Lucene term dictionary. It is derived lazily, one term bucket at a time,
from the postings files' non-blob columns (term, field, salt, df, ctf,
min_docid, max_tf) plus each row's file, row group and row; no build
step writes it. ``runs`` is the one primitive every postings path goes
through: it selects the (term, field[, salt]) runs from the lexicon in
index order (bucket, then file, then row), and ``read_runs`` decodes
their blobs in one pass, read as exact row groups (column-pruned) on a
miss.

Doc lengths, external ids, attributes and posting-run blobs share ONE
byte-budgeted LRU per process (``CACHE_BYTES``), keyed by (index dir,
build token), so a process that opens several indexes or builds still
holds at most the budget. A forward shard is one column of one fixed
block of ``FORWARD_BLOCK`` docids inside a pid's range, so its size does
not grow with the corpus. A lookup splits its docids into blocks, loads
the missing blocks in one forward scan that keeps only their rows, and
gathers from memory: a warm reader answers a query without touching
parquet.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..util import ByteLRU
from .build import DOCMETA_DIR, FORWARD_DIR, POSTINGS_DIR, STATS_FILE, term_bucket
from .varbyte import decode_postings

# resident bytes of the process's one cache (forward shards + posting runs)
CACHE_BYTES = 64 << 20
# docids per forward shard (one block of a pid's docid_local range)
FORWARD_BLOCK = 1024
_STR_HEADER = sys.getsizeof("")
# lexicon columns: every postings column but the blobs
_LEXICON_COLS = ["term", "field", "salt", "df", "ctf", "min_docid", "max_tf"]


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


class Runs:
    """Lexicon rows, one per (term, field, salt) posting run, in index
    order (bucket, then file, then row); ``bucket``, ``file``, ``rg`` and
    ``row`` locate each run's blobs. The integer columns share one
    (n, 9) int64 block, so a selection is three gathers."""
    INT_COLS = ("salt", "df", "ctf", "min_docid", "max_tf",
                "bucket", "file", "rg", "row")

    def __init__(self, term: np.ndarray, field: np.ndarray,
                 ints: np.ndarray):
        self.term, self.field, self.ints = term, field, ints

    def __len__(self) -> int:
        return self.term.size

    def take(self, idx) -> "Runs":
        return Runs(self.term[idx], self.field[idx], self.ints[idx])

    @staticmethod
    def concat(parts: list["Runs"]) -> "Runs":
        return Runs(*(np.concatenate([getattr(p, a) for p in parts])
                      for a in ("term", "field", "ints")))


for _j, _c in enumerate(Runs.INT_COLS):
    setattr(Runs, _c, property(lambda self, j=_j: self.ints[:, j]))

_NO_RUNS = Runs(np.empty(0, object), np.empty(0, object),
                np.empty((0, len(Runs.INT_COLS)), np.int64))


@dataclass
class _Bucket:
    """One term bucket's lexicon: its runs in file/row order, the term
    column sorted (stable, so each term's runs keep index order) for
    binary search, and each file's path and footer."""
    runs: Runs
    keys: np.ndarray            # runs.term[order]
    order: np.ndarray
    paths: list[str]
    metas: list


def _joined(blobs: list[bytes]) -> tuple[bytes, np.ndarray]:
    """The varbyte ``blobs`` back to back, and the running count of the
    values they hold at each blob's end (a value ends at each byte
    without the continuation bit)."""
    joined = b"".join(blobs)
    sizes = np.fromiter(map(len, blobs), np.int64, len(blobs))
    ends = np.zeros(len(blobs) + 1, np.int64)
    np.cumsum(sizes, out=ends[1:])
    last = (np.frombuffer(joined, np.uint8) < 0x80).view(np.uint8)
    counts = np.zeros(len(blobs), np.int64)
    full = sizes > 0                 # reduceat needs non-empty segments
    if full.any():
        counts[full] = np.add.reduceat(last, ends[:-1][full], dtype=np.int64)
    ends[1:] = np.cumsum(counts)
    return joined, ends


def decode_runs(docid_blobs: list[bytes], tf_blobs: list[bytes],
                pos_blobs: list[bytes] | None = None) -> list[tuple]:
    """Decoded ``(docids, tfs, positions)`` of each run (positions None
    without ``pos_blobs``) from ONE ``decode_postings`` call over the
    joined blobs. A run's first docid gap is its absolute first docid,
    so the joined cumsum carries the previous runs' sum into it; taking
    that sum off restarts each run (exact in wrapping 64-bit
    arithmetic). Each blob's own value count splits docids and tfs, and
    each run's tf sum splits positions: run boundaries are doc
    boundaries, so the per-doc position cumsum runs across them."""
    if not docid_blobs:
        return []
    db, dc = _joined(docid_blobs)
    tb, tc = _joined(tf_blobs)
    d, tf, p = decode_postings(
        db, tb, None if pos_blobs is None else b"".join(pos_blobs))
    if d.size:
        carried = d[np.maximum(dc[:-1], 1) - 1]
        carried[dc[:-1] == 0] = 0
        d -= np.repeat(carried, np.diff(dc))
    out = zip(np.split(d, dc[1:-1]), np.split(tf, tc[1:-1]))
    if p is None:
        return [(a, b, None) for a, b in out]
    tsum = np.zeros(tf.size + 1, np.int64)
    np.cumsum(tf, out=tsum[1:])
    return [(a, b, c) for (a, b), c in zip(out, np.split(p, tsum[tc[1:-1]]))]


def _bucket_files(base: str, b: int) -> list[str]:
    """Postings files of bucket ``b``, in name order."""
    d = os.path.join(base, f"bucket={b}")
    return ([os.path.join(d, f) for f in sorted(os.listdir(d))
             if f.endswith(".parquet")] if os.path.isdir(d) else [])


def _load_bucket(base: str, b: int) -> _Bucket:
    """Lexicon of bucket ``b``: the non-blob columns of its postings
    files (in name order, the order every scan used), plus each row's
    file, row group and row."""
    paths = _bucket_files(base, b)
    metas, parts = [], []
    for i, path in enumerate(paths):
        pf = pq.ParquetFile(path)
        t = pf.read(columns=_LEXICON_COLS)
        sizes = [pf.metadata.row_group(g).num_rows
                 for g in range(pf.metadata.num_row_groups)]
        n = t.num_rows
        ints = [t[c].to_numpy() for c in _LEXICON_COLS[2:]] + [
            np.full(n, b), np.full(n, i),
            np.repeat(np.arange(len(sizes)), sizes),
            np.arange(n) - np.repeat(np.cumsum([0] + sizes)[:-1], sizes)]
        parts.append(Runs(t["term"].to_numpy(zero_copy_only=False),
                          t["field"].to_numpy(zero_copy_only=False),
                          np.stack(ints, axis=1).astype(np.int64)))
        metas.append(pf.metadata)
    runs = Runs.concat(parts) if parts else _NO_RUNS
    order = np.argsort(runs.term, kind="stable")
    return _Bucket(runs, runs.term[order], order, paths, metas)


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
        self._pid_offsets = None
        self._lexicon: dict[int, _Bucket] = {}
        self._vocabs: dict[str, pa.Array] = {}
        # the process's one byte budget: keys start with this build's
        # (index dir, token); (key, block key, forward column) → dense
        # forward shard (see _shards), (key, bucket, file, row group,
        # row) → a run's blobs (see read_runs)
        from ..util import proc_cached
        self.cache = proc_cached(("byte_lru", CACHE_BYTES),
                                 lambda: ByteLRU(CACHE_BYTES), cap=1)
        self._ck = (index_dir, self.stats_token)
        self._block = FORWARD_BLOCK
        self._stride = None

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
        absent."""
        return int(self.internal_docids_for([external_id])[0])

    def internal_docids_for(self, external_ids: list[str]) -> np.ndarray:
        """Batched ``internal_docid``: ONE filtered forward scan for a
        candidate set of external ids (initial-ranking readers, LeToR) —
        −1 where absent, aligned with the input order. A duplicated
        external id resolves to its SMALLEST docid (ADVICE r3)."""
        ext = list(external_ids)
        if not ext:
            return np.empty(0, np.int64)
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
    # n_docs-sized array; shard = one FORWARD_BLOCK of a pid's range) ----
    @property
    def pid_offsets(self) -> np.ndarray:
        """Docid-range boundaries per pid (len P+1): pid p owns docids
        [off[p], off[p+1]). Written by the build's stats pass."""
        if self._pid_offsets is None:
            self._pid_offsets = np.asarray(self.stats["pid_offsets"],
                                           dtype=np.int64)
        return self._pid_offsets

    def _split_docids(self, docids: np.ndarray):
        """global docid → (pid, docid_local) via the pid_offsets map."""
        off = self.pid_offsets
        pids = np.searchsorted(off, docids, side="right") - 1
        return pids, docids - off[pids]

    def _block_keys(self, docids: np.ndarray):
        """global docid → (block key, offset inside the block). Block key
        = pid · ``_stride`` + docid_local // block, ascending with the
        docid."""
        pids, locals_ = self._split_docids(docids)
        if self._stride is None:
            widest = int(np.diff(self.pid_offsets).max(initial=0))
            self._stride = widest // self._block + 1
        blk, rel = np.divmod(locals_, self._block)
        return pids * self._stride + blk, rel

    def _shards(self, keys: list[int], cols: list[str]) -> dict:
        """``{(key, col): dense shard}`` for every block key and column,
        from the cache; the missing blocks load in ONE forward scan whose
        filter keeps only their rows (the ``pid`` conjunct lets parquet
        stats skip unrelated files and row groups)."""
        got, miss = {}, set()
        for k in keys:
            for c in cols:
                v = self.cache.get((self._ck, k, c))
                if v is None:
                    miss.add(k)
                else:
                    got[k, c] = v
        if not miss:
            return got
        want = sorted(miss)
        B, S = self._block, self._stride       # set by _block_keys
        key = pc.field("pid").cast(pa.int64()) * S + pc.field("docid_local") / B
        t = self._forward_dataset().to_table(
            columns=["pid", "docid_local"] + cols,
            filter=(pc.field("pid").isin(sorted({k // S for k in want}))
                    & key.isin(want)))
        off = self.pid_offsets
        pid, local = t["pid"].to_numpy(), t["docid_local"].to_numpy()
        # stable sort by global docid: linear when the scan is in order
        order = np.argsort(off[pid] + local, kind="stable")
        tk = (pid.astype(np.int64) * S + local // B)[order]
        lo = np.searchsorted(tk, want, side="left")
        hi = np.searchsorted(tk, want, side="right")
        for k, a, b in zip(want, lo, hi):
            p, blk = divmod(k, S)
            n = min(B, int(off[p + 1] - off[p]) - blk * B)
            if b - a != n:
                raise ValueError(f"forward table holds {b - a} rows of pid {p} "
                                 f"block {blk}, pid_offsets say {n}")
        for c in cols:
            vals = t[c].to_numpy(zero_copy_only=False)
            # bytes per row: the slot, plus the Python object it points
            # to (a str is header + UTF-8 bytes, exact for ASCII)
            row = np.full(t.num_rows, vals.itemsize, np.int64)
            if pa.types.is_string(t[c].type):
                row += _STR_HEADER + pc.binary_length(t[c]).fill_null(
                    0).to_numpy()
            elif vals.dtype == object:
                row += np.fromiter(map(sys.getsizeof, vals), np.int64,
                                   vals.size)
            for k, a, b in zip(want, lo, hi):
                if (k, c) not in got:
                    got[k, c] = vals[order[a:b]]
                    self.cache.put((self._ck, k, c), got[k, c],
                                   int(row[order[a:b]].sum()))
        return got

    def _gather(self, docids: np.ndarray, cols: list[str]) -> dict:
        """Forward columns aligned with ``docids``: split into blocks,
        gather from each block's dense shard. Loads only the blocks the
        docids fall in."""
        docids = np.asarray(docids, dtype=np.int64)
        if docids.size == 0:
            return {c: np.empty(0, object) for c in cols}
        keys, rel = self._block_keys(docids)
        # sorted docids (posting unions, top-k tie groups) need no sort
        order = (None if (keys[1:] >= keys[:-1]).all()
                 else np.argsort(keys, kind="stable"))
        sk = keys if order is None else keys[order]
        bounds = np.flatnonzero(sk[1:] != sk[:-1]) + 1
        segs = list(zip(sk[np.concatenate(([0], bounds))].tolist(),
                        [0] + bounds.tolist(), bounds.tolist() + [sk.size]))
        shards = self._shards([k for k, _, _ in segs], cols)
        out = {}
        for c in cols:
            res = np.empty(docids.size, np.result_type(
                *[shards[k, c] for k, _, _ in segs]))
            for k, a, b in segs:
                idx = slice(a, b) if order is None else order[a:b]
                res[idx] = shards[k, c][rel[idx]]
            out[c] = res
        return out

    def doclens_for(self, docids: np.ndarray,
                    fields: list[str]) -> dict[str, np.ndarray]:
        """Per-field int32 lengths aligned with ``docids`` — the
        candidate-set replacement for ``doclens(field)[docids]``, served
        from the forward-shard cache (the cold blocks of a lookup load
        in one scan for every requested field). Docids must exist (they
        come from postings)."""
        got = self._gather(docids, [f"len_{f}" for f in fields])
        return {f: got[f"len_{f}"].astype(np.int32, copy=False)
                for f in fields}

    # ---- doc values (build-time attribute columns; Lucene DocValues) ----
    @property
    def attributes(self) -> list[str]:
        return list(self.stats.get("attributes", []))

    def attributes_for(self, docids: np.ndarray,
                       names: list[str]) -> dict[str, np.ndarray]:
        """Attribute values aligned with ``docids`` from the forward-shard
        cache, same shape as ``doclens_for``; the sort-by-field /
        post-filter primitive."""
        missing = [n for n in names if n not in self.attributes]
        if missing:
            raise KeyError(f"attributes not in index: {missing} "
                           f"(have {self.attributes})")
        got = self._gather(docids, [f"attr_{n}" for n in names])
        return {n: got[f"attr_{n}"] for n in names}

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
        """External ids aligned with ``docids`` from the forward-shard
        cache — candidate sets only (top-k × queries), never the
        corpus."""
        return self._gather(docids, ["external_id"])["external_id"]

    # ---- postings: the per-build lexicon and its one run primitive ----
    def _bucket(self, b: int) -> _Bucket:
        lex = self._lexicon.get(b)
        if lex is None:
            lex = self._lexicon[b] = _load_bucket(
                os.path.join(self.index_dir, POSTINGS_DIR), b)
        return lex

    def runs(self, terms, fields: list[str], salt: int | None = None) -> Runs:
        """Lexicon rows of ``terms`` × ``fields``, optionally of one
        salt, in index order: bucket, then file, then row — the row order
        of a scan over the bucket files, which downstream float sums
        depend on. Reads no blob; only the buckets the terms hash to
        load."""
        by_bucket: dict[int, list[str]] = {}
        for t in set(terms):
            by_bucket.setdefault(term_bucket(t, self.num_buckets),
                                 []).append(t)
        parts = []
        for b in sorted(by_bucket):
            lex = self._bucket(b)
            probe = np.asarray(by_bucket[b], dtype=object)
            lo = np.searchsorted(lex.keys, probe, side="left")
            hi = np.searchsorted(lex.keys, probe, side="right")
            spans = [lex.order[x:y] for x, y in zip(lo, hi) if y > x]
            if not spans:
                continue
            idx = np.concatenate(spans)
            fld = lex.runs.field[idx]
            idx = idx[fld == fields[0] if len(fields) == 1
                      else np.isin(fld, fields)]
            if salt is not None:
                idx = idx[lex.runs.salt[idx] == salt]
            if idx.size:
                parts.append(lex.runs.take(np.sort(idx)))
        return Runs.concat(parts) if parts else _NO_RUNS

    def read_runs(self, runs: Runs, positions: bool = False) -> list[tuple]:
        """Decoded ``(docids, tfs, positions)`` per run of ``runs``
        (positions None unless asked for), all from one vectorized
        decode of the runs' joined blobs (``decode_runs``). Blobs come
        from the process cache; the missing runs of a row group load in
        one column-pruned read of exactly that row group, and only those
        runs are kept."""
        if positions and not self.stats.get("positions", True):
            raise ValueError(
                "index was built with store_positions=False — positional "
                "operators (#NEAR/#WINDOW) are unavailable; rebuild with "
                "store_positions=True")
        cols = ["docid_blob", "tf_blob"] + (["pos_blob"] if positions else [])
        blobs: list = [None] * len(runs)
        miss: dict[tuple, list] = {}
        for i, loc in enumerate(zip(runs.bucket.tolist(), runs.file.tolist(),
                                    runs.rg.tolist(), runs.row.tolist())):
            v = self.cache.get((self._ck,) + loc)
            if v is None or len(v) < len(cols):
                miss.setdefault(loc[:3], []).append((i, loc[3]))
            else:
                blobs[i] = v
        for (b, f, g), want in miss.items():
            lex = self._lexicon[b]
            t = pq.ParquetFile(lex.paths[f], metadata=lex.metas[f]
                               ).read_row_group(g, columns=cols)
            for i, r in want:
                v = tuple(t[c][r].as_py() for c in cols)
                self.cache.put((self._ck, b, f, g, r), v,
                               sum(map(sys.getsizeof, v)))
                blobs[i] = v
        return decode_runs([v[0] for v in blobs], [v[1] for v in blobs],
                           [v[2] for v in blobs] if positions else None)

    def term_stats(self, terms, field: str) -> dict[str, tuple[int, int]]:
        """Global ``(df, ctf)`` per term = sums over its runs, from the
        lexicon alone (no blob read); terms without runs are absent."""
        r = self.runs(terms, [field])
        out: dict[str, tuple[int, int]] = {}
        for t, d, c in zip(r.term.tolist(), r.df.tolist(), r.ctf.tolist()):
            d0, c0 = out.get(t, (0, 0))
            out[t] = (d0 + d, c0 + c)
        return out

    def postings_many(self, terms: list[str], field: str,
                      positions: bool = True) -> dict[str, Posting]:
        """Several terms' posting lists at once: a term's salted runs
        (disjoint docid ranges) merge in ``min_docid`` order —
        concatenation, no re-sort (build.py layout contract)."""
        r = self.runs(terms, [field])
        r = r.take(np.lexsort((r.min_docid, r.term)))
        got = self.read_runs(r, positions)
        tl = r.term.tolist()
        starts = [i for i in range(len(tl)) if i == 0 or tl[i] != tl[i - 1]]
        out: dict[str, Posting] = {}
        for a, z in zip(starts, starts[1:] + [len(tl)]):
            docids = np.concatenate([d for d, _, _ in got[a:z]])
            tfs = np.concatenate([tf for _, tf, _ in got[a:z]])
            pos = [p for _, _, p in got[a:z] if p is not None]
            out[tl[a]] = Posting(
                term=tl[a], field=field, df=int(docids.size),
                ctf=int(tfs.sum()), docids=docids, tfs=tfs,
                positions=np.concatenate(pos) if positions and pos else None)
        return out

    def postings(self, term: str, field: str, positions: bool = True) -> Posting | None:
        return self.postings_many([term], field, positions).get(term)

    def _postings_paths(self) -> list[str]:
        """Every postings parquet file, in bucket order — the input of
        whole-index passes over the blobs."""
        base = os.path.join(self.index_dir, POSTINGS_DIR)
        return [p for b in range(self.num_buckets)
                for p in _bucket_files(base, b)]

    def _vocab(self, field: str) -> pa.Array:
        """Sorted distinct terms of ``field`` over every bucket's lexicon
        — the input of the full-vocabulary expansions (wildcard, fuzzy,
        regexp), which term hash-bucketing cannot prune. Built once per
        reader and field; later expansions touch no parquet."""
        v = self._vocabs.get(field)
        if v is None:
            lexs = [self._bucket(b) for b in range(self.num_buckets)]
            u = pc.unique(pa.array(np.concatenate(
                [x.runs.term[x.runs.field == field] for x in lexs]),
                pa.string()))
            v = self._vocabs[field] = u.take(pc.sort_indices(u))
        return v

    def terms_with_prefix(self, prefix: str, field: str,
                          max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` starting with ``prefix``,
        ascending, capped at ``max_terms`` (the wildcard-expansion
        budget — Lucene caps its PrefixQuery rewrite the same way):
        the ``[prefix, prefix⁺)`` range of the sorted vocabulary."""
        if not prefix:
            return []
        v = self._vocab(field)
        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        return v.filter(pc.and_(pc.greater_equal(v, prefix),
                                pc.less(v, hi)))[:max_terms].to_pylist()

    def terms_with_substring(self, sub: str, field: str,
                             max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` CONTAINING ``sub``, ascending,
        capped at ``max_terms`` — the infix-wildcard (``*abc*``)
        expansion. Unlike a prefix there is no range to cut (Lucene pays
        the same price: leading-wildcard terms enumerate the whole term
        dictionary), so this substring-matches the vocabulary
        vectorized in Arrow."""
        if not sub:
            return []
        v = self._vocab(field)
        return v.filter(pc.match_substring(v, sub))[:max_terms].to_pylist()

    def terms_with_suffix(self, suffix: str, field: str,
                          max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` ENDING with ``suffix``,
        ascending, capped — the ``*abc`` leading-wildcard expansion.
        Same cost shape as the infix match (no range to cut; Lucene
        enumerates the term dictionary likewise): vectorized Arrow
        ends-with over the vocabulary."""
        if not suffix:
            return []
        v = self._vocab(field)
        return v.filter(pc.ends_with(v, suffix))[:max_terms].to_pylist()

    def terms_matching_regex(self, pattern: str, field: str,
                             max_terms: int = 64) -> list[str]:
        """All indexed terms of ``field`` FULLY matching ``pattern``
        (anchored, Lucene RegexpQuery semantics), ascending, capped at
        ``max_terms``. Same cost shape as the infix match — a regex has
        no range to cut, so this matches the vocabulary with Arrow's RE2
        kernel (the same regex engine family DuckDB uses, keeping oracle
        semantics aligned). Invalid patterns raise before any read."""
        if not pattern:
            return []
        # validate with the SAME engine that will match (Arrow RE2) —
        # Python re accepts constructs RE2 rejects (lookahead,
        # backreferences) and vice versa, so compiling here with re
        # would not actually guarantee the match cannot fail mid-flight
        pc.match_substring_regex(pa.array([], type=pa.string()),
                                 pattern=f"^(?:{pattern})$")
        v = self._vocab(field)
        return v.filter(pc.match_substring_regex(
            v, f"^(?:{pattern})$"))[:max_terms].to_pylist()

    def terms_within_distance(self, term: str, field: str,
                              max_distance: int = 2,
                              max_terms: int = 64) -> list[str]:
        """Indexed terms of ``field`` within ``max_distance`` unit-cost
        edits of ``term``, ordered (distance asc, term asc), capped at
        ``max_terms`` (Lucene FuzzyQuery caps its rewrite at
        maxExpansions=50 the same way). Bucket hashing cannot prune an
        edit ball, and unlike a prefix there is no range to cut either
        (an edit at position 0 changes the first byte), so this walks
        the vocabulary; the DP kernel runs only on terms surviving the
        |len| band."""
        if not term or max_distance < 0:
            return []
        from ..functions.text import _levenshtein
        hits = []
        for v in self._vocab(field).to_pylist():
            if abs(len(v) - len(term)) > max_distance:
                continue
            d = _levenshtein(term, v)
            if d <= max_distance:
                hits.append((d, v))
        hits.sort()
        return [v for _, v in hits[:max_terms]]

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
