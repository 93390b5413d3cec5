"""Deduplication operators for web-scale training-data pipelines.

Not present in the reference (its docids are unique by construction —
SURVEY.md §2.5 "dedup"), but required of the engine at Common-Crawl
scale. All are Ray-Data-first:

- **exact**: content-hash in a vectorized ``map_batches``, then a
  hash-keyed shuffle keeping the smallest doc id per group. The hash,
  not the text, is the shuffle key, so payload bytes cross the exchange
  once at most.
- **MinHash + LSH**: per-batch signatures (numpy universal hashing over
  token/shingle hashes), a GLOBAL identical-signature collapse (exact
  copies — the webtext norm — become member→rep edges and never reach
  the banding), banding over the distinct signatures with the full
  signature riding each band row, vectorized pairwise full-signature
  Jaccard *estimate* + union-find within each bucket; cross-bucket
  components resolved by driver-side union-find while the edge set is
  small, by ``graph.connected_components`` (distributed star rounds)
  when it is corpus-sized. True n-gram verification is available via
  ``ngram_jaccard`` for callers holding the text.
- **SimHash**: 64-bit weighted fingerprints; near-dup = Hamming ≤ k via
  4-band exact-match blocking (pigeonhole: ≤3 differing bits leave one
  16-bit band intact).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .partitioning import (
    ROWS_PER_PART, estimate_rows, exchange, part_of, plan,
)

_MERSENNE = (1 << 61) - 1
_P61 = np.uint64(_MERSENNE)


_M32 = np.uint64(0xFFFFFFFF)
_M29 = np.uint64((1 << 29) - 1)
_U29, _U32, _U61 = np.uint64(29), np.uint64(32), np.uint64(61)


def _affine_p61(a: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(a·h + b) mod (2^61−1), elementwise with broadcasting, for
    a, b < p and full-range uint64 h, in pure uint64 via 32-bit limbs.
    h is reduced first (2^61 ≡ 1), so a, h < 2^61 and both high limbs
    are below 2^29; with 2^64 ≡ 8 and m·2^32 ≡ (m >> 29) + (m & M29)·2^32

        a·h + b ≡ (lo >> 61) + (lo & p) + (mid >> 29) + (mid & M29)·2^32
                  + 8·a1h1 + b

    for lo = a0h0 and mid = a1h0 + a0h1 < 2^62. The five terms after
    lo's are each below 2^61, so the sum fits uint64; one fold leaves
    at most p + 4, and one conditional subtract the canonical residue
    (``min(s, s − p)``: when s < p the subtraction wraps above s)."""
    h = (h >> _U61) + (h & _P61)
    h = np.minimum(h, h - _P61)
    a0, a1 = a & _M32, a >> _U32
    h0, h1 = h & _M32, h >> _U32
    s = a0 * h0
    t = s >> _U61
    s &= _P61
    s += t
    mid = a1 * h0
    mid += a0 * h1
    s += mid >> _U29
    mid &= _M29
    mid <<= _U32
    s += mid
    s += (a1 << np.uint64(3)) * h1
    s += b
    t = s >> _U61
    s &= _P61
    s += t
    return np.minimum(s, s - _P61, out=s)


def _stable_u64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _token_hashes(tokens: list[str]) -> np.ndarray:
    return np.fromiter((_stable_u64(t) for t in tokens), dtype=np.uint64,
                       count=len(tokens))


def _shingle_hashes(tokens: list[str], n: int) -> np.ndarray:
    if len(tokens) < n:
        return _token_hashes([" ".join(tokens)]) if tokens else \
            np.empty(0, dtype=np.uint64)
    return np.fromiter(
        (_stable_u64(" ".join(tokens[i:i + n])) for i in range(len(tokens) - n + 1)),
        dtype=np.uint64, count=len(tokens) - n + 1)


# ---------------------------------------------------------------- exact

# Rows each exchange moves per input doc, measured on sf0.1 ``documents``
# (5,000 rows, 54.1 words per doc, no newlines; perfbench/gen.py models
# the same table). The plan gives one part per 2^18 exchanged rows.
#   digests  1 per doc (exact_dedup);
#   lines    7.2 per doc in q_line_dedup's 8-token line view, the only
#            dedup_lines input the repo builds (the raw text is 1 line);
#   shingles 47.1 distinct 8-token shingles per doc (dup_span_stats,
#            remove_dup_spans at q_dup_span_stats' w=8);
#   bands    16 band rows per distinct signature, by construction at
#            the default bands=16 (minhash_lsh_dedup,
#            minhash_candidate_pairs).
_DIGEST_DOCS_PER_PART = ROWS_PER_PART             # 1 digest per doc
_LINE_DOCS_PER_PART = ROWS_PER_PART // 8          # 7.2 lines per doc
_SHINGLE_DOCS_PER_PART = ROWS_PER_PART // 48      # 47.1 shingles per doc
_BAND_DOCS_PER_PART = ROWS_PER_PART // 16         # 16 bands per doc


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_parts: int | None = None):
    """→ Dataset (content_hash, canonical_id, n_dups): one row per
    distinct content; canonical = min id. The duplicate *groups* — to
    drop dups instead, semi-join ids against canonical_id.

    Shape: the 16-byte digest (not the text) is all that crosses the
    exchange, keyed by an int32 partition of its top-64 bits — a sorted
    shuffle on a tiny int key + one vectorized groupby per partition,
    instead of a whole-dataset sort aggregate on 32-char hex strings.
    The exchange follows ``partitioning.plan``: one part per ~2^18 docs
    by default, and the digest table (~70 B/row vs the KB-scale payloads)
    is coalesced to at most that many blocks, whatever block count the
    payload read had — a 1,000-doc input is one part and one block, so
    the sort runs one map and one reduce task. Pass ``num_parts`` only
    to widen the exchange past the default. Hex materializes once per
    distinct group at emit time."""
    parts, blocks = plan(estimate_rows(ds), _DIGEST_DOCS_PER_PART,
                         num_parts)

    def add_hash(b: pa.Table) -> pa.Table:
        # digest straight off the Arrow UTF-8 data buffer via the
        # offsets array — no per-row Python str materialization or
        # re-encode copy; this stage touches every payload byte at
        # 100 TB (VERDICT r3 item 6). Nulls hash as b"" (old behavior).
        col = b[text_col].combine_chunks().cast(pa.large_binary())
        off = np.frombuffer(col.buffers()[1], dtype=np.int64,
                            count=len(col) + 1, offset=col.offset * 8)
        data = memoryview(col.buffers()[2])
        dg = [hashlib.md5(data[off[i]:off[i + 1]]).digest()
              for i in range(len(col))]
        if col.null_count:
            empty = hashlib.md5(b"").digest()
            for i in np.flatnonzero(~np.asarray(col.is_valid())):
                dg[i] = empty
        h64 = (np.frombuffer(b"".join(dg), dtype=">u8")[::2].astype(np.uint64)
               if dg else np.empty(0, np.uint64))
        return pa.table({
            "part": pa.array(part_of(h64, parts)),
            "digest": pa.array(dg, pa.binary()),
            id_col: b[id_col],
        })

    def dedup_part(g: pa.Table) -> pd.DataFrame:
        # no pandas groupby (its object-dtype min falls back to a
        # per-group Python apply — ~26 ms per 800-row call): stable-sort
        # rows by id then by digest, so each digest segment's FIRST row
        # carries the min id; counts are segment lengths.
        dg = g["digest"].to_pylist()
        if not dg:
            return pd.DataFrame({"content_hash": pd.Series([], dtype=object),
                                 "canonical_id": pd.Series([], dtype=object),
                                 "n_dups": pd.Series([], dtype=np.int64)})
        arr = np.frombuffer(b"".join(dg), dtype=">u8").reshape(-1, 2)
        ids = g[id_col].to_pandas().to_numpy()
        ord_id = np.argsort(ids, kind="stable")
        order = ord_id[np.lexsort((arr[ord_id, 1], arr[ord_id, 0]))]
        a = arr[order]
        bound = np.concatenate(([True], (a[1:] != a[:-1]).any(axis=1)))
        first = order[np.flatnonzero(bound)]
        counts = np.diff(np.concatenate((np.flatnonzero(bound),
                                         [len(order)])))
        return pd.DataFrame({
            "content_hash": [dg[i].hex() for i in first],
            "canonical_id": ids[first],
            "n_dups": counts.astype(np.int64)})

    return exchange(ds.map_batches(add_hash, batch_format="pyarrow"),
                    blocks, dedup_part, "pyarrow")


def dedup_lines(ds, text_col: str = "text", id_col: str = "doc_id",
                sep: str = "\n", num_parts: int | None = None,
                max_broadcast_bytes: int = 256 << 20):
    """C4-style corpus-global line dedup (Raffel et al. 2020 §2.2
    'discard all but one of any three-sentence span' family, at line
    grain): every DISTINCT line keeps only its first occurrence —
    smallest (doc_id, line_no) — and every later copy is removed from
    its document. → Dataset (id_col, text_col, n_removed), one row per
    input doc, surviving lines rejoined by ``sep``.

    Shape: two streaming passes over the input. Pass 1 ships only
    (int32 part, 16-byte line digest, doc_id, line_no) through ONE
    hash-partitioned exchange and reduces each digest group to its
    non-first instances — the DROP list. Real web corpora drop a few
    percent of line instances, so the drop list broadcasts
    (byte-guarded gather, per-worker lookup dict built once) and pass 2
    rewrites each doc map-side: the document text itself never enters
    an exchange. A drop list over the guard raises with the bound — at
    that duplication level, dedup the lines as a table (``exact_dedup``
    on the exploded view) instead of rewriting in place. The exchange
    follows ``partitioning.plan``, sized for ~8 lines per doc; pass
    ``num_parts`` ≈ line rows / 2^18 when docs carry many more lines."""
    import ray

    from ..util import proc_cached
    from .join import _gather_small

    parts, blocks = plan(estimate_rows(ds), _LINE_DOCS_PER_PART, num_parts)

    def explode(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        texts = b[text_col].to_pylist()
        out_id, out_ln, dgs = [], [], []
        for d, t in zip(ids, texts):
            for ln, line in enumerate((t or "").split(sep)):
                out_id.append(d)
                out_ln.append(ln)
                dgs.append(hashlib.md5(line.encode()).digest())
        h64 = (np.frombuffer(b"".join(dgs), ">u8")[::2].astype(np.uint64)
               if dgs else np.empty(0, np.uint64))
        return pa.table({
            "part": pa.array(part_of(h64, parts)),
            "digest": pa.array(dgs, pa.binary()),
            id_col: pa.array(out_id, b.schema.field(id_col).type),
            "line_no": pa.array(out_ln, pa.int32())})

    def drops_part(g: pa.Table) -> pd.DataFrame:
        dg = g["digest"].to_pylist()
        if not dg:
            return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                 "line_no": pd.Series([], dtype=np.int32)})
        arr = np.frombuffer(b"".join(dg), ">u8").reshape(-1, 2)
        ids = g[id_col].to_pandas().to_numpy()
        lns = g["line_no"].to_pandas().to_numpy()
        order = np.lexsort((lns, ids, arr[:, 1], arr[:, 0]))
        a = arr[order]
        first = np.concatenate(([True], (a[1:] != a[:-1]).any(axis=1)))
        drop = order[np.flatnonzero(~first)]
        return pd.DataFrame({id_col: ids[drop],
                             "line_no": lns[drop].astype(np.int32)})

    drops = exchange(ds.map_batches(explode, batch_format="pyarrow"),
                     blocks, drops_part, "pyarrow")
    dt = _gather_small(drops, [id_col, "line_no"], max_broadcast_bytes,
                       what="line-dedup drop list")
    ref = ray.put(dt)
    cache_key = ("dedup_lines_drops", ref.hex())

    def rewrite(b: pa.Table) -> pa.Table:
        def build():
            t = ray.get(ref)
            m: dict = {}
            for i, l in zip(t[id_col].to_pylist(),
                            t["line_no"].to_pylist()):
                m.setdefault(i, set()).add(l)
            return m
        dmap = proc_cached(cache_key, build, cap=1)
        ids = b[id_col].to_pylist()
        texts = b[text_col].to_pylist()
        out, nrm = [], []
        for d, t in zip(ids, texts):
            lines = (t or "").split(sep)
            gone = dmap.get(d)
            if gone:
                kept = [l for i, l in enumerate(lines) if i not in gone]
                nrm.append(len(lines) - len(kept))
                out.append(sep.join(kept))
            else:
                nrm.append(0)
                out.append(t or "")
        return pa.table({id_col: b[id_col],
                         text_col: pa.array(out, pa.string()),
                         "n_removed": pa.array(nrm, pa.int64())})

    return ds.map_batches(rewrite, batch_format="pyarrow")


def select_canonical(clusters, scores, id_col: str = "doc_id",
                     cluster_col: str = "canonical_id",
                     score_col: str = "score"):
    """Quality-aware canonical selection for near-dup clusters: instead
    of keep-smallest-id, each cluster keeps its BEST-scoring member
    (score desc, id asc on ties) — the "which copy survives" policy of
    production curation pipelines (keep the longest / highest-quality
    page of a mirror set). ``clusters`` is any (id, cluster) membership
    table (e.g. ``simhash_dedup`` / ``minhash_lsh_dedup`` output);
    ``scores`` maps id → quality. → Dataset (cluster_col, keep_id,
    keep_score), one row per cluster. Shape: ONE tagged-union exchange
    joins scores onto members (``shuffle_hash_join``), then a
    cluster-keyed groupby reduces each partition with a vectorized
    lexsort + segment-first pass (never a per-group Python apply);
    nothing corpus-sized touches the driver."""
    from .join import shuffle_hash_join

    joined = shuffle_hash_join(clusters, scores, left_on=id_col)

    def best(g: pa.Table) -> pd.DataFrame:
        if g.num_rows == 0:
            return pd.DataFrame({cluster_col: pd.Series([], np.int64),
                                 "keep_id": pd.Series([], np.int64),
                                 "keep_score": pd.Series([], np.float64)})
        cl = g[cluster_col].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        sc = g[score_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sc, cl))
        cs = cl[order]
        first = np.flatnonzero(
            np.concatenate(([True], cs[1:] != cs[:-1])))
        pick = order[first]
        return pd.DataFrame({cluster_col: cl[pick], "keep_id": ids[pick],
                             "keep_score": sc[pick]})

    return joined.groupby(cluster_col).map_groups(best,
                                                  batch_format="pyarrow")


# ---------------------------------------------------------------- minhash

# MinHasher's chunk sizes, in rows of num_perm uint64 values: at 128
# perms the arithmetic's temporaries (512 rows, 512 KiB) and one gather
# (1,024 rows, 1 MiB) stay cache-sized; a 4,096-row gather ran its
# reduceat about 3x slower (1-vCPU VM, perfbench's 1,000-row batch).
_AFFINE_ROWS = 512
_GATHER_ROWS = 1024


class MinHasher:
    """num_perm universal-hash minhash over word shingles; stateful
    (permutation coefficients built once per actor)."""

    def __init__(self, num_perm: int = 128, shingle: int = 3, seed: int = 7,
                 text_col: str = "text", id_col: str = "doc_id"):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle = shingle
        self.text_col = text_col
        self.id_col = id_col

    def values(self, h: np.ndarray) -> np.ndarray:
        """(len(h), num_perm) table of (a·h + b) mod p over shingle
        hashes h, built _AFFINE_ROWS rows at a time."""
        h = h.astype(np.uint64)[:, None]
        vals = np.empty((h.size, self.num_perm), np.uint64)
        a, b = self.a[None, :], self.b[None, :]
        for lo in range(0, h.size, _AFFINE_ROWS):
            vals[lo:lo + _AFFINE_ROWS] = _affine_p61(
                a, b, h[lo:lo + _AFFINE_ROWS])
        return vals

    def __call__(self, batch: pa.Table) -> pa.Table:
        """→ (id, minhash): each row's num_perm minima as native uint64
        bytes in one ``pa.binary()`` value. A doc shorter than
        ``shingle`` tokens hashes its whole joined text as one shingle;
        a doc with no tokens gets all 2^64−1.

        Layout: the batch's shingle strings intern into one table of
        distinct strings (``pd.factorize`` codes), and only those are
        md5-hashed and run through ``values``, into a doc-major
        (distinct, num_perm) value table. Gather chunks of about
        _GATHER_ROWS shingles hold whole docs (a longer doc gets a chunk
        of its own): each takes its shingles' value rows and folds them
        to per-doc minima with one ``np.minimum.reduceat`` at the doc
        starts, straight into the (n, num_perm) signature buffer that
        backs the column."""
        from ..analysis.tokenizer import simple_tokenize
        k, num_perm = self.shingle, self.num_perm
        shingles: list[str] = []
        lens = []
        for t in batch[self.text_col].to_pylist():
            toks = simple_tokenize(t or "")
            if len(toks) >= k:
                sh = list(map(" ".join, zip(*(toks[i:] for i in range(k)))))
            else:
                sh = [" ".join(toks)] if toks else []
            shingles += sh
            lens.append(len(sh))
        n = len(lens)
        if n * num_perm * 8 >= 1 << 31:
            raise ValueError(f"{n} signatures overflow int32 offsets")
        out = np.full((n, num_perm), np.iinfo(np.uint64).max, np.uint64)
        if shingles:
            inv, distinct = pd.factorize(np.array(shingles, dtype=object))
            dg = b"".join([hashlib.md5(s.encode()).digest()
                           for s in distinct])
            vals = self.values(np.frombuffer(dg, ">u8")[::2])
            lens = np.asarray(lens, dtype=np.int64)
            nz = np.flatnonzero(lens)
            starts = np.concatenate(([0], np.cumsum(lens[nz])))
            d = 0
            while d < nz.size:
                e = max(d + 1, int(np.searchsorted(
                    starts, starts[d] + _GATHER_ROWS, side="right")) - 1)
                lo, hi = starts[d], starts[e]
                out[nz[d:e]] = np.minimum.reduceat(
                    vals[inv[lo:hi]], starts[d:e] - lo, axis=0)
                d = e
        offsets = np.arange(n + 1, dtype=np.int32) * np.int32(num_perm * 8)
        return pa.table({
            self.id_col: batch[self.id_col],
            "minhash": pa.Array.from_buffers(
                pa.binary(), n,
                [None, pa.py_buffer(offsets), pa.py_buffer(out)]),
        })


def _signatures(ds, num_perm: int, shingle: int, text_col: str,
                id_col: str):
    """→ Dataset (id, minhash) of ``MinHasher`` over ``ds``: stateless
    tasks with a process-global hasher (coefficients built once per
    worker), so they schedule on every CPU. batch_size bundles a read's
    small blocks into fewer tasks: a single-file corpus splits into
    ~2×CPU tiny blocks, and per-task dispatch (~tens of ms) would
    otherwise dwarf the signature work per block."""
    from ..util import proc_cached

    def sig_fn(b: pa.Table) -> pa.Table:
        mh = proc_cached(
            ("minhasher", num_perm, shingle, text_col, id_col),
            lambda: MinHasher(num_perm=num_perm, shingle=shingle,
                              text_col=text_col, id_col=id_col))
        return mh(b)

    return ds.map_batches(sig_fn, batch_format="pyarrow", batch_size=1024)


def _sig_matrix(col, num_perm: int) -> np.ndarray:
    """(n, num_perm) uint64 rows of a binary column of fixed-width
    signatures (``minhash``, or ``band_bytes`` with num_perm = rows per
    band): a view of the value buffer from the array offset on, no
    per-row bytes objects. Chunks are combined first (one copy)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n, width = len(col), num_perm * 8
    if n == 0:
        return np.empty((0, num_perm), np.uint64)
    off = np.frombuffer(col.buffers()[1], np.int32, count=n + 1,
                        offset=col.offset * 4)
    if (np.diff(off) != width).any():
        raise ValueError(f"signature rows are not all {width} bytes")
    return np.frombuffer(col.buffers()[2], np.uint64, count=n * num_perm,
                         offset=int(off[0])).reshape(n, num_perm)


def _band_fold(sig: np.ndarray) -> np.ndarray:
    """(n, bands, rows_per_band) uint64 signatures → (n, bands) uint64
    bucket keys: FNV-style multiply-xor fold of each band's values with
    the band index salted in. One vectorized pass — no per-row Python,
    no md5-hex strings in the shuffle key."""
    n, bands, rows_per_band = sig.shape
    h = np.full((n, bands), 0x9E3779B97F4A7C15, dtype=np.uint64)
    mul = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for r in range(rows_per_band):
            h = (h ^ sig[:, :, r]) * mul
        h ^= (np.arange(bands, dtype=np.uint64)
              * np.uint64(0xD6E8FEB86659FD93))[None, :]
    return h


def _check_bands(num_perm: int, bands: int) -> int:
    """The (n, bands, rows_per_band) reshape both banding paths rely on
    requires exact divisibility — fail at function entry with a clear
    message instead of a downstream reshape ValueError (ADVICE r3)."""
    if bands < 1 or num_perm % bands:
        raise ValueError(
            f"num_perm={num_perm} must be a positive multiple of "
            f"bands={bands} (rows_per_band = num_perm // bands)")
    return num_perm // bands


def _sig_fold(sig2d: np.ndarray) -> np.ndarray:
    """(n, num_perm) uint64 → (n,) uint64 whole-signature fingerprint
    (same multiply-xor fold family as ``_band_fold``)."""
    h = np.full(sig2d.shape[0], 0xCBF29CE484222325, dtype=np.uint64)
    mul = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for r in range(sig2d.shape[1]):
            h = (h ^ sig2d[:, r]) * mul
    return h


def minhash_lsh_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                      num_perm: int = 128, bands: int = 16, shingle: int = 3,
                      jaccard_threshold: float = 0.8,
                      attach_route: str = "auto"):
    """→ Dataset (doc_id, canonical_id) for docs in near-dup groups.

    signatures → GLOBAL identical-signature collapse (one shuffle keyed
    by a uint64 whole-signature fingerprint: member→rep edges out, one
    representative per distinct signature on) → band explode over the
    DISTINCT signatures only → groupby band key → in-bucket union-find
    over the full-signature Jaccard estimate → min-label
    canonicalization (driver union-find when the edge set is small,
    ``graph.connected_components`` when it is corpus-sized).

    Why collapse first: webtext is dominated by exact copies, and every
    copy multiplies BOTH the band-shuffle payload (bands × 1 KB per
    doc — measured 3.4 GB and ~80 % of the stage wall at sf0.1×40) and
    the in-bucket pairwise work. After the collapse the banding cost
    scales with DISTINCT content. On a corpus with no duplicates the
    collapse adds one signature-sized shuffle — the documented price.
    ``attach_route`` picks how candidate signatures reach their verify
    buckets: ``"auto"`` broadcasts the (bucket, id) request table when
    it fits a 256 MiB guard (the realistic regime — signatures then
    never enter an exchange except the candidates') and falls back to
    the id-keyed co-group when it doesn't (the dup-heavy regime);
    ``"broadcast"`` / ``"cogroup"`` force a route (parity-tested).
    A 64-bit fingerprint collision merges two docs without
    verification (~2⁻⁶⁴ per pair) — the same accepted risk class as
    the uint64 bucket key. 'Verified' still means the full-signature
    Jaccard ESTIMATE; true n-gram verification would need the text
    (see ``ngram_jaccard``)."""
    rows_per_band = _check_bands(num_perm, bands)
    # lazy: the signatures stream straight into the collapse exchange;
    # materializing them would add a barrier job and park ~1 KB/doc in
    # the object store
    sig_ds = _signatures(ds, num_perm, shingle, text_col, id_col)
    parts, blocks = plan(estimate_rows(ds), _BAND_DOCS_PER_PART)

    def add_fp(b: pa.Table) -> pa.Table:
        fp = _sig_fold(_sig_matrix(b["minhash"], num_perm))
        return pa.table({
            "part": pa.array(part_of(fp, parts)),
            "sigfp": pa.array(fp),
            id_col: b[id_col],
            "minhash": b["minhash"]})

    def collapse_fp(g: pa.Table) -> pd.DataFrame:
        """Per hash partition of sigfp: one rep (min id) per distinct
        signature. Emits rep rows (is_rep=1, signature attached) for
        every distinct signature plus member→rep edges (is_rep=0) for
        duplicated ones — same lexsort/segment fold as exact_dedup."""
        ids = g[id_col].to_pandas().to_numpy()
        fps = g["sigfp"].to_numpy()
        ord_id = np.argsort(ids, kind="stable")
        order = ord_id[np.argsort(fps[ord_id], kind="stable")]
        f = fps[order]
        bound = np.concatenate(([True], f[1:] != f[:-1]))
        run_id = np.cumsum(bound) - 1
        first = order[np.flatnonzero(bound)]       # rep = min id per fp
        rep_of = first[run_id]
        members = order[ids[order] != ids[rep_of]]
        rep_for_member = first[run_id[ids[order] != ids[rep_of]]]
        return pa.table({
            id_col: g[id_col].take(np.concatenate((first, members))),
            "canonical_id": g[id_col].take(
                np.concatenate((first, rep_for_member))),
            "minhash": pa.chunked_array(
                g["minhash"].take(first).chunks
                + [pa.array([b""] * len(members), pa.binary())],
                pa.binary()),
            "is_rep": pa.array(np.concatenate((
                np.ones(len(first), np.int8),
                np.zeros(len(members), np.int8))))})

    collapsed = exchange(sig_ds.map_batches(add_fp, batch_format="pyarrow"),
                         blocks, collapse_fp, "pyarrow").materialize()
    member_edges = collapsed.map_batches(
        lambda b: b[(b["is_rep"] == 0).to_numpy()][[id_col,
                                                    "canonical_id"]],
        batch_format="pandas")
    reps = collapsed.map_batches(
        lambda b: b[(b["is_rep"] == 1).to_numpy()][[id_col, "minhash"]],
        batch_format="pandas")

    # ---- banding, TWO light exchanges (r5, found by the 8M-doc scale
    # rehearsal): the old single exchange shipped the FULL signature
    # with every band row — bands × ~1 KB per distinct doc ≈ 16 KB/doc,
    # ~127 GB at 8M distinct docs, which blew straight through the
    # object store into disk-full spilling. On a mostly-distinct corpus
    # (the realistic web shape once exact copies are collapsed) almost
    # all buckets are singletons, so signatures are only ever NEEDED
    # for members of non-trivial buckets. Exchange 1 ships (bucket,
    # id) only (~256 B/doc) and keeps the members of buckets with ≥ 2
    # distinct ids; exchange 2 is an id-keyed co-group that attaches
    # each requested member's signature (signature bytes move once per
    # requesting bucket, for CANDIDATE docs only) and re-partitions by
    # bucket for the unchanged in-bucket verification. Same fold keys,
    # same member sets, same Jaccard verification — bit-identical
    # output; only the exchange volume changed: O(candidate sigs)
    # instead of O(corpus × bands) signature bytes.

    def explode_light(b: pa.Table) -> pa.Table:
        n = b.num_rows
        sig = _sig_matrix(b["minhash"], num_perm) \
            .reshape(n, bands, rows_per_band)
        hv = _band_fold(sig).reshape(-1)
        idx = np.repeat(np.arange(n), bands)
        return pa.table({
            "part": pa.array(part_of(hv, parts)),
            "bucket": pa.array(hv),
            id_col: b[id_col].take(pa.array(idx))})

    def nontrivial_members(g: pa.Table) -> pa.Table:
        """Per bucket-hash partition: (bucket, id) rows for members of
        buckets holding ≥ 2 distinct ids — the only docs whose
        signatures the verify stage will ever read. Vectorized segment
        arithmetic, no per-bucket Python. Returns Arrow with the id
        column's REAL type even when empty — a dtype-object empty
        pandas frame would crash the downstream gather's schema
        conversion on the common all-singleton corpus (review r5)."""
        empty = pa.table({"bucket": pa.array([], pa.uint64()),
                          id_col: pa.array([], g.schema.field(id_col).type)})
        if g.num_rows < 2:
            return empty
        buckets = g["bucket"].to_numpy()
        ids = np.asarray(g[id_col].to_pandas().to_numpy())
        order = np.lexsort((ids, buckets))
        sb, sid = buckets[order], ids[order]
        # drop duplicate (bucket, id) rows, then keep segments ≥ 2
        dupe = (sb[1:] == sb[:-1]) & (sid[1:] == sid[:-1])
        keep = np.concatenate(([True], ~dupe))
        sb, sid = sb[keep], sid[keep]
        bound = np.concatenate(([True], sb[1:] != sb[:-1]))
        starts = np.flatnonzero(bound)
        lens = np.diff(np.concatenate((starts, [len(sb)])))
        big = np.repeat(lens >= 2, lens)
        if not big.any():
            return empty
        return pa.table({"bucket": pa.array(sb[big]),
                         id_col: pa.array(sid[big],
                                          g.schema.field(id_col).type)})

    requests = exchange(reps.map_batches(explode_light, batch_format="pyarrow"),
                        blocks, nontrivial_members, "pyarrow").materialize()

    def partition_pairs(g: pa.Table) -> pd.DataFrame:
        """One call per HASH PARTITION of the buckets, not per
        bucket: a groupby().map_groups at bucket grain costs one Python
        call per bucket (~bands × n_reps groups, almost all
        singletons); here the partition's buckets are segmented
        vectorized and only non-trivial ones (≥2 reps — rare) run the
        O(k²)-bounded union-find with early exit. Emits (member,
        component-min) per in-bucket component; global transitivity is
        _compress_canonical's job."""
        empty = pd.DataFrame({id_col: [], "canonical_id": []})
        if g.num_rows < 2:
            return empty
        buckets = g["bucket"].to_numpy()
        order = np.argsort(buckets, kind="stable")
        bs = buckets[order]
        seg = np.flatnonzero(np.concatenate(
            ([True], bs[1:] != bs[:-1], [True])))
        ids_all = g[id_col].to_pylist()
        id_dtype = g.schema.field(id_col).type.to_pandas_dtype()
        sigs_all = _sig_matrix(g["minhash"], num_perm)
        frames = []
        for lo, hi in zip(seg[:-1], seg[1:]):
            if hi - lo < 2:
                continue
            rows = order[lo:hi]
            seen: dict = {}
            for r in rows:
                seen.setdefault(ids_all[r], r)
            k = len(seen)
            if k < 2:
                continue
            ids = sorted(seen)
            # vectorized pairwise estimate: boilerplate-heavy corpora
            # produce buckets with hundreds of distinct signatures, and
            # a per-pair Python predicate (k² lambda calls) dominated
            # the stage wall; one broadcast compare per bucket (row-
            # chunked to bound the k×k×num_perm temporary) leaves only
            # the passing edges to a tiny index union-find.
            A = sigs_all[[seen[i] for i in ids]]
            ea: list = []
            eb: list = []
            step = max(1, 4_000_000 // (k * num_perm))
            for r0 in range(0, k, step):
                est = (A[r0:r0 + step, None, :] == A[None, :, :]) \
                    .mean(axis=2)
                ii, jj = np.nonzero(est >= jaccard_threshold)
                ii = ii + r0
                keep = ii < jj
                ea += ii[keep].tolist()
                eb += jj[keep].tolist()
            if not ea:
                continue
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j in zip(ea, eb):
                ri, rj = find(i), find(j)
                if ri != rj:
                    lo_, hi_ = (ri, rj) if ri < rj else (rj, ri)
                    parent[hi_] = lo_
            comp: dict = {}
            for x in range(k):
                comp.setdefault(find(x), []).append(x)
            out_id, out_canon = [], []
            for root, mem in comp.items():
                if len(mem) < 2:
                    continue
                canon = ids[min(mem)]
                for m in mem:
                    out_id.append(ids[m])
                    out_canon.append(canon)
            if out_id:
                frames.append(pd.DataFrame({
                    id_col: pd.Series(out_id, dtype=id_dtype),
                    "canonical_id": pd.Series(out_canon, dtype=id_dtype)}))
        return pd.concat(frames).drop_duplicates(ignore_index=True) \
            if frames else empty

    # ---- signature attach, TWO routes (r5, 16M-doc rehearsal round 2):
    # on a realistic corpus the request table is near-EMPTY (a 225k-rep
    # probe measured 0 non-trivial buckets), so pushing the WHOLE
    # signature table through an id-keyed co-group just to meet ~zero
    # requests re-sorts ~1 KB/doc a second time — at 16M docs that
    # second full-corpus sort was pure spill grind. Route A (requests
    # fit a byte guard — the realistic regime): gather the (bucket, id)
    # requests to the driver, broadcast them once, and FILTER the reps
    # map-side with a sorted probe — zero signature bytes enter any
    # exchange except the candidates'. Route B (guard exceeded — the
    # dup-heavy regime, where candidates ARE corpus-scale): the tagged
    # id-keyed co-group below, whose volume is then proportional to
    # genuine candidates anyway.
    import ray

    from .join import _gather_small
    if attach_route not in ("auto", "broadcast", "cogroup"):
        raise ValueError(f"attach_route={attach_route!r}")
    req_t = None
    if attach_route != "cogroup":
        try:
            req_t = _gather_small(requests, max_broadcast_bytes=256 << 20,
                                  what="LSH candidate requests")
        except ValueError:
            if attach_route == "broadcast":
                raise
            req_t = None

    if req_t is not None and req_t.num_rows == 0:
        # every bucket is a singleton: no cross-signature candidates,
        # the collapse edges are the entire answer
        return _compress_canonical(member_edges, id_col)

    if req_t is not None:
        rid = np.asarray(req_t[id_col].to_pandas().to_numpy())
        rb = req_t["bucket"].to_numpy()
        order = np.argsort(rid, kind="stable")
        rid, rb = rid[order], rb[order]
        req_ref = ray.put((rid, rb))

        def attach_bcast(b: pa.Table) -> pa.Table:
            # zero-copy plasma views, released with the task: a
            # process cache would pin every run's requests for good
            rid_s, rb_s = ray.get(req_ref)
            ids = np.asarray(b[id_col].to_pandas().to_numpy())
            lo = np.searchsorted(rid_s, ids, side="left")
            hi = np.searchsorted(rid_s, ids, side="right")
            # candidate rows only: row r repeats once per request
            # rid_s[lo[r]:hi[r]], k walks those ranges back to back
            n = hi - lo
            rows = np.repeat(np.arange(len(ids)), n)
            k = np.arange(rows.size) - np.repeat(np.cumsum(n) - n - lo, n)
            ob = np.asarray(rb_s[k], dtype=np.uint64)
            return pa.table({
                "part": pa.array(part_of(ob, parts)),
                "bucket": pa.array(ob),
                id_col: b[id_col].take(rows),
                "minhash": b["minhash"].take(rows).cast(pa.binary())})

        rep_pairs = exchange(
            reps.map_batches(attach_bcast, batch_format="pyarrow"),
            blocks, partition_pairs, "pyarrow")
        return _compress_canonical(member_edges.union(rep_pairs), id_col)

    # id-keyed co-group: tagged union of sig rows and request rows,
    # partitioned by hash(id) — each partition merges its complete id
    # slice and emits (bucket-part, bucket, id, minhash) for the
    # verify stage (the shuffle_hash_join pattern, inlined because the
    # output needs a second partition key)
    def tag_sig(b: pa.Table) -> pa.Table:
        return pa.table({
            "part": pa.array(part_of(
                b[id_col].to_numpy(zero_copy_only=False), parts)),
            id_col: b[id_col],
            "bucket": pa.array(np.zeros(b.num_rows, np.uint64)),
            "minhash": b["minhash"],
            "side": pa.array(np.zeros(b.num_rows, np.int8))})

    def tag_req(b: pa.Table) -> pa.Table:
        return pa.table({
            "part": pa.array(part_of(
                b[id_col].to_numpy(zero_copy_only=False), parts)),
            id_col: b[id_col],
            "bucket": b["bucket"],
            "minhash": pa.array([b""] * b.num_rows, pa.binary()),
            "side": pa.array(np.ones(b.num_rows, np.int8))})

    def attach_sigs(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy()
        id_type = g.schema.field(id_col).type
        empty = pa.table({
            "part": pa.array([], pa.int32()),
            "bucket": pa.array([], pa.uint64()),
            id_col: pa.array([], id_type),
            "minhash": pa.array([], pa.binary())})
        req = np.flatnonzero(side == 1)
        if req.size == 0:
            return empty
        sig_rows = np.flatnonzero(side == 0)
        ids = np.asarray(g[id_col].to_pandas().to_numpy())
        lut = {ids[i]: i for i in sig_rows}
        buckets = g["bucket"].to_numpy()
        return pa.table({
            "part": pa.array(part_of(buckets[req], parts)),
            "bucket": pa.array(buckets[req]),
            id_col: pa.array(ids[req], id_type),
            "minhash": g["minhash"].take([lut[ids[i]] for i in req])
            .cast(pa.binary())})

    banded = exchange(
        reps.map_batches(tag_sig, batch_format="pyarrow")
        .union(requests.map_batches(tag_req, batch_format="pyarrow")),
        blocks, attach_sigs, "pyarrow")
    rep_pairs = exchange(banded, blocks, partition_pairs, "pyarrow")
    return _compress_canonical(member_edges.union(rep_pairs), id_col)


# ---------------------------------------------------------------- simhash

class SimHasher:
    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    @staticmethod
    def fingerprint(text: str) -> int:
        from ..analysis.tokenizer import simple_tokenize
        toks = simple_tokenize(text or "")
        if not toks:
            return 0
        uniq, counts = np.unique(np.asarray(toks, dtype=object),
                                 return_counts=True)
        hs = _token_hashes(list(uniq))
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.int64)
        v = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
        return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, b: pa.Table) -> pa.Table:
        fps = [self.fingerprint(t) for t in b[self.text_col].to_pylist()]
        return pa.table({
            self.id_col: b[self.id_col],
            "simhash": pa.array(np.array(fps, dtype=np.uint64)),
        })


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3):
    """→ Dataset (doc_id, canonical_id): near-dups at Hamming ≤ k over
    64-bit simhash, blocked on 4 16-bit bands (pigeonhole-complete for
    k ≤ 3)."""
    from ..util import proc_cached

    def fp_fn(b: pa.Table) -> pa.Table:
        sh = proc_cached(("simhasher", text_col, id_col),
                         lambda: SimHasher(text_col=text_col, id_col=id_col))
        return sh(b)

    fp_ds = ds.map_batches(fp_fn, batch_format="pyarrow",
                           batch_size=1024)

    def explode(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        fps = b["simhash"].to_numpy()
        out_band, out_key, out_id, out_fp = [], [], [], []
        for i, f in zip(ids, fps):
            for bi in range(4):
                out_band.append(bi)
                out_key.append(int((int(f) >> (16 * bi)) & 0xFFFF))
                out_id.append(i)
                out_fp.append(int(f))
        return pa.table({"band": pa.array(out_band, pa.int32()),
                         "key": pa.array(out_key, pa.int32()),
                         id_col: pa.array(out_id),
                         "simhash": pa.array(np.array(out_fp, dtype=np.uint64))})

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        # collapse identical fingerprints (Hamming 0) before the O(k²)
        # pass — same exact-copy hazard and connectivity argument as
        # minhash_lsh_dedup.partition_pairs
        by_fp: dict = {}
        for i, f in sorted(zip(g[id_col], g["simhash"].astype(np.uint64))):
            by_fp.setdefault(int(f), []).append(i)
        items = sorted(by_fp.values())             # asc by rep (= min) id
        frames = []
        if len(items) > 1:
            reps = [v[0] for v in items]
            fps = [f for f, _ in sorted(by_fp.items(),
                                        key=lambda kv: kv[1][0])]
            frames.append(_unionfind_pairs(reps, lambda i, j: bin(
                fps[i] ^ fps[j]).count("1") <= max_hamming, id_col))
        mem, canon = [], []
        for v in items:
            if len(v) > 1:
                mem += v
                canon += [v[0]] * len(v)
        if mem:
            frames.append(pd.DataFrame({id_col: mem, "canonical_id": canon}))
        # drop empty frames before concat: an all-default empty DataFrame
        # is float64 and would upcast the int id columns of its siblings
        frames = [f for f in frames if len(f)]
        return pd.concat(frames) if frames else pd.DataFrame({
            id_col: pd.Series([], dtype=g[id_col].dtype),
            "canonical_id": pd.Series([], dtype=g[id_col].dtype)})

    pairs = fp_ds.map_batches(explode, batch_format="pyarrow") \
        .groupby(["band", "key"]).map_groups(bucket, batch_format="pandas")
    return _compress_canonical(pairs, id_col)


def _unionfind_pairs(ids: list, is_dup, id_col: str) -> pd.DataFrame:
    """ids sorted asc; is_dup(i, j) on indices → (member, component-min)
    rows for every member of a non-trivial connected component."""
    n = len(ids)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(1, n):
        for i in range(j):
            if find(i) != find(j) and is_dup(i, j):
                parent[find(j)] = find(i)
    comp: dict[int, list[int]] = {}
    for x in range(n):
        comp.setdefault(find(x), []).append(x)
    out_id, out_canon = [], []
    for members in comp.values():
        if len(members) < 2:
            continue
        canon = ids[min(members)]        # ids sorted asc -> min index = min id
        for m in members:
            out_id.append(ids[m])
            out_canon.append(canon)
    return pd.DataFrame({id_col: out_id, "canonical_id": out_canon})


def _compress_canonical(pairs, id_col: str,
                        driver_edge_cap: int = 2_000_000):
    """Union-find over the raw bucket EDGES, not min-reduced labels.

    A min-label aggregate keeps only each doc's smallest canonical and
    can split transitive components (bucket1 {A,C} → C→A; bucket2 {B,C}
    → C→B; Min leaves C→A and drops the B–C link, so B misses A). So:
    per-block distinct-edge reduce (map_batches drop_duplicates — a doc
    repeated across buckets collapses inside each block, no groupby
    job), then:

    - edge count ≤ ``driver_edge_cap``: driver union-find with min-root
      unioning → member → component-min map. The edge set holds ONLY
      docs in some duplicate group, so on lightly-duplicated corpora
      this is tiny and one round-trip beats any distributed scheme.
    - above the cap (duplicate-HEAVY corpora, where dup-group members
      are a constant fraction of the corpus and no driver can hold
      them): ``graph.connected_components`` — alternating large/small
      star over the distributed edge set, O(log n) shuffle rounds,
      identical output contract."""
    import ray.data as rd

    def _dedup_block(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates([id_col, "canonical_id"])

    ded = pairs.map_batches(_dedup_block, batch_format="pandas") \
        .materialize()
    if ded.count() > driver_edge_cap:
        from .graph import connected_components
        comp = connected_components(ded, src_col=id_col,
                                    dst_col="canonical_id")
        return comp.map_batches(
            lambda b: b.rename(columns={"id": id_col,
                                        "component": "canonical_id"}),
            batch_format="pandas")

    parts = [bt for bt in ded.iter_batches(batch_size=None,
                                           batch_format="pandas")
             if len(bt)]
    if not parts:
        return rd.from_pandas(pd.DataFrame({id_col: [], "canonical_id": []}))
    edges = pd.concat(parts).drop_duplicates([id_col, "canonical_id"])

    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(edges[id_col], edges["canonical_id"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            # attach the larger root under the smaller: every tree root
            # stays the component minimum by induction
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    members = sorted(set(edges[id_col]) | set(edges["canonical_id"]))
    id_type = edges[id_col].dtype      # ids keep their input type
    return rd.from_pandas(pd.DataFrame({
        id_col: pd.Series(members, dtype=id_type),
        "canonical_id": pd.Series([find(m) for m in members],
                                  dtype=id_type)}))


def simhash_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3):
    """Distinct near-dup PAIRS at Hamming ≤ k over 64-bit simhash —
    the same 4×16-bit-band pigeonhole blocking as ``simhash_dedup`` but
    stopping at the pair level (no union-find), which keeps the whole
    computation SQL-expressible for oracle checking.

    → Dataset (id_a, id_b, hamming), id_a < id_b, one row per pair
    (a pair colliding in several bands is reduced by the groupby)."""
    from ray.data.aggregate import Min
    from ..util import proc_cached

    def fp_fn(b: pa.Table) -> pa.Table:
        sh = proc_cached(("simhasher", text_col, id_col),
                         lambda: SimHasher(text_col=text_col, id_col=id_col))
        return sh(b)

    def explode(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        fps = b["simhash"].to_numpy()
        out_band, out_key, out_id, out_fp = [], [], [], []
        for i, f in zip(ids, fps):
            for bi in range(4):
                out_band.append(bi)
                out_key.append(int((int(f) >> (16 * bi)) & 0xFFFF))
                out_id.append(i)
                out_fp.append(int(f))
        return pa.table({"band": pa.array(out_band, pa.int32()),
                         "key": pa.array(out_key, pa.int32()),
                         id_col: pa.array(out_id),
                         "simhash": pa.array(np.array(out_fp, dtype=np.uint64))})

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = sorted(zip(g[id_col], g["simhash"].astype(np.uint64)))
        a_out, b_out, h_out = [], [], []
        for j in range(1, len(rows)):
            for i in range(j):
                ham = bin(int(rows[i][1]) ^ int(rows[j][1])).count("1")
                if ham <= max_hamming:
                    a_out.append(rows[i][0])
                    b_out.append(rows[j][0])
                    h_out.append(ham)
        # explicit dtypes (so empty frames concat cleanly), id dtype
        # carried from the input column — string ids work too
        dt = g[id_col].dtype
        return pd.DataFrame({"id_a": pd.array(a_out, dtype=dt),
                             "id_b": pd.array(b_out, dtype=dt),
                             "hamming": pd.array(h_out, dtype="int64")})

    pairs = ds.map_batches(fp_fn, batch_format="pyarrow",
                           batch_size=1024) \
        .map_batches(explode, batch_format="pyarrow") \
        .groupby(["band", "key"]).map_groups(bucket, batch_format="pandas")
    return pairs.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming"))


def minhash_candidate_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                            num_perm: int = 128, bands: int = 16,
                            shingle: int = 3):
    """LSH candidate pairs only — the banding stage of
    ``minhash_lsh_dedup`` without the signature-Jaccard filter or
    union-find, so the output (id_a, id_b, n_bands = number of colliding
    bands) is exactly reproducible in SQL (min-over-shingles universal
    hashing is pure modular arithmetic).

    r3→r4 (VERDICT item 4): banding reuses the vectorized uint64
    ``_band_fold`` of ``minhash_lsh_dedup`` (was a per-row Python loop
    emitting md5-hex strings). Unlike the dedup sibling, emitted pairs
    here are NOT similarity-verified downstream, so each band's raw
    bytes travel with its row and bucket members are grouped by EXACT
    band-value equality inside the partition — a 64-bit fold collision
    merely merges two buckets, never emits a wrong pair, keeping the
    output identical to true band equality (what the SQL oracle joins
    on).

    → Dataset (id_a, id_b, n_bands), id_a < id_b."""
    from ray.data.aggregate import Count
    rows_per_band = _check_bands(num_perm, bands)
    parts, blocks = plan(estimate_rows(ds), _BAND_DOCS_PER_PART)

    def explode_bands(b: pa.Table) -> pa.Table:
        n = b.num_rows
        sig = _sig_matrix(b["minhash"], num_perm)
        hv = _band_fold(sig.reshape(n, bands, rows_per_band)).reshape(-1)
        # all of a doc's band slices are contiguous in the signature
        # rows, so the per-(doc, band) byte windows are one offsets
        # array — a zero-copy Arrow binary column, no per-row slicing
        step = rows_per_band * 8
        offsets = (np.arange(n * bands + 1, dtype=np.int32) * step)
        band_bytes = pa.Array.from_buffers(
            pa.binary(), n * bands,
            [None, pa.py_buffer(offsets), pa.py_buffer(sig)])
        idx = np.repeat(np.arange(n), bands)
        return pa.table({
            "part": pa.array(part_of(hv, parts)),
            "bucket": pa.array(hv),
            "band_bytes": band_bytes,
            id_col: b[id_col].take(pa.array(idx))})

    def partition_pairs(g: pa.Table) -> pa.Table:
        """One call per hash partition. Rows lexsort by (bucket, exact
        band words, id) so equal-band groups are contiguous segments —
        the fold key only pre-groups; equality is on the raw band words,
        so a fold collision still never merges two true buckets — then
        every segment's all-pairs are emitted with cumulative-sum index
        arithmetic (one row per colliding band; the downstream Count
        collapses to n_bands). No per-bucket Python loops (VERDICT r4
        item 5): the whole partition is a handful of numpy passes."""
        t_id = g[id_col].type
        n = g.num_rows

        def _empty() -> pa.Table:
            return pa.table({"id_a": pa.array([], t_id),
                             "id_b": pa.array([], t_id)})

        if n < 2:
            return _empty()
        buckets = g["bucket"].to_numpy()
        mat = _sig_matrix(g["band_bytes"], rows_per_band)
        ids = np.asarray(g[id_col].to_pandas().to_numpy())
        order = np.lexsort((ids,
                            *(mat[:, c] for c in
                              range(rows_per_band - 1, -1, -1)),
                            buckets))
        sb, sm, sid = buckets[order], mat[order], ids[order]
        same = (sb[1:] == sb[:-1]) & (sm[1:] == sm[:-1]).all(axis=1)
        # the old per-group set(): drop duplicate (group, id) rows so a
        # repeated input id never pairs with itself
        dupe = same & (sid[1:] == sid[:-1])
        if dupe.any():
            keep = np.concatenate(([True], ~dupe))
            sb, sm, sid = sb[keep], sm[keep], sid[keep]
            same = (sb[1:] == sb[:-1]) & (sm[1:] == sm[:-1]).all(axis=1)
        m = len(sid)
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        lens = np.diff(np.concatenate((starts, [m])))
        # local index j within its segment; row j contributes j pairs
        # (against every earlier segment member i < j — ids sort asc
        # inside a segment, so id_a < id_b by construction)
        local = np.arange(m) - np.repeat(starts, lens)
        tot = int(local.sum())
        if tot == 0:
            return _empty()
        j_pos = np.repeat(np.arange(m), local)
        csum = np.concatenate(([0], np.cumsum(local)))
        i_off = np.arange(tot) - np.repeat(csum[:-1], local)
        i_pos = j_pos - local[j_pos] + i_off
        return pa.table({"id_a": pa.array(sid[i_pos], t_id),
                         "id_b": pa.array(sid[j_pos], t_id)})

    pairs = exchange(_signatures(ds, num_perm, shingle, text_col, id_col)
                     .map_batches(explode_bands, batch_format="pyarrow"),
                     blocks, partition_pairs, "pyarrow")
    out = pairs.groupby(["id_a", "id_b"]).aggregate(
        Count(alias_name="n_bands"))
    # the groupby widens integer keys to int64: hand the ids back in
    # their input type
    sch = ds.schema()
    id_type = dict(zip(sch.names, sch.types)).get(id_col)
    if not isinstance(id_type, pa.DataType) or id_type == pa.int64():
        return out
    schema = pa.schema([("id_a", id_type), ("id_b", id_type),
                        ("n_bands", pa.int64())])
    return out.map_batches(lambda b: b.cast(schema), batch_format="pyarrow")


def ngram_jaccard_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                        n: int = 3, threshold: float = 0.5,
                        max_shingle_df: int | None = 256):
    """EXACT n-gram Jaccard near-dup pairs via the inverted-shingle
    pattern (no MinHash approximation, no all-pairs scan):

    distinct-shingle sets per doc → explode (shingle_hash, doc_id,
    set_size) → groupby shingle → per-group pair emission → groupby
    (id_a, id_b) count = |A∩B| → jaccard = c/(|A|+|B|−c) ≥ threshold.

    The only shuffle key is the shingle hash; per-doc set sizes travel
    with the exploded rows so no join is needed.

    **Head-shingle cap** (the 100 TB guard — ON by default, r4): a
    shingle shared by m docs emits m² pair rows, so boilerplate
    shingles (navbars, footers, license headers) blow the pair stage
    up quadratically. A cheap pre-pass aggregates per-shingle df and
    broadcasts the tiny heavy-hitter set (shingles with
    df > max_shingle_df); the main pass then drops those shingles from
    every doc's set BEFORE sizes are computed, so the output is the
    exact Jaccard over the boilerplate-filtered shingle space (not a
    truncated estimate) and per-shingle pair fan-out is bounded by
    max_shingle_df². Pass ``max_shingle_df=None`` to opt out of the
    guard (the r3 default — VERDICT item 3 flipped it on). Run after
    exact dedup either way — identical-text mass makes every shingle a
    heavy hitter.

    → Dataset (id_a, id_b, jaccard)."""
    import ray
    from ray.data.aggregate import Count

    def explode(b: pa.Table, hot_ref=None) -> pa.Table:
        from ..analysis.tokenizer import simple_tokenize
        hot = ray.get(hot_ref) if hot_ref is not None else None
        ids = b[id_col].to_pylist()
        out_h, out_id, out_sz = [], [], []
        for i, t in zip(ids, b[text_col].to_pylist()):
            # bit-cast uint64 → int64 for the shuffle key: a bijection,
            # so grouping is unchanged, and Ray Data's groupby/aggregate
            # key paths handle int64 natively (uint64 keys > 2^63 fall
            # back to pickled-object columns)
            hs = np.unique(_shingle_hashes(simple_tokenize(t or ""), n)) \
                .view(np.int64)
            if hot is not None and hot.size and hs.size:
                # hot is a sorted int64 array of heavy-hitter hashes
                pos = np.minimum(np.searchsorted(hot, hs), hot.size - 1)
                hs = hs[hot[pos] != hs]
            for h in hs:
                out_h.append(int(h))
                out_id.append(i)
                out_sz.append(len(hs))
        return pa.table({"h": pa.array(out_h, pa.int64()),
                         id_col: pa.array(out_id, b[id_col].type),
                         "sz": pa.array(out_sz, pa.int64())})

    hot_ref = None
    if max_shingle_df is not None:
        # pre-pass: per-shingle df → heavy hitters only cross to the
        # driver (df > cap ⇒ at most n_shingle_rows/cap of them)
        df_tbl = ds.map_batches(explode, batch_format="pyarrow") \
            .groupby("h").aggregate(Count(alias_name="df"))

        def hot_only(bt: pa.Table) -> pa.Table:
            keep = pa.compute.greater(bt["df"], max_shingle_df)
            return pa.table({"h": bt["h"].filter(keep)})

        parts = list(df_tbl.map_batches(hot_only, batch_format="pyarrow")
                     .iter_batches(batch_size=None, batch_format="pyarrow"))
        hot_arr = np.sort(np.concatenate(
            [p["h"].to_numpy() for p in parts])) if parts \
            else np.empty(0, np.int64)
        hot_ref = ray.put(hot_arr.astype(np.int64))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        dt = g[id_col].dtype
        rows = sorted(zip(g[id_col], g["sz"]))
        a_out, b_out, sa, sb = [], [], [], []
        for j in range(1, len(rows)):
            for i in range(j):
                a_out.append(rows[i][0]); sa.append(rows[i][1])
                b_out.append(rows[j][0]); sb.append(rows[j][1])
        return pd.DataFrame({"id_a": pd.array(a_out, dtype=dt),
                             "id_b": pd.array(b_out, dtype=dt),
                             "sz_a": pd.array(sa, dtype="int64"),
                             "sz_b": pd.array(sb, dtype="int64")})

    inter = ds.map_batches(explode, batch_format="pyarrow",
                           fn_kwargs={"hot_ref": hot_ref}) \
        .groupby("h").map_groups(pairs, batch_format="pandas") \
        .groupby(["id_a", "id_b", "sz_a", "sz_b"]).aggregate(
            Count(alias_name="c"))

    def finish(b: pa.Table) -> pa.Table:
        c = b["c"].to_numpy().astype(np.float64)
        union = (b["sz_a"].to_numpy() + b["sz_b"].to_numpy()
                 - b["c"].to_numpy()).astype(np.float64)
        j = c / union
        keep = j >= threshold
        return pa.table({"id_a": b["id_a"].filter(pa.array(keep)),
                         "id_b": b["id_b"].filter(pa.array(keep)),
                         "jaccard": pa.array(j[keep], pa.float64())})

    return inter.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------- embedding near-dup

def embedding_dedup(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                    threshold: float = 0.9, dtype=np.float64,
                    max_broadcast_bytes: int = 2 << 30,
                    on_overflow: str = "route"):
    """EXACT embedding-cosine near-dup pairs: every (id_a < id_b) with
    cosine ≥ threshold.

    Brute-force baseline with the broadcast pattern: the normalized
    matrix is gathered once (embeddings are the small side — n×d floats,
    valid to ~10⁶×256 ≈ 1 GB), ``ray.put`` once, and every batch does one
    matmul against it — O(n²) compare work spread over the batch tasks,
    payload shipped once.

    **Scale guard**: the broadcast matrix size (n_rows × dim × itemsize,
    estimated from dataset count + first-row dim BEFORE any gather) is
    checked against ``max_broadcast_bytes`` (default 2 GiB). Past the
    bound, ``on_overflow`` picks the behavior: ``"route"`` (default)
    transparently falls back to :func:`embedding_lsh_dedup` — bucketed,
    approximate, no broadcast; ``"raise"`` raises ValueError with the
    routing hint so callers needing exact pairs fail loudly instead of
    OOMing the driver.

    → Dataset (id_a, id_b, score)."""
    import ray

    est = _broadcast_bytes_estimate(ds, vec_col, dtype)
    if est is not None and est > max_broadcast_bytes:
        if on_overflow == "route":
            return embedding_lsh_dedup(ds, vec_col=vec_col, id_col=id_col,
                                       threshold=threshold)
        raise ValueError(
            f"embedding_dedup broadcast matrix ≈{est/2**30:.1f} GiB exceeds "
            f"max_broadcast_bytes={max_broadcast_bytes/2**30:.1f} GiB; use "
            f"embedding_lsh_dedup (approximate, no broadcast) or raise the "
            f"bound explicitly")

    proj = ds.select_columns([id_col, vec_col])
    parts = [b for b in proj.iter_batches(batch_size=None,
                                          batch_format="pyarrow")]
    t = pa.concat_tables(parts)
    all_ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
    m = np.asarray(t[vec_col].to_pylist(), dtype=dtype)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    m = m / np.where(norms == 0, 1.0, norms)
    ref = ray.put((all_ids, m))

    def score(b: pa.Table) -> pa.Table:
        ids_g, mat = ray.get(ref)
        bid = np.asarray(b[id_col].to_pylist(), dtype=np.int64)
        bm = np.asarray(b[vec_col].to_pylist(), dtype=dtype)
        nb = np.linalg.norm(bm, axis=1, keepdims=True)
        bm = bm / np.where(nb == 0, 1.0, nb)
        sims = bm @ mat.T                       # (batch, n)
        keep = (sims >= threshold) & (ids_g[None, :] > bid[:, None])
        r, c = np.nonzero(keep)
        return pa.table({"id_a": pa.array(bid[r], pa.int64()),
                         "id_b": pa.array(ids_g[c], pa.int64()),
                         "score": pa.array(sims[r, c].astype(np.float64))})

    return ds.map_batches(score, batch_format="pyarrow")


def _broadcast_bytes_estimate(ds, vec_col: str, dtype) -> int | None:
    """n_rows × dim × itemsize for the would-be broadcast matrix, from
    dataset metadata (count) and one row (dim) — no full gather. None if
    the dataset is empty."""
    n = ds.count()
    if not n:
        return None
    first = ds.limit(1).take(1)[0][vec_col]
    return int(n) * len(first) * np.dtype(dtype).itemsize


def embedding_lsh_dedup(ds, vec_col: str = "embedding",
                        id_col: str = "vec_id", threshold: float = 0.9,
                        planes: int = 8, seed: int = 11, dtype=np.float32):
    """Scale path for embedding near-dup: hyperplane-LSH bucket the
    vectors (sign signature over ``planes`` seeded hyperplanes), then
    exact all-pairs cosine only WITHIN each bucket (map_groups) —
    approximate: a pair at angle θ lands in the same bucket with
    probability (1−θ/π)^planes, so the miss probability is
    1−(1−θ/π)^planes (θ/π·planes is only the union upper bound). No
    broadcast of the full matrix; shuffle keyed on the int bucket id.
    → Dataset (id_a, id_b, score)."""
    from ..util import proc_cached

    def bucketize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            # upstream filters/splits can deliver empty Arrow batches
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_col: b[id_col], vec_col: b[vec_col]})
        dim = len(b[vec_col][0])
        pl = proc_cached(("emb_lsh_planes", planes, seed, dim),
                         lambda: np.random.default_rng(seed)
                         .standard_normal((planes, dim)).astype(dtype))
        m = np.asarray(b[vec_col].to_pylist(), dtype=dtype)
        signs = (m @ pl.T) > 0
        bucket = (signs.astype(np.int64)
                  << np.arange(planes, dtype=np.int64)).sum(axis=1)
        return pa.table({"bucket": pa.array(bucket, pa.int64()),
                         id_col: b[id_col], vec_col: b[vec_col]})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy(dtype=np.int64)
        m = np.asarray(list(g[vec_col]), dtype=dtype)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        m = m / np.where(norms == 0, 1.0, norms)
        sims = (m @ m.T).astype(np.float64)
        iu = np.triu_indices(len(ids), k=1)
        keep = sims[iu] >= threshold
        return pd.DataFrame({"id_a": ids[iu[0][keep]],
                             "id_b": ids[iu[1][keep]],
                             "score": sims[iu][keep]})

    return ds.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("bucket").map_groups(pairs, batch_format="pandas")


# ---------------------------------------------------------------- jaccard

def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """True n-gram Jaccard similarity (verification kernel)."""
    from ..analysis.tokenizer import simple_tokenize
    a = set(map(tuple, _ngrams(simple_tokenize(text_a), n)))
    b = set(map(tuple, _ngrams(simple_tokenize(text_b), n)))
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _ngrams(tokens: list[str], n: int):
    if len(tokens) < n:
        return [tuple(tokens)] if tokens else []
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


# ---------------------------------------------------------------- dup spans

def dup_span_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                   w: int = 8, num_parts: int | None = None):
    """→ Dataset (``id_col``, n_shingles, n_dup_shingles, dup_span_frac):
    per-doc exact duplicate-span signal — the fraction of the doc's
    w-token shingles whose exact shingle text occurs ≥ 2 times
    corpus-wide (within- AND cross-document occurrences both count),
    i.e. the substring-dedup statistic of Lee et al. 2021
    ("Deduplicating Training Data Makes Language Models Better"),
    shingle-approximated so it distributes. Docs with fewer than ``w``
    tokens have no shingles and are omitted.

    Shape (the same one the index build uses — this IS an inverted
    index over shingle hashes): map side emits one row per distinct
    (doc, shingle-hash) with its in-doc count, pre-aggregated per batch;
    one hash-partitioned exchange groups by shingle to mark dup rows
    (group total ≥ 2); a second doc-keyed exchange folds per-doc sums.
    Both exchanges carry (uint64, int64, int64) rows — never text — and
    per-partition work is vectorized segment arithmetic. Both follow
    ``partitioning.plan``, sized for ~48 shingles per doc; pass
    ``num_parts`` ≈ shingle rows / 2^18 when docs run much longer."""
    parts, blocks = plan(estimate_rows(ds), _SHINGLE_DOCS_PER_PART,
                         num_parts)

    def shingles(b: pa.Table) -> pa.Table:
        from ..analysis.tokenizer import simple_tokenize
        hs, rows, cs = [], [], []
        for row, text in enumerate(b[text_col].to_pylist()):
            toks = simple_tokenize(text or "")
            if len(toks) < w:
                continue
            h, c = np.unique(_shingle_hashes(toks, w), return_counts=True)
            hs.append(h)
            cs.append(c)
            rows.append(np.full(len(h), row, dtype=np.int64))
        h = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        return pa.table({
            "part": pa.array(part_of(h, parts)),
            "h": pa.array(h),
            id_col: b[id_col].take(pa.array(
                np.concatenate(rows) if rows else np.empty(0, np.int64))),
            "cnt": pa.array(np.concatenate(cs).astype(np.int64) if cs
                            else np.empty(0, np.int64))})

    def mark_dups(g: pa.Table) -> pa.Table | pd.DataFrame:
        # rows of one shingle-hash partition: group totals by h via
        # sorted segment sums, then per-doc partial (total, dup) sums
        h = g["h"].to_numpy(zero_copy_only=False)
        if not len(h):
            return pa.table({id_col: g[id_col],
                             "sh": pa.array([], pa.int64()),
                             "dup": pa.array([], pa.int64())})
        doc = g[id_col].to_numpy(zero_copy_only=False)
        cnt = g["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs, cs = h[order], cnt[order]
        starts = np.flatnonzero(
            np.concatenate(([True], hs[1:] != hs[:-1])))
        totals = np.add.reduceat(cs, starts)
        seg_len = np.diff(np.concatenate((starts, [len(hs)])))
        is_dup = np.repeat(totals >= 2, seg_len)
        dup_cnt = np.where(is_dup, cs, 0)
        df = pd.DataFrame({id_col: doc[order], "sh": cs, "dup": dup_cnt})
        out = df.groupby(id_col, sort=False)[["sh", "dup"]].sum()
        return pd.DataFrame({id_col: out.index.to_numpy(),
                             "sh": out["sh"].to_numpy(np.int64),
                             "dup": out["dup"].to_numpy(np.int64)})

    def fold_docs(g: pa.Table) -> pd.DataFrame:
        df = g.to_pandas().groupby(id_col, sort=False)[["sh", "dup"]].sum()
        from .text import round6
        return pd.DataFrame({
            id_col: df.index.to_numpy(),
            "n_shingles": df["sh"].to_numpy(np.int64),
            "n_dup_shingles": df["dup"].to_numpy(np.int64),
            "dup_span_frac": round6(df["dup"].to_numpy(np.float64)
                                    / df["sh"].to_numpy(np.float64))})

    marked = exchange(ds.map_batches(shingles, batch_format="pyarrow"),
                      blocks, mark_dups, "pyarrow")

    def repart(b: pa.Table) -> pa.Table:
        doc = b[id_col].to_numpy(zero_copy_only=False)
        return b.append_column("part", pa.array(part_of(doc, parts)))

    return exchange(marked.map_batches(repart, batch_format="pyarrow"),
                    blocks, fold_docs, "pyarrow") \
        .select_columns([id_col, "n_shingles", "n_dup_shingles",
                         "dup_span_frac"])


def decontaminate(ds, benchmark_ds, text_col: str = "text",
                  id_col: str = "doc_id", w: int = 8,
                  max_broadcast_bytes: int = 256 << 20):
    """→ Dataset (``id_col``, n_shingles, n_contaminated, contam_frac):
    benchmark decontamination — for every doc, the fraction of its
    w-token shingles that appear in ``benchmark_ds`` (the eval/test
    set). Docs scoring > 0 overlap the benchmark and should be dropped
    or audited before training. Docs with fewer than ``w`` tokens are
    omitted (no shingles to match).

    Shape: benchmark sets are small by definition (thousands of eval
    docs vs billions of training docs), so the benchmark's distinct
    shingle-hash set is reduced distributively (per-batch unique →
    driver distinct) and ``ray.put`` ONCE; the training corpus streams
    through a stateless map that probes the broadcast set via a
    per-worker cached sorted array. The byte guard fails loudly if the
    benchmark side is too big to broadcast — shuffle-join the shingles
    instead at that size (the dup_span_stats exchange shape)."""
    import ray

    from ..analysis.tokenizer import simple_tokenize
    from ..util import proc_cached

    def bench_shingles(b: pa.Table) -> pa.Table:
        hs = []
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            if len(toks) >= w:
                hs.append(np.unique(_shingle_hashes(toks, w)))
        h = np.unique(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
        return pa.table({"h": pa.array(h)})

    parts = [t["h"].to_numpy(zero_copy_only=False)
             for t in benchmark_ds.map_batches(
                 bench_shingles, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")]
    bench = np.unique(np.concatenate(parts)) if parts \
        else np.empty(0, np.uint64)
    if bench.nbytes > max_broadcast_bytes:
        raise ValueError(
            f"benchmark shingle set {bench.nbytes >> 20} MiB exceeds the "
            f"{max_broadcast_bytes >> 20} MiB broadcast guard — use the "
            "shuffle-join path (dup_span_stats shape) for a side this big")
    ref = ray.put(bench)

    def score(b: pa.Table) -> pa.Table:
        bset = proc_cached(("decontam", ref.hex()), lambda: ray.get(ref),
                           cap=1)
        ids, n_sh, n_hit = [], [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if len(toks) < w:
                continue
            hs = _shingle_hashes(toks, w)
            # sorted-array membership probe: O(s log B), no Python set
            idx = np.searchsorted(bset, hs)
            idx[idx == len(bset)] = 0
            hit = int((bset[idx] == hs).sum()) if len(bset) else 0
            ids.append(did)
            n_sh.append(len(hs))
            n_hit.append(hit)
        from .text import round6
        n_sh_a = np.asarray(n_sh, np.int64)
        n_hit_a = np.asarray(n_hit, np.int64)
        return pa.table({
            id_col: pa.array(np.asarray(ids, np.int64)),
            "n_shingles": pa.array(n_sh_a),
            "n_contaminated": pa.array(n_hit_a),
            "contam_frac": pa.array(round6(
                n_hit_a / np.where(n_sh_a == 0, 1, n_sh_a)))})

    return ds.map_batches(score, batch_format="pyarrow")


def remove_dup_spans(ds, text_col: str = "text", id_col: str = "doc_id",
                     w: int = 8, min_count: int = 2,
                     max_broadcast_bytes: int = 256 << 20,
                     num_parts: int | None = None):
    """→ Dataset (``id_col``, n_tokens, n_removed, clean_md5): EXACT
    substring dedup à la Lee et al. 2021 ("Deduplicating Training Data
    Makes Language Models Better"), shingle-approximated: every token
    covered by a w-token shingle whose exact text occurs ≥ ``min_count``
    times corpus-wide (within- AND cross-doc occurrences count) is cut;
    the surviving tokens re-join with single spaces. Docs shorter than
    ``w`` tokens carry no shingles and pass through untouched. The op
    emits the md5 of the cleaned text (the audit/join shape — re-emit
    the text itself in the write path by mirroring the second pass).

    Two passes over the corpus, dup-set broadcast in between:

    1. per-batch (hash, count) partials → one uint64-keyed exchange
       sums counts per shingle hash → hashes with total ≥ min_count
       stream back to the driver (the DUPLICATED subset only) and
       ``ray.put`` once, byte-guarded — on webtext the duplicated
       shingle set is orders of magnitude smaller than the shingle
       stream, but a boilerplate-heavy corpus can blow the guard, in
       which case mark spans with ``dup_span_stats``'s doc-keyed
       exchange and join marks back by doc id instead of broadcasting.
    2. a stateless map re-shingles each doc, sorted-probes the
       broadcast set, unions the covered [i, i+w) intervals with one
       cumulative-sum sweep and emits the cleaned text's digest.
    """
    import hashlib as _hl

    import ray

    from ..analysis.tokenizer import simple_tokenize
    from ..util import proc_cached

    parts, blocks = plan(estimate_rows(ds), _SHINGLE_DOCS_PER_PART,
                         num_parts)

    def partial(b: pa.Table) -> pa.Table:
        hs, cs = [], []
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            if len(toks) < w:
                continue
            h = _shingle_hashes(toks, w)
            uh, uc = np.unique(h, return_counts=True)
            hs.append(uh)
            cs.append(uc.astype(np.int64))
        h = np.concatenate(hs) if hs else np.empty(0, np.uint64)
        c = np.concatenate(cs) if cs else np.empty(0, np.int64)
        # fold batch-local repeats before the exchange
        uh, inv = np.unique(h, return_inverse=True)
        uc = np.zeros(uh.size, np.int64)
        np.add.at(uc, inv, c)
        return pa.table({
            "part": pa.array(part_of(uh, parts)),
            "h": pa.array(uh), "c": pa.array(uc)})

    def dup_only(g: pa.Table) -> pa.Table:
        h = g["h"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs, cs = h[order], c[order]
        bound = np.concatenate(([True], hs[1:] != hs[:-1]))
        first = np.flatnonzero(bound)
        tot = np.add.reduceat(cs, first)
        keep = tot >= min_count
        return pa.table({"h": pa.array(hs[first][keep])})

    gathered, nbytes = [], 0
    for b in exchange(ds.map_batches(partial, batch_format="pyarrow"),
                      blocks, dup_only, "pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        arr = b["h"].to_numpy(zero_copy_only=False)
        nbytes += arr.nbytes
        if nbytes > max_broadcast_bytes:
            raise ValueError(
                f"duplicated-shingle set exceeds the "
                f"{max_broadcast_bytes >> 20} MiB broadcast guard — mark "
                "spans via dup_span_stats' doc-keyed exchange and join "
                "marks back by doc id instead")
        gathered.append(arr)
    dup = np.sort(np.concatenate(gathered)) if gathered \
        else np.empty(0, np.uint64)
    ref = ray.put(dup)

    def clean(b: pa.Table) -> pa.Table:
        dset = proc_cached(("dupspans", ref.hex()), lambda: ray.get(ref),
                           cap=1)
        ids, n_tok, n_rm, md5s = [], [], [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            n = len(toks)
            if n >= w and dset.size:
                h = _shingle_hashes(toks, w)
                idx = np.searchsorted(dset, h)
                idx[idx == dset.size] = 0
                starts = np.flatnonzero(dset[idx] == h)
                if starts.size:
                    # union of [i, i+w) via a +1/-1 sweep
                    delta = np.zeros(n + 1, np.int64)
                    delta[starts] += 1
                    delta[np.minimum(starts + w, n)] -= 1
                    covered = np.cumsum(delta[:-1]) > 0
                    kept = [tk for tk, cv in zip(toks, covered) if not cv]
                else:
                    kept = toks
            else:
                kept = toks
            ids.append(did)
            n_tok.append(n)
            n_rm.append(n - len(kept))
            md5s.append(_hl.md5(" ".join(kept).encode()).hexdigest())
        return pa.table({
            id_col: pa.array(np.asarray(ids, np.int64)),
            "n_tokens": pa.array(np.asarray(n_tok, np.int64)),
            "n_removed": pa.array(np.asarray(n_rm, np.int64)),
            "clean_md5": pa.array(md5s, pa.string())})

    return ds.map_batches(clean, batch_format="pyarrow")
