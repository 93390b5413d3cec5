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
  the banding), banding over the distinct signatures, then a
  vectorized full-signature Jaccard *estimate* over every in-bucket
  pair and min-label components per partition; cross-partition
  components resolved on the driver while the edge set is small, by
  ``graph.connected_components`` (distributed star rounds) when it is
  corpus-sized. True n-gram verification is available via
  ``ngram_jaccard`` for callers holding the text.
- **SimHash**: 64-bit weighted fingerprints, per batch (md5 once per
  distinct token); near-dup = Hamming ≤ k via 4-band exact-match
  blocking (pigeonhole: ≤3 differing bits leave one 16-bit band
  intact). ``simhash_dedup`` runs on MinHash's LSH core
  (``_lsh_dedup``) with the 8-byte fingerprint as its signature and a
  SWAR popcount as its pair test.
- **Pair ops** (``simhash_pairs``, ``ngram_jaccard_pairs``,
  ``minhash_candidate_pairs``): a ``partitioning.plan`` exchange keyed
  by the blocking key, one segment all-pairs kernel
  (``_segment_pairs``) per part, and, where a pair can meet in several
  blocks, a second exchange keyed by id_a that counts its rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

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


def _shingle_hashes(tokens: list[str], n: int) -> np.ndarray:
    if len(tokens) < n:
        return np.array([_stable_u64(" ".join(tokens))] if tokens else [],
                        dtype=np.uint64)
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
#            minhash_candidate_pairs);
#   simhash  4 band rows per doc, by construction (simhash_dedup,
#            simhash_pairs);
#   ngrams   52.1 distinct 3-word shingles per doc (ngram_jaccard_pairs
#            at its default n=3).
_DIGEST_DOCS_PER_PART = ROWS_PER_PART             # 1 digest per doc
_LINE_DOCS_PER_PART = ROWS_PER_PART // 8          # 7.2 lines per doc
_SHINGLE_DOCS_PER_PART = ROWS_PER_PART // 48      # 47.1 shingles per doc
_BAND_DOCS_PER_PART = ROWS_PER_PART // 16         # 16 bands per doc
_SIMHASH_DOCS_PER_PART = ROWS_PER_PART // 4       # 4 bands per doc
_NGRAM_DOCS_PER_PART = ROWS_PER_PART // 53        # 52.1 shingles per doc


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


# ---------------------------------------------------------------- kernels

# _per_doc's gather size, in table rows (MinHasher's are num_perm uint64
# values wide): at 128 perms the affine pass's temporaries (512 rows,
# 512 KiB) and one gather (1,024 rows, 1 MiB) stay cache-sized; a
# 4,096-row gather ran its reduceat about 3x slower (1-vCPU VM,
# perfbench's 1,000-row batch).
_AFFINE_ROWS = 512
_GATHER_ROWS = 1024


def _shingle_strings(texts: list, k: int) -> tuple[list[str], np.ndarray]:
    """Every text's word k-shingles joined by spaces, text after text,
    and each text's shingle count. A text shorter than k tokens is one
    shingle of its joined tokens and a text with no tokens has none
    (``_shingle_hashes``' rule); at k = 1 the shingles are the tokens."""
    from ..analysis.tokenizer import simple_tokenize
    shingles: list[str] = []
    lens = []
    for t in texts:
        toks = simple_tokenize(t or "")
        if len(toks) >= k:
            sh = list(map(" ".join, zip(*(toks[i:] for i in range(k)))))
        else:
            sh = [" ".join(toks)] if toks else []
        shingles += sh
        lens.append(len(sh))
    return shingles, np.asarray(lens, dtype=np.int64)


def _interned_u64(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(codes, h): the ``pd.factorize`` codes of ``strings`` and the
    ``_stable_u64`` of each distinct one, so md5 runs once per distinct
    string of a batch."""
    codes, distinct = pd.factorize(np.array(strings, dtype=object))
    dg = b"".join([hashlib.md5(s.encode()).digest() for s in distinct])
    return codes, np.frombuffer(dg, ">u8")[::2].astype(np.uint64)


def _per_doc(ufunc, table: np.ndarray, codes: np.ndarray, lens: np.ndarray,
             out: np.ndarray, dtype=None) -> np.ndarray:
    """out[d] = ``ufunc`` folded over the rows ``table[codes[...]]`` of
    doc d, the docs' runs of ``codes`` laid end to end with lengths
    ``lens``; a doc with no rows keeps its ``out`` row. Each gather holds
    about _GATHER_ROWS rows in whole docs (a longer doc gets one of its
    own) and folds with one ``ufunc.reduceat`` at the doc starts, in
    ``dtype`` when given."""
    nz = np.flatnonzero(lens)
    starts = np.concatenate(([0], np.cumsum(lens[nz])))
    d = 0
    while d < nz.size:
        e = max(d + 1, int(np.searchsorted(
            starts, starts[d] + _GATHER_ROWS, side="right")) - 1)
        lo, hi = starts[d], starts[e]
        out[nz[d:e]] = ufunc.reduceat(table[codes[lo:hi]], starts[d:e] - lo,
                                      axis=0, dtype=dtype)
        d = e
    return out


def _fixed_binary(buf: np.ndarray, n: int, width: int) -> pa.Array:
    """n values of ``width`` bytes each over the C-contiguous ``buf``, as
    one ``pa.binary()`` column (int32 offsets, no per-row bytes
    objects); ``_sig_matrix`` reads it back."""
    if n * width >= 1 << 31:
        raise ValueError(f"{n} signatures overflow int32 offsets")
    offsets = np.arange(n + 1, dtype=np.int32) * np.int32(width)
    return pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offsets), pa.py_buffer(buf)])


_M55 = np.uint64(0x5555555555555555)
_M33 = np.uint64(0x3333333333333333)
_M0F = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """int64 count of the set bits of each uint64 in ``x``: SWAR sums
    over 2-, 4- and 8-bit fields, then one multiply adds the eight byte
    counts into the top byte (numpy 1.26 has no ``bitwise_count``)."""
    x = np.asarray(x, dtype=np.uint64)
    x = x - ((x >> np.uint64(1)) & _M55)
    x = (x & _M33) + ((x >> np.uint64(2)) & _M33)
    x = (x + (x >> np.uint64(4))) & _M0F
    with np.errstate(over="ignore"):
        return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """True at each row of the sorted key columns ``keys`` that differs
    from the row before in any key (a 2-D key compares whole rows), and
    at row 0."""
    first = np.ones(len(keys[0]), dtype=bool)
    if first.size > 1:
        diff = [k[1:] != k[:-1] for k in keys]
        first[1:] = np.logical_or.reduce(
            [d.any(axis=1) if d.ndim > 1 else d for d in diff])
    return first


def _segment_pairs(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j): the positions of every row pair i < j inside one segment
    of consecutive rows, ``first`` marking each segment's first row
    (``_run_starts``). Row j pairs with the ``local[j]`` rows before it
    in its segment, so j repeats local[j] times and i counts up from the
    segment start: cumulative-sum index arithmetic, no per-segment
    Python."""
    row = np.arange(first.size)
    local = row - np.maximum.accumulate(np.where(first, row, 0))
    j = np.repeat(row, local)
    return np.arange(j.size) - np.repeat(np.cumsum(local) - row, local), j


def _min_labels(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The smallest node of each of n nodes' connected component over
    the edges (a, b): labels propagate their minimum along every edge
    and jump to their label's label, a few numpy passes a round, until
    no label drops."""
    lab = np.arange(n)
    while True:
        new = lab.copy()
        m = np.minimum(lab[a], lab[b])
        np.minimum.at(new, a, m)
        np.minimum.at(new, b, m)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _components(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """(node, component minimum) of every node of the edge list (a, b),
    nodes ascending."""
    nodes, codes = np.unique(np.concatenate((a, b)), return_inverse=True)
    return nodes, nodes[_min_labels(codes[:a.size], codes[a.size:],
                                    nodes.size)]


# ---------------------------------------------------------------- minhash

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
        distinct strings (``_interned_u64``), and only those are
        md5-hashed and run through ``values``, into a doc-major
        (distinct, num_perm) value table. ``_per_doc`` folds each doc's
        value rows to its minima straight into the (n, num_perm)
        signature buffer that backs the column."""
        shingles, lens = _shingle_strings(
            batch[self.text_col].to_pylist(), self.shingle)
        n = lens.size
        out = np.full((n, self.num_perm), np.iinfo(np.uint64).max, np.uint64)
        if shingles:
            codes, h = _interned_u64(shingles)
            _per_doc(np.minimum, self.values(h), codes, lens, out)
        return pa.table({
            self.id_col: batch[self.id_col],
            "minhash": _fixed_binary(out, n, self.num_perm * 8),
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
    signatures (``minhash``, ``simhash`` with num_perm = 1, or
    ``band_bytes`` with num_perm = rows per band): a view of the value
    buffer from the array offset on, no per-row bytes objects. Chunks
    are combined first (one copy)."""
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
    DISTINCT signatures only → bucket-keyed exchange → full-signature
    Jaccard estimate over every in-bucket pair, components per partition
    → min-label canonicalization (on the driver when the edge set is
    small, ``graph.connected_components`` when it is corpus-sized).
    The stages are ``_lsh_dedup``'s, which ``simhash_dedup`` shares.

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
    return _lsh_dedup(
        _signatures(ds, num_perm, shingle, text_col, id_col), "minhash",
        num_perm,
        lambda sig: _band_fold(sig.reshape(len(sig), bands, rows_per_band)),
        lambda a, b: (a == b).mean(axis=1) >= jaccard_threshold,
        id_col, *plan(estimate_rows(ds), _BAND_DOCS_PER_PART), attach_route)


def _lsh_dedup(sig_ds, sig_col: str, width: int, band_keys, is_dup,
               id_col: str, parts: int, blocks: int,
               attach_route: str = "auto"):
    """The banded near-dup core of ``minhash_lsh_dedup`` and
    ``simhash_dedup``, set by data alone: ``sig_ds`` carries (id_col,
    sig_col), each signature ``width`` uint64 values in one binary
    value; ``band_keys`` maps an (n, width) uint64 signature matrix to
    its (n, bands) uint64 bucket keys; ``is_dup(a, b)`` says which rows
    of two (m, width) matrices are near-dups. → Dataset (id_col,
    canonical_id), as ``minhash_lsh_dedup`` documents."""
    import ray

    from .join import _gather_small
    if attach_route not in ("auto", "broadcast", "cogroup"):
        raise ValueError(f"attach_route={attach_route!r}")

    def add_fp(b: pa.Table) -> pa.Table:
        fp = _sig_fold(_sig_matrix(b[sig_col], width))
        return pa.table({
            "part": pa.array(part_of(fp, parts)),
            "sigfp": pa.array(fp),
            id_col: b[id_col],
            sig_col: b[sig_col]})

    def collapse_fp(g: pa.Table) -> pa.Table:
        """Per hash partition of sigfp: one rep (min id) per distinct
        signature. Emits rep rows (is_rep=1, signature attached) for
        every distinct signature plus member→rep edges (is_rep=0) for
        duplicated ones — same lexsort/segment fold as exact_dedup."""
        ids = g[id_col].to_pandas().to_numpy()
        fps = g["sigfp"].to_numpy()
        ord_id = np.argsort(ids, kind="stable")
        order = ord_id[np.argsort(fps[ord_id], kind="stable")]
        bound = _run_starts(fps[order])
        run_id = np.cumsum(bound) - 1
        first = order[np.flatnonzero(bound)]       # rep = min id per fp
        rep_of = first[run_id]
        members = order[ids[order] != ids[rep_of]]
        rep_for_member = first[run_id[ids[order] != ids[rep_of]]]
        return pa.table({
            id_col: g[id_col].take(np.concatenate((first, members))),
            "canonical_id": g[id_col].take(
                np.concatenate((first, rep_for_member))),
            sig_col: pa.chunked_array(
                g[sig_col].take(first).chunks
                + [pa.array([b""] * len(members), pa.binary())],
                pa.binary()),
            "is_rep": pa.array(np.concatenate((
                np.ones(len(first), np.int8),
                np.zeros(len(members), np.int8))))})

    collapsed = exchange(sig_ds.map_batches(add_fp, batch_format="pyarrow"),
                         blocks, collapse_fp, "pyarrow").materialize()
    sch = collapsed.schema()
    id_type = sch.base_schema.field(id_col).type if sch is not None else None
    # Arrow blocks: member_edges is unioned with partition_pairs' Arrow
    # edges, and a pandas/Arrow block mix makes Ray warn of a schema change
    member_edges = collapsed.map_batches(
        lambda b: b.filter(pc.equal(b["is_rep"], 0))
        .select([id_col, "canonical_id"]), batch_format="pyarrow")
    reps = collapsed.map_batches(
        lambda b: b.filter(pc.equal(b["is_rep"], 1))
        .select([id_col, sig_col]), batch_format="pyarrow")

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
    # same member sets, same verification — bit-identical output; only
    # the exchange volume changed: O(candidate sigs) instead of
    # O(corpus × bands) signature bytes.

    def explode_light(b: pa.Table) -> pa.Table:
        hv = band_keys(_sig_matrix(b[sig_col], width))
        idx = np.repeat(np.arange(b.num_rows), hv.shape[1])
        hv = hv.reshape(-1)
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
        keep = _run_starts(sb, sid)
        sb, sid = sb[keep], sid[keep]
        starts = np.flatnonzero(_run_starts(sb))
        lens = np.diff(np.concatenate((starts, [len(sb)])))
        big = np.repeat(lens >= 2, lens)
        if not big.any():
            return empty
        return pa.table({"bucket": pa.array(sb[big]),
                         id_col: pa.array(sid[big],
                                          g.schema.field(id_col).type)})

    requests = exchange(reps.map_batches(explode_light, batch_format="pyarrow"),
                        blocks, nontrivial_members, "pyarrow").materialize()

    def partition_pairs(g: pa.Table) -> pa.Table:
        """One call per HASH PARTITION of the buckets, not per bucket:
        rows sort by (bucket, id), a repeated (bucket, id) drops, every
        bucket's row pairs (``_segment_pairs``) go through ``is_dup``
        in chunks of at most 2^22 signature values a side, and the
        partition's passing pairs fold to (member, component-min) rows
        (``_components``). No per-bucket or per-pair Python; global
        transitivity is _compress_canonical's job."""
        buckets = g["bucket"].to_numpy()
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, buckets))
        order = order[_run_starts(buckets[order], ids[order])]
        i, j = _segment_pairs(_run_starts(buckets[order]))
        i, j = order[i], order[j]
        sig = _sig_matrix(g[sig_col], width)
        step = max(1, (1 << 22) // width)
        hit = np.concatenate([np.zeros(0, bool)] + [
            is_dup(sig[i[lo:lo + step]], sig[j[lo:lo + step]])
            for lo in range(0, i.size, step)])
        members, canon = _components(ids[i[hit]], ids[j[hit]])
        id_type = g.schema.field(id_col).type
        return pa.table({id_col: pa.array(members, id_type),
                         "canonical_id": pa.array(canon, id_type)})

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
        return _compress_canonical(member_edges, id_col, id_type=id_type)

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
                sig_col: b[sig_col].take(rows).cast(pa.binary())})

        rep_pairs = exchange(
            reps.map_batches(attach_bcast, batch_format="pyarrow"),
            blocks, partition_pairs, "pyarrow")
        return _compress_canonical(member_edges.union(rep_pairs), id_col,
                                   id_type=id_type)

    # id-keyed co-group: tagged union of sig rows and request rows,
    # partitioned by hash(id) — each partition merges its complete id
    # slice and emits (bucket-part, bucket, id, signature) for the
    # verify stage (the shuffle_hash_join pattern, inlined because the
    # output needs a second partition key)
    def tag_sig(b: pa.Table) -> pa.Table:
        return pa.table({
            "part": pa.array(part_of(
                b[id_col].to_numpy(zero_copy_only=False), parts)),
            id_col: b[id_col],
            "bucket": pa.array(np.zeros(b.num_rows, np.uint64)),
            sig_col: b[sig_col],
            "side": pa.array(np.zeros(b.num_rows, np.int8))})

    def tag_req(b: pa.Table) -> pa.Table:
        return pa.table({
            "part": pa.array(part_of(
                b[id_col].to_numpy(zero_copy_only=False), parts)),
            id_col: b[id_col],
            "bucket": b["bucket"],
            sig_col: pa.array([b""] * b.num_rows, pa.binary()),
            "side": pa.array(np.ones(b.num_rows, np.int8))})

    def attach_sigs(g: pa.Table) -> pa.Table:
        # each request row takes the signature of the sig row with its
        # id: a sorted probe of the part's sig ids
        side = g["side"].to_numpy()
        ids = g[id_col].to_numpy()
        req = np.flatnonzero(side == 1)
        sig_rows = np.flatnonzero(side == 0)
        sig_rows = sig_rows[np.argsort(ids[sig_rows], kind="stable")]
        src = sig_rows[np.searchsorted(ids[sig_rows], ids[req])]
        buckets = g["bucket"].to_numpy()[req]
        return pa.table({
            "part": pa.array(part_of(buckets, parts)),
            "bucket": pa.array(buckets),
            id_col: g[id_col].take(req),
            sig_col: g[sig_col].take(src).cast(pa.binary())})

    banded = exchange(
        reps.map_batches(tag_sig, batch_format="pyarrow")
        .union(requests.map_batches(tag_req, batch_format="pyarrow")),
        blocks, attach_sigs, "pyarrow")
    rep_pairs = exchange(banded, blocks, partition_pairs, "pyarrow")
    return _compress_canonical(member_edges.union(rep_pairs), id_col,
                               id_type=id_type)


def _compress_canonical(pairs, id_col: str,
                        driver_edge_cap: int = 2_000_000,
                        id_type: pa.DataType | None = None):
    """Connected components over the raw bucket EDGES, not min-reduced
    labels.

    A min-label aggregate keeps only each doc's smallest canonical and
    can split transitive components (bucket1 {A,C} → C→A; bucket2 {B,C}
    → C→B; Min leaves C→A and drops the B–C link, so B misses A). So:
    per-block distinct-edge reduce (map_batches drop_duplicates — a doc
    repeated across buckets collapses inside each block, no groupby
    job), then:

    - edge count ≤ ``driver_edge_cap``: the edges gather to the driver
      and ``_components`` labels each member with its component
      minimum. The edge set holds ONLY docs in some duplicate group, so
      on lightly-duplicated corpora this is tiny and one round-trip
      beats any distributed scheme.
    - above the cap (duplicate-HEAVY corpora, where dup-group members
      are a constant fraction of the corpus and no driver can hold
      them): ``graph.connected_components`` — alternating large/small
      star over the distributed edge set, O(log n) shuffle rounds,
      identical output contract.

    ``id_type`` types the columns of an empty result (no edges)."""
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
        # one typed Arrow block: an empty pandas frame has no dtypes,
        # and Ray drops its columns
        return rd.from_arrow(pa.table({id_col: pa.array([], id_type),
                                       "canonical_id": pa.array([], id_type)}))
    edges = pd.concat(parts)
    members, canon = _components(edges[id_col].to_numpy(),
                                 edges["canonical_id"].to_numpy())
    id_type = edges[id_col].dtype      # ids keep their input type
    return rd.from_pandas(pd.DataFrame({
        id_col: pd.Series(members, dtype=id_type),
        "canonical_id": pd.Series(canon, dtype=id_type)}))


def _pair_runs(g: pa.Table) -> tuple[pa.Table, np.ndarray]:
    """The first row of each distinct (id_a, id_b) in a part of a
    pair-keyed exchange, and how many rows each pair has."""
    a = g["id_a"].to_numpy()
    b = g["id_b"].to_numpy()
    order = np.lexsort((b, a))
    starts = np.flatnonzero(_run_starts(a[order], b[order]))
    return (g.take(order[starts]),
            np.diff(np.append(starts, order.size)).astype(np.int64))


def minhash_candidate_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                            num_perm: int = 128, bands: int = 16,
                            shingle: int = 3):
    """LSH candidate pairs only — the banding stage of
    ``minhash_lsh_dedup`` without the signature-Jaccard filter or
    union-find, so the output (id_a, id_b, n_bands = number of colliding
    bands) is exactly reproducible in SQL (min-over-shingles universal
    hashing is pure modular arithmetic).

    Banding reuses the vectorized uint64 ``_band_fold`` of
    ``minhash_lsh_dedup``. Unlike the dedup sibling, emitted pairs
    here are NOT similarity-verified downstream, so each band's raw
    bytes travel with its row and bucket members are grouped by EXACT
    band-value equality inside the partition — a 64-bit fold collision
    merely merges two buckets, never emits a wrong pair, keeping the
    output identical to true band equality (what the SQL oracle joins
    on). A second exchange, keyed by id_a, counts each pair's rows.

    → Dataset (id_a, id_b, n_bands), id_a < id_b."""
    rows_per_band = _check_bands(num_perm, bands)
    parts, blocks = plan(estimate_rows(ds), _BAND_DOCS_PER_PART)

    def explode_bands(b: pa.Table) -> pa.Table:
        n = b.num_rows
        sig = _sig_matrix(b["minhash"], num_perm)
        hv = _band_fold(sig.reshape(n, bands, rows_per_band)).reshape(-1)
        # all of a doc's band slices are contiguous in the signature
        # rows, so the per-(doc, band) byte windows are one offsets
        # array — a zero-copy Arrow binary column
        idx = np.repeat(np.arange(n), bands)
        return pa.table({
            "part": pa.array(part_of(hv, parts)),
            "bucket": pa.array(hv),
            "band_bytes": _fixed_binary(sig, n * bands, rows_per_band * 8),
            id_col: b[id_col].take(pa.array(idx))})

    def partition_pairs(g: pa.Table) -> pa.Table:
        """One call per hash partition. Rows lexsort by (bucket, exact
        band words, id) so equal-band groups are contiguous segments —
        the fold key only pre-groups; equality is on the raw band words,
        so a fold collision still never merges two true buckets — a
        repeated (group, id) row drops so an id never pairs with
        itself, and ``_segment_pairs`` emits every segment's pairs (one
        row per colliding band, keyed by id_a for the count)."""
        buckets = g["bucket"].to_numpy()
        mat = _sig_matrix(g["band_bytes"], rows_per_band)
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, *mat.T[::-1], buckets))
        order = order[_run_starts(buckets[order], mat[order], ids[order])]
        i, j = _segment_pairs(_run_starts(buckets[order], mat[order]))
        i, j = order[i], order[j]
        return pa.table({"part": pa.array(part_of(ids[i], parts)),
                         "id_a": g[id_col].take(i),
                         "id_b": g[id_col].take(j)})

    def count_bands(g: pa.Table) -> pa.Table:
        first, n_bands = _pair_runs(g)
        return pa.table({"id_a": first["id_a"], "id_b": first["id_b"],
                         "n_bands": pa.array(n_bands)})

    pairs = exchange(_signatures(ds, num_perm, shingle, text_col, id_col)
                     .map_batches(explode_bands, batch_format="pyarrow"),
                     blocks, partition_pairs, "pyarrow")
    return exchange(pairs, blocks, count_bands, "pyarrow")


# ---------------------------------------------------------------- simhash

_SIMHASH_SHIFTS = np.arange(4, dtype=np.uint64) * np.uint64(16)
_SIMHASH_BAND_IDS = np.arange(4, dtype=np.uint64) << np.uint64(16)
_U16 = np.uint64(0xFFFF)


def _simhash(texts: list) -> np.ndarray:
    """uint64 64-bit weighted SimHash of each text: bit b is set when
    more of the text's tokens (repeats counted) have bit b set in their
    ``_stable_u64`` than not; a text with no tokens gets 0.

    Per batch, as ``MinHasher``: md5 runs once per distinct token of the
    batch, each distinct token's 64 bits unpack into one row of 0/1
    bytes, and ``_per_doc`` sums each doc's rows into its 64 bit counts
    (one ``np.add.reduceat`` per gather)."""
    toks, lens = _shingle_strings(texts, 1)
    ones = np.zeros((lens.size, 64), np.int32)
    if toks:
        codes, h = _interned_u64(toks)
        bits = np.unpackbits(h.astype("<u8").view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")
        _per_doc(np.add, bits, codes, lens, ones, dtype=np.int32)
    return np.packbits(2 * ones > lens[:, None], axis=1, bitorder="little") \
        .view("<u8")[:, 0].astype(np.uint64)


def _simhash_bands(sig: np.ndarray) -> np.ndarray:
    """(n, 1) uint64 fingerprints → (n, 4) exact bucket keys: band b's
    16 bits with b above them."""
    return ((sig >> _SIMHASH_SHIFTS) & _U16) | _SIMHASH_BAND_IDS


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3):
    """→ Dataset (doc_id, canonical_id): near-dups at Hamming ≤ k over
    64-bit simhash, blocked on 4 16-bit bands (pigeonhole-complete for
    k ≤ 3). Runs on ``minhash_lsh_dedup``'s core (``_lsh_dedup``): the
    fingerprint is an 8-byte signature, the bands are exact keys and the
    pair test is a SWAR popcount of the XOR."""
    def sig_fn(b: pa.Table) -> pa.Table:
        fp = _simhash(b[text_col].to_pylist())
        return pa.table({id_col: b[id_col],
                         "simhash": _fixed_binary(fp, fp.size, 8)})

    return _lsh_dedup(
        ds.map_batches(sig_fn, batch_format="pyarrow", batch_size=1024),
        "simhash", 1, _simhash_bands,
        lambda a, b: _popcount64(a[:, 0] ^ b[:, 0]) <= max_hamming,
        id_col, *plan(estimate_rows(ds), _SIMHASH_DOCS_PER_PART))


def simhash_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3):
    """Distinct near-dup PAIRS at Hamming ≤ k over 64-bit simhash —
    the same 4×16-bit-band pigeonhole blocking as ``simhash_dedup`` but
    stopping at the pair level (no union-find), which keeps the whole
    computation SQL-expressible for oracle checking.

    One bucket-keyed exchange: each part's bucket pairs
    (``_segment_pairs``) keep Hamming ≤ k, and a pair is emitted only
    from the lowest band its two fingerprints share, so no pair repeats
    and no second exchange is needed.

    → Dataset (id_a, id_b, hamming), id_a < id_b, one row per pair."""
    parts, blocks = plan(estimate_rows(ds), _SIMHASH_DOCS_PER_PART)

    def explode_bands(b: pa.Table) -> pa.Table:
        f = _simhash(b[text_col].to_pylist())
        keys = _simhash_bands(f[:, None]).reshape(-1)
        idx = np.repeat(np.arange(b.num_rows), _SIMHASH_SHIFTS.size)
        return pa.table({"part": pa.array(part_of(keys, parts)),
                         "bucket": pa.array(keys),
                         id_col: b[id_col].take(pa.array(idx)),
                         "simhash": pa.array(f[idx])})

    def band_pairs(g: pa.Table) -> pa.Table:
        keys = g["bucket"].to_numpy()
        ids = g[id_col].to_numpy()
        f = g["simhash"].to_numpy()
        order = np.lexsort((ids, keys))
        i, j = _segment_pairs(_run_starts(keys[order]))
        i, j = order[i], order[j]
        x = f[i] ^ f[j]
        ham = _popcount64(x)
        shared = ((x[:, None] >> _SIMHASH_SHIFTS) & _U16) == 0
        band = (keys[i] >> np.uint64(16)).astype(np.int64)
        keep = (ham <= max_hamming) & (np.argmax(shared, axis=1) == band)
        return pa.table({"id_a": g[id_col].take(i[keep]),
                         "id_b": g[id_col].take(j[keep]),
                         "hamming": pa.array(ham[keep])})

    return exchange(ds.map_batches(explode_bands, batch_format="pyarrow"),
                    blocks, band_pairs, "pyarrow")


def ngram_jaccard_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                        n: int = 3, threshold: float = 0.5,
                        max_shingle_df: int | None = 256):
    """EXACT n-gram Jaccard near-dup pairs via the inverted-shingle
    pattern (no MinHash approximation, no all-pairs scan):

    distinct (shingle_hash, doc_id, set_size) rows → shingle-keyed
    exchange → every pair of docs sharing a shingle (``_segment_pairs``)
    → id_a-keyed exchange, count = |A∩B| → jaccard = c/(|A|+|B|−c) ≥
    threshold.

    The only shuffle keys are the shingle hash and id_a; per-doc set
    sizes travel with the rows so no join is needed.

    **Head-shingle cap** (the 100 TB guard — ON by default, r4): a
    shingle shared by m docs emits m² pair rows, so boilerplate
    shingles (navbars, footers, license headers) blow the pair stage
    up quadratically. A cheap pre-pass counts per-shingle df in one
    exchange and broadcasts the tiny heavy-hitter set (shingles with
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

    parts, blocks = plan(estimate_rows(ds), _NGRAM_DOCS_PER_PART)

    def shingle_rows(b: pa.Table, hot_ref=None) -> pa.Table:
        sh, lens = _shingle_strings(b[text_col].to_pylist(), n)
        doc = np.repeat(np.arange(b.num_rows), lens)
        codes, hs = _interned_u64(sh)
        h = hs[codes]
        order = np.lexsort((h, doc))
        keep = order[_run_starts(doc[order], h[order])]
        doc, h = doc[keep], h[keep]
        hot = ray.get(hot_ref) if hot_ref is not None else None
        if hot is not None and hot.size:
            # hot is a sorted uint64 array of heavy-hitter hashes
            cold = hot[np.minimum(np.searchsorted(hot, h), hot.size - 1)] != h
            doc, h = doc[cold], h[cold]
        return pa.table({
            "part": pa.array(part_of(h, parts)),
            "h": pa.array(h, pa.uint64()),
            id_col: b[id_col].take(pa.array(doc, pa.int64())),
            "sz": pa.array(np.bincount(doc, minlength=b.num_rows)[doc]
                           .astype(np.int64))})

    hot_ref = None
    if max_shingle_df is not None:
        # pre-pass: per-shingle df → heavy hitters only cross to the
        # driver (df > cap ⇒ at most n_shingle_rows/cap of them)
        def hot_only(g: pa.Table) -> pa.Table:
            h = np.sort(g["h"].to_numpy())
            starts = np.flatnonzero(_run_starts(h))
            df = np.diff(np.append(starts, h.size))
            return pa.table({"h": pa.array(h[starts][df > max_shingle_df],
                                           pa.uint64())})

        hot = [t["h"].to_numpy() for t in exchange(
            ds.map_batches(shingle_rows, batch_format="pyarrow"), blocks,
            hot_only, "pyarrow").iter_batches(batch_size=None,
                                              batch_format="pyarrow")]
        hot_ref = ray.put(np.sort(np.concatenate(hot)) if hot
                          else np.empty(0, np.uint64))

    def shingle_pairs(g: pa.Table) -> pa.Table:
        """Every pair of a part's docs that share a shingle, once per
        shared shingle, keyed by id_a for the count."""
        h = g["h"].to_numpy()
        ids = g[id_col].to_numpy()
        sz = g["sz"].to_numpy()
        order = np.lexsort((ids, h))
        i, j = _segment_pairs(_run_starts(h[order]))
        i, j = order[i], order[j]
        return pa.table({"part": pa.array(part_of(ids[i], parts)),
                         "id_a": g[id_col].take(i),
                         "id_b": g[id_col].take(j),
                         "sz_a": pa.array(sz[i]), "sz_b": pa.array(sz[j])})

    def jaccard(g: pa.Table) -> pa.Table:
        first, c = _pair_runs(g)
        c = c.astype(np.float64)
        j = c / (first["sz_a"].to_numpy() + first["sz_b"].to_numpy() - c)
        keep = pa.array(j >= threshold)
        return pa.table({"id_a": first["id_a"].filter(keep),
                         "id_b": first["id_b"].filter(keep),
                         "jaccard": pa.array(j[j >= threshold], pa.float64())})

    pairs = exchange(ds.map_batches(shingle_rows, batch_format="pyarrow",
                                    fn_kwargs={"hot_ref": hot_ref}),
                     blocks, shingle_pairs, "pyarrow")
    return exchange(pairs, blocks, jaccard, "pyarrow")


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
