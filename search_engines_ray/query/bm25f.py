"""BM25F — weighted multi-field BM25 with a SINGLE saturation (Zaragoza
& Robertson, "Microsoft Cambridge at TREC-13", 2004; Robertson, Zaragoza
& Taylor, CIKM 2004).

Unlike the reference's per-field #SUM (one BM25 score per field, summed
— ``bm25_multifield_top10``), BM25F normalizes each field's tf by its
own length prior FIRST and saturates the pooled pseudo-frequency ONCE:

    tf~(t,d) = Σ_f  w_f · tf(t,d,f) / B_f(d)
    B_f(d)   = (1 − b_f) + b_f · len_f(d) / avglen_f
    score(d) = Σ_t  idf(t) · tf~ / (k1 + tf~)

idf uses the UNION document frequency (docs where t occurs in ANY
scored field) with the engine's floored BM25 idf (``kernels.bm25_idf``,
QrySopScore.java:90-120 parity). ``B_f`` and the saturation are
``kernels.bm25_prior`` and ``kernels.bm25f_saturate``, shared with the
distributed kernel.

Driver-side like QueryEngine: postings are bucket-pruned batched reads
per field, doclens come from the reader's forward-shard cache
(``reader.doclens_for``) — no O(n_docs) driver allocation. At cluster
scale the same factorization runs per salt exactly like
``distributed.bm25_batch_search``; the per-doc math is embarrassingly
per-candidate once each field's (tf, doclen) columns are local.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..index.reader import IndexReader
from .kernels import bm25_idf, bm25_prior, bm25f_saturate
from .trec import drop_deleted, empty_results, rank_results_candidates


def bm25f_search(reader: IndexReader, terms: list[str],
                 weights: dict[str, float],
                 field_b: dict[str, float] | float = 0.75,
                 k1: float = 1.2, k: int = 100) -> pa.Table:
    """→ Arrow (external_id, score, rank), reference ordering (score
    desc, externalId asc). ``weights`` maps field → w_f and fixes the
    scored field set; ``field_b`` is per-field b_f (or one float for
    all fields)."""
    fields = sorted(weights)
    if not isinstance(field_b, dict):
        field_b = {f: float(field_b) for f in fields}
    got = {f: reader.postings_many(list(terms), f, positions=False)
           for f in fields}
    ids_list = [p.docids for per in got.values()
                for p in per.values() if p is not None]
    if not ids_list:
        return empty_results()
    all_ids = np.unique(np.concatenate(ids_list))
    dlens = reader.doclens_for(all_ids, fields)
    B = {f: bm25_prior(dlens[f].astype(np.float64), field_b[f],
                       reader.avg_len(f))
         for f in fields}
    n = all_ids.size
    score = np.zeros(n, dtype=np.float64)
    N = float(reader.n_docs)
    for t in terms:
        tft = np.zeros(n, dtype=np.float64)
        seen = np.zeros(n, dtype=bool)
        for f in fields:
            p = got[f].get(t)
            if p is None:
                continue
            pos = np.searchsorted(all_ids, p.docids)
            tft[pos] += weights[f] * p.tfs.astype(np.float64) / B[f][pos]
            seen[pos] = True
        df = float(seen.sum())
        if df == 0.0:
            continue
        score += bm25f_saturate(bm25_idf(N, df), tft, k1)
    docids, score = drop_deleted(reader.deleted_docids(), all_ids, score)
    return rank_results_candidates(docids, score,
                                   reader.external_ids_for, k)
