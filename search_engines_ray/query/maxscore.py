"""MaxScore-pruned BM25 bag-of-words scoring over block-max run metadata.

The index layout stores per-run block-max metadata (``min_docid``,
``max_tf`` — build.py step 5): a salt run is a docid-range block, so a
run's BM25 contribution is upper-bounded by ``idf · tfw(max_tf)`` (tfw is
increasing in tf and decreasing in doclen, and doclen ≥ tf, so the bound
is ``tfw(tf=max_tf, dl=max_tf)``). This module is the scorer that
exploits it: a term-at-a-time MaxScore variant (Turtle & Flood 1995;
block-max skipping per Ding & Suel 2011's BMW idea, at salt-run
granularity) that

1. fetches run *metadata only* (no posting blobs) and orders terms by
   upper bound, descending;
2. **union phase** — accumulates full posting lists while a brand-new
   doc could still reach the current top-k threshold θ (suffix upper
   bound ≥ θ);
3. **probe phase** — once no new doc can qualify, drops candidates whose
   accumulated score + remaining upper bound is strictly below θ, and
   for each remaining term decodes ONLY the salt runs whose docid range
   contains a surviving candidate (``IndexReader.read_runs``), probing
   by binary search.

All drops use strict ``<`` against a θ that is a lower bound of the
final kth score, so the result is EXACTLY the unpruned top-k, including
the reference tie-break (score desc, externalId asc —
``ScoreList.java:87-126``). Equivalent semantics to the reference's
``#SUM`` of BM25 ``#SCORE`` leaves (``QrySopSum.java:19-53``,
``QrySopScore.java:90-120``) — the DAAT loop replaced by vectorized TAAT
with pruning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..analysis.tokenizer import analyzer_for_mode
from ..index.reader import IndexReader
from .kernels import bm25, bm25_idf, bm25_tfw
from .models import BM25Model
from .trec import drop_deleted, empty_results, rank_results_candidates


def _tfw_ub(max_tf: float, k1: float, b: float, avglen: float) -> float:
    """max over (tf ≤ max_tf, dl ≥ tf) of tf/(tf + k1((1−b) + b·dl/avg)):
    the tf-weight at tf = dl = max_tf."""
    m = float(max_tf)
    if m <= 0:
        return 0.0
    return bm25_tfw(m, m, k1, b, max(avglen, 1e-9))


def bm25_maxscore_search(reader: IndexReader, query: str, k: int = 100,
                         field: str = "body", model: BM25Model | None = None,
                         stats_out: dict | None = None) -> pa.Table:
    """BM25 #SUM top-k with MaxScore pruning → (external_id, score, rank),
    rank-identical to ``QueryEngine.search`` under ``BM25Model``.

    ``stats_out``, when given, receives pruning counters
    (runs_total/runs_decoded/terms_probed). Tombstoned docs
    (``merge.delete_docs``) never become candidates, so they take no
    top-k slot and never raise θ; corpus statistics stay as-built."""
    model = model or BM25Model()
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    toks: list[str] = []
    for tok in query.split():
        toks.extend(an.analyze_query_token(tok))
    mult = {t: toks.count(t) for t in set(toks)}
    if not mult:
        return empty_results()

    # the terms' runs from the lexicon, each term's in docid order
    meta = reader.runs(list(mult), [field])
    if not len(meta):
        return empty_results()
    meta = meta.take(np.lexsort((meta.min_docid, meta.term)))
    m_term, m_df, m_min, m_maxtf = (meta.term, meta.df, meta.min_docid,
                                    meta.max_tf)

    N = reader.n_docs
    avglen = reader.avg_len(field)
    k1, b = model.k1, model.b
    dels = reader.deleted_docids()

    # per-term global df → idf (floored, QrySopScore.java:98), term ub
    terms: list[str] = []
    idf_of: dict[str, float] = {}
    ub_of: dict[str, float] = {}
    runs_of: dict[str, list[int]] = {}   # row indices into meta, docid order
    for i in range(m_term.size):
        runs_of.setdefault(m_term[i], []).append(i)
    for t, rows in runs_of.items():
        idf = bm25_idf(N, int(m_df[rows].sum()))
        idf_of[t] = idf
        ub_of[t] = mult[t] * idf * _tfw_ub(m_maxtf[rows].max(), k1, b, avglen)
        terms.append(t)
    # ub descending; deterministic tie-break by term
    terms.sort(key=lambda t: (-ub_of[t], t))
    suffix = np.concatenate((np.cumsum([ub_of[t] for t in terms][::-1])[::-1],
                             [0.0]))

    runs_total = int(m_term.size)
    runs_decoded = 0
    terms_probed = 0

    cand_doc = np.empty(0, dtype=np.int64)
    cand_sc = np.empty(0, dtype=np.float64)

    def theta() -> float:
        if cand_sc.size < k:
            return 0.0
        return float(np.partition(cand_sc, -k)[-k])

    def fetch(rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """(docids, tfs) of the selected runs of one term, concatenated."""
        parts = reader.read_runs(meta.take(rows))
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    def leaf_scores(tfs: np.ndarray, docids: np.ndarray, t: str) -> np.ndarray:
        # candidate-set lookup (one pruned scan per decoded term), not
        # the dense O(n_docs) doclens array — VERDICT r2 item 1
        dl = reader.doclens_for(docids, [field])[field].astype(np.float64)
        return bm25(idf_of[t], tfs.astype(np.float64), dl, k1, b,
                    avglen) * mult[t]

    i = 0
    # ---- union phase: new docs can still qualify ----
    while i < len(terms):
        th = theta()
        if cand_doc.size >= k and suffix[i] < th:
            break
        t = terms[i]
        runs_decoded += len(runs_of[t])
        i += 1
        docids, tfs = drop_deleted(dels, *fetch(runs_of[t]))
        sc = leaf_scores(tfs, docids, t)
        all_doc = np.concatenate((cand_doc, docids))
        all_sc = np.concatenate((cand_sc, sc))
        cand_doc, inv = np.unique(all_doc, return_inverse=True)
        cand_sc = np.zeros(cand_doc.size, dtype=np.float64)
        np.add.at(cand_sc, inv, all_sc)

    # ---- probe phase: only existing candidates can be in the top-k ----
    while i < len(terms):
        t = terms[i]
        terms_probed += 1
        th = theta()
        keep = cand_sc + suffix[i] >= th        # strict-< drop ⇒ exact
        cand_doc = cand_doc[keep]
        cand_sc = cand_sc[keep]
        rows = runs_of[t]
        # run r covers docids [min_docid_r, min_docid_{r+1}) within term t
        lo_bounds = m_min[rows]
        hi_bounds = np.append(lo_bounds[1:], np.iinfo(np.int64).max)
        need = [r for j, r in enumerate(rows)
                if np.searchsorted(cand_doc, lo_bounds[j]) <
                   np.searchsorted(cand_doc, hi_bounds[j])]
        i += 1
        if not need:
            continue
        p_doc, p_tf = fetch(need)
        runs_decoded += len(need)
        pos = np.searchsorted(p_doc, cand_doc)
        pos_c = np.clip(pos, 0, p_doc.size - 1)
        hit = p_doc[pos_c] == cand_doc
        if hit.any():
            sc = leaf_scores(p_tf[pos_c[hit]], cand_doc[hit], t)
            cand_sc[hit] += sc

    if stats_out is not None:
        stats_out.update(runs_total=runs_total, runs_decoded=runs_decoded,
                         terms_probed=terms_probed, candidates=cand_doc.size)
    # final exact cut (drops below-θ stragglers kept conservatively);
    # BM25 scores are >= 0, so its score filter removes nothing
    return rank_results_candidates(cand_doc, cand_sc,
                                   reader.external_ids_for, k)
