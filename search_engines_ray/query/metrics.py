"""Ranking evaluation metrics — replaces the reference's external
trec_eval CGI upload (``/root/reference/QryEval/fetchUrl.pl:15-31``,
which POSTed a ``.teIn`` file and scraped MAP/P@k) with local,
deterministic implementations of the same trec_eval metrics.
"""

from __future__ import annotations

import math


def precision_at_k(ranked: list[str], rel: dict[str, int], k: int) -> float:
    if k <= 0:
        return 0.0
    hits = sum(1 for d in ranked[:k] if rel.get(d, 0) > 0)
    return hits / k


def average_precision(ranked: list[str], rel: dict[str, int]) -> float:
    n_rel = sum(1 for r in rel.values() if r > 0)
    if n_rel == 0:
        return 0.0
    score, hits = 0.0, 0
    for i, d in enumerate(ranked, 1):
        if rel.get(d, 0) > 0:
            hits += 1
            score += hits / i
    return score / n_rel


def reciprocal_rank(ranked: list[str], rel: dict[str, int]) -> float:
    for i, d in enumerate(ranked, 1):
        if rel.get(d, 0) > 0:
            return 1.0 / i
    return 0.0


def ndcg_at_k(ranked: list[str], rel: dict[str, int], k: int) -> float:
    """Linear gain (rel_i / log2(i+1)) — trec_eval's m_ndcg convention."""
    dcg = sum(rel.get(d, 0) / math.log2(i + 1)
              for i, d in enumerate(ranked[:k], 1))
    ideal = sorted((r for r in rel.values() if r > 0), reverse=True)[:k]
    idcg = sum(r / math.log2(i + 1) for i, r in enumerate(ideal, 1))
    return dcg / idcg if idcg > 0 else 0.0


def r_precision(ranked: list[str], rel: dict[str, int]) -> float:
    """Precision at rank R, R = number of relevant docs (trec_eval
    ``Rprec``)."""
    n_rel = sum(1 for r in rel.values() if r > 0)
    if n_rel == 0:
        return 0.0
    hits = sum(1 for d in ranked[:n_rel] if rel.get(d, 0) > 0)
    return hits / n_rel


def bpref(ranked: list[str], rel: dict[str, int]) -> float:
    """trec_eval ``bpref``: judgment-robust preference metric —
    1/R · Σ_{r rel retrieved} (1 − min(#judged-nonrel above r, R) /
    min(N, R)), where R/N are the judged relevant/nonrelevant counts
    and UNJUDGED docs in the ranking are skipped entirely (the whole
    point of the metric)."""
    R = sum(1 for r in rel.values() if r > 0)
    N = sum(1 for d, r in rel.items() if r == 0)
    if R == 0:
        return 0.0
    denom = min(N, R)
    # integer numerator (Σ (denom − min(#nonrel-above, R))) so partial
    # sums associate exactly and a SQL mirror can't drift
    num, nonrel_above = 0, 0
    for d in ranked:
        if d not in rel:
            continue                      # unjudged: invisible to bpref
        if rel[d] > 0:
            num += (denom - min(nonrel_above, R)) if denom else 1
        else:
            nonrel_above += 1
    return num / (R * denom) if denom else num / R


def interpolated_precision_11pt(ranked: list[str],
                                rel: dict[str, int]) -> list[float]:
    """trec_eval ``iprec_at_recall_0.00..1.00``: at each of the 11
    recall levels, the MAX precision at any rank whose recall ≥ the
    level (0.0 where unreachable)."""
    n_rel = sum(1 for r in rel.values() if r > 0)
    if n_rel == 0:
        return [0.0] * 11
    pr: list[tuple[int, float]] = []       # (hits at rank, precision)
    hits = 0
    for i, d in enumerate(ranked, 1):
        if rel.get(d, 0) > 0:
            hits += 1
            pr.append((hits, hits / i))
    # recall >= lvl/10  ⟺  10*hits >= lvl*n_rel — integer-exact, so the
    # SQL mirror can't diverge at a recall boundary
    return [max((p for h, p in pr if 10 * h >= lvl * n_rel), default=0.0)
            for lvl in range(11)]


def paired_ttest(per_query_a: list[float],
                 per_query_b: list[float]) -> dict:
    """Paired Student's t over per-query metric values (the standard IR
    significance test between two runs — Smucker et al. CIKM'07 found
    it agrees with the randomization test in practice). → dict with n,
    mean_a, mean_b, mean_diff and the t statistic (df = n−1);
    ``t = mean(d) / (sd(d)/√n)`` with the n−1 sample sd. A zero sd
    (identical runs) reports t = 0 by convention."""
    import numpy as np
    a = np.asarray(per_query_a, dtype=np.float64)
    b = np.asarray(per_query_b, dtype=np.float64)
    if a.size != b.size or a.size < 2:
        raise ValueError("need >= 2 paired observations")
    d = a - b
    n = d.size
    sd = float(np.std(d, ddof=1))
    t = float(d.mean() / (sd / np.sqrt(n))) if sd > 0 else 0.0
    return {"n": int(n), "mean_a": float(a.mean()),
            "mean_b": float(b.mean()), "mean_diff": float(d.mean()),
            "t_stat": t, "df": int(n - 1)}


def rank_biased_overlap(a: list[str], b: list[str], p: float = 0.9,
                        k: int = 10) -> float:
    """Truncated rank-biased overlap RBO@k (Webber/Moffat/Zobel, TOIS'10
    eq. 4 without the extrapolation term): ``Σ_{d=1..k} (1-p)·p^(d-1)·
    |A_d ∩ B_d| / d`` — the standard top-weighted similarity between
    two rankings (run diffing, A/B comparison of ranker changes)."""
    out = 0.0
    sa: set = set()
    sb: set = set()
    for d in range(1, k + 1):
        if d <= len(a):
            sa.add(a[d - 1])
        if d <= len(b):
            sb.add(b[d - 1])
        out += (1.0 - p) * p ** (d - 1) * len(sa & sb) / d
    return out
