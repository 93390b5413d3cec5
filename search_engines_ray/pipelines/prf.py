"""Pseudo-relevance-feedback query expansion — the reference's
``expandQuery`` math (``/root/reference/QryEval/QryEval.java:78-200``,
traced in SURVEY.md §3.2):

  over the top ``fb_docs`` of an initial ranking, for every stem t in any
  of those docs:  score(t) = Σ_d p(t|d) · P(I|d) · ln(1/mle(t)),
  p(t|d) = (tf + fbMu·mle)/(doclen + fbMu), mle = ctf/collection_len —
  including the tf=0 contribution of every (term, top-doc) pair the
  term's mini inverted list misses (second pass, QryEval.java:150-176).
  Terms containing '.' or ',' are skipped (:109-111). Top ``fb_terms``
  become ``#wand (w1 t1 w2 t2 …)`` with %.4f weights (:179-199), and the
  final query mixes original and expansion by ``fb_orig_weight``
  (:740-742).

Operates on ≤ fb_docs documents per query (forward-index filtered scan),
so it runs driver-side by design — same as the reference.
"""

from __future__ import annotations

import math

from ..index.reader import IndexReader


def expansion_terms(reader: IndexReader, ranking: list[tuple[int, float]],
                    fb_docs: int = 10, fb_terms: int = 10,
                    fb_mu: float = 0.0,
                    field: str = "body") -> list[tuple[str, float]]:
    """The expansion-term scores behind ``expand_query`` as data:
    [(term, weight)] sorted (weight desc, term asc), top ``fb_terms``.
    Exposed separately so the fb_mu=0 case (p(t|d)=tf/dl — pure
    arithmetic over tf/doclen/ctf) can be oracle-checked in SQL."""
    top = ranking[:fb_docs]
    if not top:
        return []
    docids = [d for d, _ in top]
    tvs = reader.term_vectors(docids, field)
    doclen = {d: tvs[d][2] for d in docids if d in tvs}

    # per-(term, doc) tf over the top docs
    tf: dict[str, dict[int, int]] = {}
    for d in docids:
        if d not in tvs:
            continue
        for t in tvs[d][0]:
            if "." in t or "," in t:
                continue
            tf.setdefault(t, {})[d] = tf.get(t, {}).get(d, 0) + 1

    c_len = max(reader.sum_field_lengths(field), 1)
    stats = reader.term_stats(list(tf), field)

    scores: dict[str, float] = {}
    for t, per_doc in tf.items():
        ctf = stats[t][1] if t in stats else sum(per_doc.values())
        mle = ctf / c_len
        s = 0.0
        for d, doc_score in top:           # includes tf=0 docs (2nd pass)
            t_tf = per_doc.get(d, 0)
            dl = doclen.get(d, 0)
            p_td = (t_tf + fb_mu * mle) / (dl + fb_mu) if (dl + fb_mu) > 0 else 0.0
            s += p_td * doc_score * math.log(1.0 / mle)
        scores[t] = s

    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:fb_terms]


def expand_query(reader: IndexReader, ranking: list[tuple[int, float]],
                 fb_docs: int = 10, fb_terms: int = 10,
                 fb_mu: float = 0.0, field: str = "body") -> str:
    """``ranking``: [(internal docid, score)] best-first. → ``#wand (…)``."""
    best = expansion_terms(reader, ranking, fb_docs, fb_terms, fb_mu, field)
    inner = " ".join(f"{w:.4f} {t}" for t, w in best)
    return f"#wand ({inner})"


def prf_search(engine, query: str, fb_docs: int = 10, fb_terms: int = 10,
               fb_mu: float = 0.0, fb_orig_weight: float = 0.5,
               k: int = 100, field: str = "body"):
    """Initial retrieval → expansion → re-retrieval
    (processQueryFile fb branch, QryEval.java:717-745).
    → (results_table, expanded_query_string)."""
    initial = engine.search(query, k=max(fb_docs, k))
    ids = initial["external_id"].to_pylist()
    scores = initial["score"].to_pylist()
    # batched candidate-set reverse lookup (one pruned forward scan),
    # not the dense external_ids() array
    idx = engine.reader.internal_docids_for(ids)
    ranking = list(zip((int(i) for i in idx), scores))
    expanded = expand_query(engine.reader, ranking, fb_docs, fb_terms,
                            fb_mu, field)
    new_q = (f"#wand ({fb_orig_weight:.4f} #and({query}) "
             f"{1.0 - fb_orig_weight:.4f} {expanded})")
    # second element is the EXPANSION only — what the reference logs to
    # fbExpansionQueryFile (QryEval.java:202-205)
    return engine.search(new_q, k=k), expanded


def rocchio_terms(reader: IndexReader, ranking: list[tuple[int, float]],
                  query_terms: list[str], fb_docs: int = 10,
                  fb_terms: int = 10, alpha: float = 1.0,
                  beta: float = 0.75,
                  field: str = "body") -> list[tuple[str, float]]:
    """Rocchio (1971) vector-space feedback — the SMART-era classic the
    Indri expansion above post-dates: the new query vector is
    ``α·q + (β/|Dr|)·Σ_d d`` with documents as tf·idf vectors
    (idf = ln(N/df), df over the whole corpus). Returns the top
    ``fb_terms`` [(term, weight)] (weight desc, term asc) — feed them
    to a ``#WSUM`` like the Indri path's ``#WAND``.

    Same scale shape as ``expansion_terms``: |Dr| = fb_docs documents
    per query, term vectors via one filtered forward scan, df from the
    index lexicon — driver-side by design."""
    top = ranking[:fb_docs]
    if not top:
        return []
    docids = [d for d, _ in top]
    tvs = reader.term_vectors(docids, field)
    # centroid term frequencies over the feedback set
    cent: dict[str, float] = {}
    for d in docids:
        if d not in tvs:
            continue
        terms, _, _ = tvs[d]
        for t in terms:
            cent[t] = cent.get(t, 0.0) + 1.0
    if not cent:
        return []
    # corpus df for idf from the lexicon; N = doc_count of the field
    df = {t: d for t, (d, _) in reader.term_stats(sorted(cent), field).items()}
    n = float(reader.doc_count(field))
    k = float(len(docids))
    q = set(query_terms)
    scored = []
    for t, tf_sum in cent.items():
        d = df.get(t, 0)
        if d <= 0:
            continue
        idf = math.log(n / d)
        w = alpha * (1.0 if t in q else 0.0) + (beta / k) * tf_sum * idf
        scored.append((t, w))
    scored.sort(key=lambda x: (-x[1], x[0]))
    return scored[:fb_terms]
