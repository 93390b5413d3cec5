"""Leaf-score formulas, written once for every query path.

The reference keeps its leaf scorers in one class,
``QryEval/QrySopScore.java``; every scorer here (the driver engine,
MaxScore, BM25F, federated search, LeToR features and the distributed
salt kernels) calls these functions instead of re-deriving them:

- ``bm25_idf``: ``max(0, ln((N − df + 0.5)/(df + 0.5)))``, the idf
  floored at 0 (``QrySopScore.java:90-120``, floor at ``:98``);
- ``bm25_tfw``: ``tf/(tf + k1·((1−b) + b·dl/avglen))``
  (``QrySopScore.java:90-120``; the k3 query-term weight is 1,
  ``:112``). It is increasing in tf and decreasing in dl, so
  ``dl = tf = max_tf`` bounds a posting run (MaxScore) and ``dl = 0``
  — the length prior ``1 − b`` — bounds a whole segment (federated
  early stop);
- ``bm25_prior``: the length prior ``(1−b) + b·dl/avglen`` inside
  ``bm25_tfw``; BM25F divides each field's tf by its own prior
  ``B_f`` before pooling;
- ``bm25f_saturate``: BM25F's one saturation of the pooled
  pseudo-frequency, ``idf·tf~/(k1 + tf~)`` (Zaragoza & Robertson,
  TREC-13, 2004);
- ``dirichlet``: Indri's Dirichlet + Jelinek-Mercer term probability
  ``(1−λ)·(tf + μ·mle)/(dl + μ) + λ·mle`` (``QrySopScore.java:140-161``);
  ``tf = 0`` is the default score of a document lacking the term
  (``:123-138``);
- ``tfidf``: Lucene ClassicSimilarity ``sqrt(tf)·idf²/sqrt(dl)`` with
  ``idf = 1 + ln(N/(df + 1))`` (no reference counterpart; queryNorm and
  coord are omitted, see ``models.TFIDFModel``);
- ``indri_tree``: Indri's combination of per-leaf scores over a tree of
  ``#AND`` (``Π s^(1/k)``, ``QrySopAnd``), ``#WAND`` (``Π s^(w/Σw)``)
  and ``#WSUM`` (``Σ s·w/Σw``, ``QrySopWsum``). The driver engine and
  the distributed salt kernel both score with it.

Each takes scalars or numpy arrays. The operation order inside each
expression is fixed: every caller gets bit-identical float64 results.
"""

from __future__ import annotations

import numpy as np

from .plan import SopNode


def bm25_idf(N, df) -> float:
    return max(0.0, float(np.log((N - df + 0.5) / (df + 0.5))))


def bm25_prior(dl, b: float, avglen: float):
    return (1.0 - b) + b * dl / avglen


def bm25_tfw(tf, dl, k1: float, b: float, avglen: float):
    return tf / (tf + k1 * bm25_prior(dl, b, avglen))


def bm25(idf: float, tf, dl, k1: float, b: float, avglen: float):
    return idf * bm25_tfw(tf, dl, k1, b, avglen)


def bm25f_saturate(idf: float, tft, k1: float):
    return idf * tft / (k1 + tft)


def dirichlet(tf, dl, mle, mu: float, lam: float):
    return (1.0 - lam) * (tf + mu * mle) / (dl + mu) + lam * mle


def tfidf(N, df, tf, dl):
    idf = 1.0 + np.log(N / (df + 1.0))
    return np.sqrt(tf) * (idf * idf) / np.sqrt(np.maximum(dl, 1.0))


# the Sop operators Indri combines with
INDRI_OPS = ("and", "wand", "wsum")


def indri_tree(node, leaf_scores):
    """Score one Indri plan tree over a candidate set: every node that
    is not a ``SopNode`` is a leaf, and ``leaf_scores(leaf)`` returns its
    Dirichlet score for every candidate, with ``tf = 0`` for candidates
    the leaf does not match. Arguments combine in tree order, so every
    caller gets the same bits for the same leaf scores."""
    if not isinstance(node, SopNode):
        return leaf_scores(node)
    args = [indri_tree(a, leaf_scores) for a in node.args]
    op = node.op
    if op not in INDRI_OPS:
        raise ValueError(f"IndriModel doesn't support the {op.upper()} "
                         "operator")
    if op == "and":
        k = len(args)
        s = np.ones(args[0].size, dtype=np.float64)
        for x in args:
            s *= x ** (1.0 / k)
        return s
    w = np.asarray(node.weights, dtype=np.float64)
    wn = w / w.sum()
    if op == "wand":
        s = np.ones(args[0].size, dtype=np.float64)
        for x, wi in zip(args, wn):
            s *= x ** wi
    else:
        s = np.zeros(args[0].size, dtype=np.float64)
        for x, wi in zip(args, wn):
            s += x * wi
    return s
