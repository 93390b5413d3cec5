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
  coord are omitted, see ``models.TFIDFModel``).

Each takes scalars or numpy arrays. The operation order inside each
expression is fixed: every caller gets bit-identical float64 results.
"""

from __future__ import annotations

import numpy as np


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
