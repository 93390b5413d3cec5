"""Learning-to-rank feature extraction + reranking.

Reimplements the reference's 18-feature LeToR pipeline
(``/root/reference/QryEval/FeatureVector.java:205-288`` for the feature
slots, ``:294-315`` for per-query min-max normalization and the
svm_rank file format; orchestration ``QryEval.java:274-295,303-313,
340-388``):

  f1  spam score (doc attribute)          f2  url depth ('/' count)
  f3  wikipedia-in-url (0/1)              f4  PageRank (side file)
  f5..f7   BM25 / Indri / term-overlap on body
  f8..f10  …title    f11..f13 …url    f14..f16 …inlink
  f17 query-term coverage ratio (body)    f18 tf-idf-ish custom (body)

The reference shells out to the ``svm_rank`` binaries;
``SvmRankRanker`` does the same behind a binary guard
(``shutil.which``), and ``LinearRanker`` is the clearly-marked
deterministic default when the binaries are absent (as in this
container): a fixed-weight linear model over the normalized features
with the same file formats (train file writer, score-file reader,
positional re-join + re-sort). ``ranker_or_default`` picks between
them. Features missing for a (q,d) pair write as 0 after
normalization, matching the reference's min-max handling.
"""

from __future__ import annotations

import os
import subprocess
import tempfile

import numpy as np

from ..analysis.tokenizer import Analyzer
from ..index.reader import IndexReader
from .kernels import bm25, bm25_idf, dirichlet
from .models import BM25Model, IndriModel

N_FEATURES = 18
_FIELDS = ("body", "title", "url", "inlink")


class FeatureExtractor:
    def __init__(self, reader: IndexReader, bm25: BM25Model | None = None,
                 indri: IndriModel | None = None,
                 pagerank: dict[str, float] | None = None,
                 spam: dict[str, float] | None = None,
                 feature_disable: set[int] | None = None):
        self.reader = reader
        self.bm25 = bm25 or BM25Model()
        self.indri = indri or IndriModel()
        self.pagerank = pagerank or {}
        self.spam = spam or {}
        self.disable = feature_disable or set()
        self.analyzer = Analyzer(
            simple=(reader.stats.get("analyzer") == "simple"))
        self._fields = [f for f in _FIELDS if f in reader.fields]

    # ---- per-(query, doc) feature scores over the forward index ----
    def _field_scores(self, q_terms: list[str], docid: int, field: str,
                      tv: dict, posts: dict) -> tuple[float, float, float]:
        """(bm25, indri, overlap) for one (q, d, field) from the doc's
        term vector — mirrors the TermVector-driven feature scorers
        (QrySopScore.java:190-338). ``posts`` is the per-field postings
        dict fetched ONCE per query in feature_matrix (df/ctf depend only
        on the query, not the doc)."""
        r = self.reader
        if docid not in tv:
            return 0.0, 0.0, 0.0
        terms, _, flen = tv[docid]
        if flen == 0 or not q_terms:
            return 0.0, 0.0, 0.0
        tf = {}
        for t in terms:
            tf[t] = tf.get(t, 0) + 1
        N = r.n_docs
        avglen = r.avg_len(field) or 1.0
        sum_len = max(r.sum_field_lengths(field), 1)
        bm25_s, matched = 0.0, 0
        indri_s, any_match = 1.0, False
        k = len(q_terms)
        for t in q_terms:
            p = posts.get(t)
            df = p.df if p else 0
            ctf = p.ctf if p else 0
            t_tf = tf.get(t, 0)
            if t_tf > 0:
                matched += 1
                any_match = True
                bm25_s += bm25(bm25_idf(N, df), t_tf, flen, self.bm25.k1,
                               self.bm25.b, avglen)
            s = dirichlet(t_tf, flen, ctf / sum_len, self.indri.mu,
                          self.indri.lambda_)
            indri_s *= s ** (1.0 / k)
        if not any_match:
            indri_s = 0.0
        overlap = matched / k
        return bm25_s, indri_s, overlap

    def features(self, q_terms: list[str], docid: int,
                 tvs: dict[str, dict],
                 posts_by_field: dict[str, dict] | None = None,
                 ext: str | None = None) -> list[float | None]:
        """18-slot vector; None = feature unavailable (normalizes to 0)."""
        r = self.reader
        if ext is None:     # candidate lookup, not the dense id array
            ext = r.external_ids_for(np.asarray([docid], dtype=np.int64))[0]
        f: list[float | None] = [None] * N_FEATURES
        f[0] = self.spam.get(ext)
        url = ext
        depth = url.replace("http://", "").replace("https://", "").count("/")
        f[1] = float(depth)
        f[2] = 1.0 if "wikipedia.org" in url else 0.0
        f[3] = self.pagerank.get(ext)
        if posts_by_field is None:
            posts_by_field = {fl: self.reader.postings_many(
                q_terms, fl, positions=False) for fl in self._fields}
        slot = 4
        for field in _FIELDS:
            if field in self._fields:
                b, i, o = self._field_scores(q_terms, docid, field,
                                             tvs.get(field, {}),
                                             posts_by_field.get(field, {}))
                f[slot], f[slot + 1], f[slot + 2] = b, i, o
            slot += 3
        # f17: query-term coverage on body; f18: mean query-term tf (body)
        tv_body = tvs.get("body", {})
        if docid in tv_body:
            terms, _, flen = tv_body[docid]
            tf = {}
            for t in terms:
                tf[t] = tf.get(t, 0) + 1
            cov = sum(1 for t in q_terms if tf.get(t, 0) > 0)
            f[16] = cov / len(q_terms) if q_terms else 0.0
            f[17] = (sum(tf.get(t, 0) for t in q_terms) / len(q_terms)
                     if q_terms else 0.0)
        for i in self.disable:
            f[i - 1] = None
        return f

    def feature_matrix(self, query: str, docids: list[int]):
        """→ (n_docs × 18 array with NaN for missing, q_terms)."""
        q_terms = []
        for tok in query.split():
            q_terms.extend(self.analyzer.analyze_query_token(tok))
        tvs = {f: self.reader.term_vectors(docids, f) for f in self._fields}
        # postings fetched once per (query, field) — df/ctf are doc-free
        posts_by_field = {f: self.reader.postings_many(q_terms, f,
                                                       positions=False)
                          for f in self._fields}
        mat = np.full((len(docids), N_FEATURES), np.nan)
        exts = self.reader.external_ids_for(
            np.asarray(docids, dtype=np.int64)) if docids else []
        for i, d in enumerate(docids):
            row = self.features(q_terms, int(d), tvs, posts_by_field,
                                ext=exts[i])
            mat[i] = [np.nan if v is None else v for v in row]
        return mat, q_terms


def minmax_normalize(mat: np.ndarray) -> np.ndarray:
    """Per-query min-max to [0,1]; all-equal or missing columns → 0
    (FeatureVector.java:294-315)."""
    out = np.zeros_like(mat)
    for j in range(mat.shape[1]):
        col = mat[:, j]
        valid = ~np.isnan(col)
        if not valid.any():
            continue
        lo, hi = np.nanmin(col), np.nanmax(col)
        if hi > lo:
            out[valid, j] = (col[valid] - lo) / (hi - lo)
    return out


def write_svm_features(path: str, rows: list[dict]) -> None:
    """``rel qid:N 1:v … 18:v # externalId`` lines
    (FeatureVector.java:300-314)."""
    with open(path, "w") as f:
        for r in rows:
            feats = " ".join(f"{i + 1}:{v:.6f}" for i, v in enumerate(r["features"]))
            f.write(f"{r['rel']} qid:{r['qid']} {feats} # {r['external_id']}\n")


def read_svm_scores(path: str) -> list[float]:
    """One float per line, order-aligned with the feature file
    (QryEval.java:340-361)."""
    with open(path) as f:
        return [float(line.strip()) for line in f if line.strip()]


class SvmRankRanker:
    """TRUE svm_rank integration (Joachims' SVM-rank), behind a binary
    guard — the reference shells out to the same two binaries
    (``QryEval.java:303-313``: svm_rank_learn with ``-c``, then
    svm_rank_classify writing a score file read back positionally).
    Construction raises ``FileNotFoundError`` when the binaries are not
    on PATH (they are not shipped in this container), so callers fall
    back to the deterministic ``LinearRanker`` default —
    :func:`ranker_or_default` encodes exactly that. The subprocess
    plumbing itself (feature-file writer → learn → classify → score
    reader, ``score(mat)`` interface parity with LinearRanker) is
    exercised in CI with stub executables; a real svm_rank run is
    covered by the same test when the binaries exist."""

    def __init__(self, model_file: str, learn_path: str | None = None,
                 classify_path: str | None = None, c: float = 0.001):
        import shutil as _sh
        self.learn_bin = learn_path or _sh.which("svm_rank_learn")
        self.classify_bin = classify_path or _sh.which("svm_rank_classify")
        if not self.classify_bin or (
                not self.learn_bin and learn_path is None
                and not os.path.exists(model_file)):
            raise FileNotFoundError(
                "svm_rank binaries not on PATH — use LinearRanker (the "
                "deterministic stand-in) or ranker_or_default()")
        self.model_file = model_file
        self.c = float(c)

    def train(self, feature_file: str) -> None:
        """svm_rank_learn -c C <features> <model> (QryEval.java:303)."""
        if not self.learn_bin:
            # classify-only construction (model file existed): a train
            # call must fail with the real reason, not a subprocess
            # TypeError on a None argv (review r5)
            raise FileNotFoundError(
                "svm_rank_learn not on PATH — this SvmRankRanker was "
                "constructed classify-only against an existing model "
                "file")
        subprocess.run(
            [self.learn_bin, "-c", str(self.c), feature_file,
             self.model_file],
            check=True, capture_output=True)

    def train_rows(self, rows: list[dict]) -> None:
        """Train from the same row dicts ``write_svm_features`` takes."""
        with tempfile.TemporaryDirectory() as d:
            feat = os.path.join(d, "train.feat")
            write_svm_features(feat, rows)
            self.train(feat)

    def score(self, mat: np.ndarray) -> np.ndarray:
        """LinearRanker-interface parity: one score per (normalized)
        feature row, via a classify round-trip (feature file → score
        file, order-aligned — QryEval.java:340-361)."""
        with tempfile.TemporaryDirectory() as d:
            feat = os.path.join(d, "rank.feat")
            out = os.path.join(d, "rank.scores")
            write_svm_features(feat, [
                {"rel": 0, "qid": 1, "features": row, "external_id": str(i)}
                for i, row in enumerate(np.asarray(mat, dtype=np.float64))])
            subprocess.run(
                [self.classify_bin, feat, self.model_file, out],
                check=True, capture_output=True)
            scores = read_svm_scores(out)
        if len(scores) != mat.shape[0]:
            raise ValueError(
                f"svm_rank_classify returned {len(scores)} scores for "
                f"{mat.shape[0]} rows — score file misaligned")
        return np.asarray(scores, dtype=np.float64)


def ranker_or_default(model_file: str | None = None, **kwargs):
    """The reference's deployment rule under this container's
    constraint: a real ``SvmRankRanker`` when the svm_rank binaries
    (and a model file to classify with) exist, else the deterministic
    ``LinearRanker`` stand-in."""
    if model_file is not None:
        try:
            return SvmRankRanker(model_file, **kwargs)
        except FileNotFoundError:
            pass
    return LinearRanker()


class LinearRanker:
    """Deterministic replacement for the external svm_rank binaries
    (NOT an SVM): fixed positive weights over normalized features,
    emphasizing the retrieval-score slots the reference's learned models
    weight highest. Same input/output shapes as svm_rank_classify."""

    def __init__(self, weights: np.ndarray | None = None):
        if weights is None:
            w = np.full(N_FEATURES, 0.2)
            w[[4, 5, 7, 8]] = 1.0      # bm25/indri body+title
            w[[6, 9, 16]] = 0.6        # overlaps + coverage
            weights = w
        self.w = np.asarray(weights, dtype=np.float64)

    def score(self, mat: np.ndarray) -> np.ndarray:
        return mat @ self.w


def letor_rerank(reader: IndexReader, query: str, initial,
                 extractor: FeatureExtractor | None = None,
                 ranker: LinearRanker | None = None, k: int = 100):
    """BM25 top-k candidates → features → normalize → linear score →
    re-sort (score desc, external_id asc) — the getLetorScore flow
    (QryEval.java:363-388). ``initial``: [(external_id, score)]."""
    extractor = extractor or FeatureExtractor(reader)
    ranker = ranker or LinearRanker()
    ext_ids = [e for e, _ in initial]
    # batched candidate-set reverse lookup (one pruned forward scan)
    docids = reader.internal_docids_for(ext_ids)
    mat, _ = extractor.feature_matrix(query, [int(d) for d in docids])
    norm = minmax_normalize(mat)
    scores = ranker.score(norm)
    idx = sorted(range(len(ext_ids)),
                 key=lambda i: (-scores[i], ext_ids[i]))[:k]
    return [(ext_ids[i], float(scores[i])) for i in idx]
