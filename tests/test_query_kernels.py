"""Every query path scores through ``query/kernels.py`` and finishes a
result the same way (tombstone mask, then the top-k cut)."""

import numpy as np
import pytest

from search_engines_ray.query import distributed as D
from search_engines_ray.query.bm25f import bm25f_search
from search_engines_ray.query.eval import QueryEngine
from search_engines_ray.query.maxscore import bm25_maxscore_search
from search_engines_ray.query.models import BM25Model, IndriModel, TFIDFModel

from .conftest import _toy_pages

_DELETED = "http://t.example.com/5"      # the top "fox" document

_PATHS = {
    "engine": lambda d, k: QueryEngine(_reader(d), BM25Model()).search(
        "fox", k=k),
    "maxscore": lambda d, k: bm25_maxscore_search(_reader(d), "fox", k=k),
    # the deleted doc alone holds 'den': kept as a candidate it would
    # raise θ above the survivor's bound and prune it
    "maxscore_theta": lambda d, k: bm25_maxscore_search(_reader(d),
                                                        "fox den", k=k),
    "bm25f": lambda d, k: bm25f_search(_reader(d), ["fox"], {"body": 1.0},
                                       k=k),
    "bm25_batch": lambda d, k: D.bm25_batch_search(d, [("q", "fox")], k=k),
    "indri_batch": lambda d, k: D.indri_batch_search(d, [("q", "fox")], k=k),
    "structured_batch": lambda d, k: D.bm25_structured_batch_search(
        d, [("q", "#sum(fox)")], k=k),
}


def _reader(d):
    from search_engines_ray.index import IndexReader
    return IndexReader(d)


def _hits(t):
    return list(zip(t["external_id"].to_pylist(), t["score"].to_pylist()))


@pytest.fixture(scope="module")
def tombstoned(tmp_path_factory, ray_session):
    """Toy index with the top "fox" doc deleted, plus every path's
    result from before the delete."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, build_index, delete_docs)
    d = str(tmp_path_factory.mktemp("tomb") / "idx")
    build_index(rd.from_pandas(_toy_pages()), d,
                IndexBuildConfig(fields={"body": "text", "title": "title"},
                                 num_buckets=4, docid_partitions=2,
                                 merge_salts=2, tokenize_concurrency=2),
                input_token="tomb", resume=False)
    before = {name: _hits(fn(d, 10)) for name, fn in _PATHS.items()}
    assert delete_docs(d, [_DELETED]) == 1
    return d, before


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("k", [1, 10])
def test_tombstones_masked_before_topk(tombstoned, path, k):
    """A deleted document drops out of every path, and is dropped BEFORE
    the top-k cut: at k=1 the survivor takes the freed slot. Survivors
    keep their as-built scores (statistics stay as-built)."""
    d, before = tombstoned
    assert before[path][0][0] == _DELETED
    want = [h for h in before[path] if h[0] != _DELETED][:k]
    assert want
    assert _hits(_PATHS[path](d, k)) == want


def test_tfidf_batch_matches_engine(toy_index):
    queries = [("1", "quick fox"), ("2", "lazy dog"), ("3", "brown cat fox"),
               ("4", "fox fox den"), ("5", "the")]
    got = D.bm25_batch_search(toy_index.index_dir, queries,
                              model=TFIDFModel(), k=10).to_pandas()
    eng = QueryEngine(toy_index, TFIDFModel())
    n = 0
    for qid, q in queries:
        want = eng.search(q, k=10)
        g = got[got["qid"] == qid]
        assert g["external_id"].tolist() == want["external_id"].to_pylist()
        np.testing.assert_allclose(g["score"].to_numpy(),
                                   want["score"].to_numpy(), rtol=1e-12)
        n += len(g)
    assert n > 0


@pytest.mark.parametrize("query", ["quick fox", "lazy dog cat", "fox fox den",
                                   "brown"])
def test_letor_score_features_match_engine(toy_index, query):
    """LeToR f5 (BM25 body) and f6 (Indri body) equal the engine's
    bag-of-words scores for every document the engine returns."""
    from search_engines_ray.query.letor import FeatureExtractor
    bm25, indri = BM25Model(), IndriModel()
    fx = FeatureExtractor(toy_index, bm25=bm25, indri=indri)
    for model, slot in ((bm25, 4), (indri, 5)):
        top = QueryEngine(toy_index, model).search(query, k=100)
        ext = top["external_id"].to_pylist()
        assert ext
        ids = [int(i) for i in toy_index.internal_docids_for(ext)]
        mat, _ = fx.feature_matrix(query, ids)
        np.testing.assert_allclose(mat[:, slot], top["score"].to_numpy(),
                                   rtol=1e-12)
