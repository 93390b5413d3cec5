"""Every query path scores through ``query/kernels.py`` and finishes a
result the same way (tombstone mask, then the top-k cut); the #NEAR and
#WINDOW lists they score match the per-doc oracle."""

import numpy as np
import pytest

from search_engines_ray.query import distributed as D
from search_engines_ray.query import eval as ev
from search_engines_ray.query.bm25f import bm25f_search
from search_engines_ray.query.eval import InvList, QueryEngine
from search_engines_ray.query.maxscore import bm25_maxscore_search
from search_engines_ray.query.models import BM25Model, IndriModel, TFIDFModel
from search_engines_ray.query.plan import IopNode, TermNode

from .conftest import _toy_pages
from .oracle import eval_iop

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


# ---- #NEAR/#WINDOW lockstep matcher (Ray-free) ----

def _rand_inv(rng, universe, field="body"):
    """Random InvList over a subset of ``universe`` docs: tf mostly 1–4,
    some docs in the tens and a few in the hundreds."""
    docs = np.sort(rng.choice(universe, size=int(rng.integers(1, universe)),
                              replace=False)).astype(np.int64)
    tfs = rng.choice([1, 2, 3, 4, 9, 40, 300], size=docs.size,
                     p=[.35, .15, .1, .1, .15, .1, .05]).astype(np.int32)
    pos = np.concatenate([np.sort(rng.choice(3 * t + 20, t, replace=False))
                          for t in tfs]).astype(np.int32)
    return InvList(docs, tfs, pos, int(docs.size), int(tfs.sum()), field)


class _OracleLists:
    """``oracle.eval_iop``'s index interface over the same InvLists."""

    def __init__(self, cache):
        self.cache = cache

    def inv(self, term, field):
        a = self.cache[(term, field)]
        b = a.pos_bounds()
        return {int(d): a.positions[b[k]:b[k + 1]].tolist()
                for k, d in enumerate(a.docids)}


def _rand_iop(rng, terms):
    leaf = [TermNode(term=t, field="body") for t in terms]
    op = str(rng.choice(["near", "window"]))
    n = int(rng.integers(0, 11))
    roll = rng.random()
    if roll < .15:                  # an arg repeated: #window/8(a a)
        return IopNode(op=op, args=[leaf[0], leaf[0]], dist=n)
    if roll < .3:                   # #near(#window(..) t)
        inner = IopNode(op="window", args=leaf[:2],
                        dist=int(rng.integers(1, 11)))
        return IopNode(op="near", args=[inner, leaf[2]], dist=n)
    k = int(rng.integers(2, 5))
    return IopNode(op=op, args=[leaf[int(i)] for i in
                                rng.choice(len(leaf), k, replace=False)],
                   dist=n)


@pytest.mark.parametrize("tail", ["lockstep_only", "tail_only"])
def test_positional_matches_oracle(monkeypatch, tail):
    """Random #NEAR/#WINDOW trees over random lists equal the plain
    per-doc oracle, run once wholly in lockstep and once wholly through
    the per-doc tail kernels."""
    width = 0 if tail == "lockstep_only" else 10 ** 6
    monkeypatch.setattr(ev, "_TAIL_DOCS", {"near": width, "window": width})
    rng = np.random.default_rng(7)
    terms = ["a", "b", "c", "d"]
    for _ in range(40):
        cache = {(t, "body"): _rand_inv(rng, 40) for t in terms}
        node = _rand_iop(rng, terms)
        got = ev.eval_iop_tree(node, cache)
        want = eval_iop(node, _OracleLists(cache))
        b = got.pos_bounds()
        assert {int(d): got.positions[b[k]:b[k + 1]].tolist()
                for k, d in enumerate(got.docids)} == want, node
        assert got.docids.tolist() == sorted(want)
        assert (got.df, got.ctf) == (len(want),
                                     sum(map(len, want.values())))


@pytest.mark.parametrize("kind", ["near", "window"])
def test_positional_has_no_per_doc_loop(monkeypatch, kind):
    """On 2,000 common docs of tf 1–4 the per-doc kernels only see the
    last few live docs: fewer calls than the tail width."""
    calls = []
    for name in ("_near_positions", "_window_positions"):
        fn = getattr(ev, name)
        monkeypatch.setattr(ev, name, lambda lists, n, fn=fn:
                            calls.append(1) or fn(lists, n))
    rng = np.random.default_rng(3)
    docs = np.arange(2000, dtype=np.int64)
    args = []
    for _ in range(2):
        tfs = rng.integers(1, 5, docs.size).astype(np.int32)
        pos = np.concatenate([np.sort(rng.choice(12, t, replace=False))
                              for t in tfs]).astype(np.int32)
        args.append(InvList(docs, tfs, pos, docs.size, int(tfs.sum()),
                            "body"))
    out = ev._positional(args, "body", 2, kind)
    assert out.df > 0
    assert len(calls) < ev._TAIL_DOCS[kind]
