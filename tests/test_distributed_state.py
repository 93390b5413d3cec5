"""Worker-side state and launch plumbing of the distributed batch path
(query/distributed.py): the per-process caches a Ray task reaches, their
invalidation on rebuild, and BM25F batch parity with its driver scorer."""

import numpy as np
import pandas as pd
import pytest
from ray import cloudpickle

from search_engines_ray.query import BM25Model, QueryEngine
from search_engines_ray.query import distributed as D


def test_doclen_shard_cache_survives_pickle_round_trips(toy_index):
    """Each Ray task payload is a by-value cloudpickle round trip of the
    kernel's code. Two round trips of the shard lookup must hit ONE
    process cache: a module-global cache dict would travel with each
    payload as a fresh empty copy and never hit."""
    a = cloudpickle.loads(cloudpickle.dumps(D._doclen_shard))
    b = cloudpickle.loads(cloudpickle.dumps(D._doclen_shard))
    assert a is not D._doclen_shard     # really pickled by value
    args = (toy_index.index_dir, "body", 0, toy_index.stats_token)
    shard = a(*args)
    assert b(*args) is shard
    assert list(shard) == list(toy_index.doclen_shard("body", 0))


def test_postings_dataset_one_handle_per_build(toy_index):
    """One hive-partitioned postings handle per (index_dir, build token),
    shared by every bucket set and by every pickled copy of the lookup;
    a bucket-filtered scan returns the same rows as the per-bucket file
    read it replaced."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from search_engines_ray.util import _BOUNDED

    look = cloudpickle.loads(cloudpickle.dumps(D._postings_dataset))
    dset = look(toy_index.index_dir, toy_index.stats_token)
    assert D._postings_dataset(toy_index.index_dir,
                               toy_index.stats_token) is dset
    # a long-lived worker that sees many builds keeps at most the cap
    for fake_token in range(D._MAX_INDEXES + 3):
        D._postings_dataset(toy_index.index_dir, float(fake_token))
    assert len(_BOUNDED["postings_dset"]) == D._MAX_INDEXES
    for terms in (["fox"], ["quick", "lazy", "dog"]):
        want = pads.dataset(toy_index._bucket_paths(terms),
                            format="parquet").to_table(
            columns=["term", "salt", "df"],
            filter=pc.field("term").isin(terms)
            & (pc.field("field") == "body"))
        got = dset.to_table(columns=["term", "salt", "df"],
                            filter=D._rows(toy_index.num_buckets, terms,
                                           ["body"]))
        assert got.equals(want)


def _pages(texts):
    return pd.DataFrame({"url": [f"http://rb.example.com/{i}"
                                 for i in range(len(texts))],
                         "text": texts})


def test_rebuilt_index_never_serves_stale_shards(tmp_path, ray_session):
    """Worker caches persist across batches, so the build token is what
    keeps a rebuilt index at the same path from scoring with the old
    build's doclens: after a rebuild with different docs, batch search
    must be rank- and score-identical to a fresh driver engine."""
    import ray.data as rd

    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index,
    )
    idx = str(tmp_path / "rb")
    cfg = IndexBuildConfig(num_buckets=4, docid_partitions=4, merge_salts=2,
                           tokenize_concurrency=2)
    short = ["quick fox", "lazy dog sleeps", "fox and dog", "quick quick cat",
             "brown fox jumps", "dog"]
    long_ = [t + " " + " ".join(["filler"] * (3 * i + 5))
             for i, t in enumerate(short)]
    queries = [("1", "quick fox"), ("2", "dog"), ("3", "fox dog cat")]
    for texts in (short, long_):
        build_index(rd.from_pandas(_pages(texts)), idx, cfg,
                    input_token=str(len(texts[0])), resume=False)
        engine = QueryEngine(IndexReader(idx), BM25Model())
        want = {qid: engine.search(q, k=10).to_pandas() for qid, q in queries}
        # several batches, so salt tasks land on workers that cached the
        # previous build's shards
        for _ in range(4):
            got = D.bm25_batch_search(idx, queries, BM25Model(),
                                      k=10).to_pandas()
            for qid, _q in queries:
                sub = got[got["qid"] == qid].reset_index(drop=True)
                assert (list(sub["external_id"])
                        == list(want[qid]["external_id"]))
                np.testing.assert_allclose(sub["score"], want[qid]["score"],
                                           rtol=1e-12)


@pytest.mark.parametrize("weights,field_b", [
    ({"body": 1.0, "title": 2.0}, {"body": 0.75, "title": 0.5}),
    ({"body": 1.0}, 0.75),
])
def test_bm25f_batch_matches_driver_scorer(toy_index, weights, field_b):
    """Distributed BM25F (union-df phase A, pooled-tf phase B) is rank-
    and score-identical to the driver-side ``query/bm25f.py`` scorer."""
    from search_engines_ray.analysis.tokenizer import analyzer_for_mode
    from search_engines_ray.query.bm25f import bm25f_search

    an = analyzer_for_mode(toy_index.stats.get("analyzer", "lucene"))
    queries = [("1", "quick fox"), ("2", "lazy cat day"), ("3", "fox fox den"),
               ("4", "nosuchterm brown")]
    got = D.bm25f_batch_search(toy_index.index_dir, queries, weights=weights,
                               field_b=field_b, k1=1.2, k=10).to_pandas()
    for qid, q in queries:
        terms = [t for tok in q.split() for t in an.analyze_query_token(tok)]
        want = bm25f_search(toy_index, terms, weights, field_b=field_b,
                            k1=1.2, k=10).to_pandas()
        sub = got[got["qid"] == qid].reset_index(drop=True)
        assert len(want) > 0, qid
        assert list(sub["external_id"]) == list(want["external_id"]), qid
        np.testing.assert_allclose(sub["score"], want["score"], rtol=1e-12)
