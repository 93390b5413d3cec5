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
    """Each Ray task payload is a cloudpickle round trip of the
    kernel's code. Two round trips of the worker's doclen lookup must
    hit ONE process cache (the process's reader and its forward-shard
    cache), never a fresh empty copy per payload."""
    a = cloudpickle.loads(cloudpickle.dumps(D._doclens))
    b = cloudpickle.loads(cloudpickle.dumps(D._doclens))
    spec = dict(index_dir=toy_index.index_dir, token=toy_index.stats_token)
    docids = np.arange(toy_index.n_docs, dtype=np.int64)
    got = a(spec, "body", docids)
    cache = D._index_reader(toy_index.index_dir,
                            toy_index.stats_token).cache
    misses, hits = cache.misses, cache.hits
    assert list(b(spec, "body", docids)) == list(got)
    assert cache.misses == misses and cache.hits > hits
    assert list(got) == list(toy_index.doclens("body"))


def test_task_payloads_reach_the_process_own_module():
    """The package is pickled by reference: a task payload's references
    to it resolve to the unpickling process's own objects. The doclen
    lookup comes back as itself, the scoring task's code reaches this
    module's helpers and kernels, and a plan comes back as this
    process's ``IopNode``/``TermNode``, so it passes ``eval_iop_tree``'s
    ``isinstance`` checks."""
    from search_engines_ray.query.plan import IopNode, TermNode

    def round_trip(obj):
        return cloudpickle.loads(cloudpickle.dumps(obj))

    assert round_trip(D._doclens) is D._doclens
    task = round_trip(D.score_salts)._function
    g = task.__globals__
    assert g["_task_spec"] is D._task_spec and g["_concat"] is D._concat
    assert all(g["_KERNELS"][k] is f for k, f in D._KERNELS.items())
    plan = IopNode("near", [TermNode("fast"), TermNode("sort")], 2)
    back = round_trip(plan)
    assert isinstance(back, IopNode) and isinstance(back.args[0], TermNode)
    assert back == plan


def test_lexicon_one_per_build(toy_index):
    """The lexicon lives on the process's reader for one (index_dir,
    build token), shared by every pickled copy of the lookup; a
    long-lived process keeps at most ``_MAX_INDEXES`` builds. Its runs
    are the rows a scan of the terms' bucket files returns, in the same
    (bucket, file, row) order, and their blobs decode to the same
    lists."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from search_engines_ray.index.build import term_bucket
    from search_engines_ray.index.varbyte import decode_postings
    from search_engines_ray.util import _BOUNDED

    look = cloudpickle.loads(cloudpickle.dumps(D._index_reader))
    r = look(toy_index.index_dir, toy_index.stats_token)
    assert D._index_reader(toy_index.index_dir, toy_index.stats_token) is r
    for fake_token in range(D._MAX_INDEXES + 3):
        D._index_reader(toy_index.index_dir, float(fake_token))
    assert len(_BOUNDED["index_reader"]) == D._MAX_INDEXES
    r = D._index_reader(toy_index.index_dir, toy_index.stats_token)
    base = f"{toy_index.index_dir}/postings"
    for terms, fields in ((["fox"], ["body"]),
                          (["quick", "lazy", "dog", "nosuch"], ["body"]),
                          (["quick", "fox", "brown"], ["body", "title"])):
        paths = [p for b in sorted({term_bucket(t, r.num_buckets)
                                    for t in terms})
                 for p in sorted(pads.dataset(f"{base}/bucket={b}",
                                              format="parquet").files)]
        want = pads.dataset(paths, format="parquet").to_table(
            filter=pc.field("term").isin(terms)
            & pc.field("field").isin(fields))
        runs = r.runs(terms, fields)
        assert runs.term.tolist() == want["term"].to_pylist()
        assert runs.field.tolist() == want["field"].to_pylist()
        assert runs.salt.tolist() == want["salt"].to_pylist()
        assert runs.df.tolist() == want["df"].to_pylist()
        got = r.read_runs(runs, positions=True)
        for (d, tf, pos), db, tb, pb in zip(
                got, *(want[c].to_pylist()
                       for c in ("docid_blob", "tf_blob", "pos_blob"))):
            wd, wt, wp = decode_postings(db, tb, pb)
            assert d.tolist() == wd.tolist() and tf.tolist() == wt.tolist()
            assert pos.tolist() == wp.tolist()
        for s in range(D._n_salts(r)):
            one = r.runs(terms, fields, salt=s)
            assert one.term.tolist() == [
                t for t, x in zip(runs.term.tolist(), runs.salt.tolist())
                if x == s]


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


BOW = [("1", "fast sort merge"), ("2", "hash join"), ("3", "dup line"),
       ("4", "nosuchterm window scan"), ("5", "dup dup key")]


def _local_scoring_tasks(monkeypatch) -> list:
    """Run every scoring kernel (``score_salt*``) in this process, one
    ``kernel(spec, salt)`` call per salt over the spec a range task
    would see, and record the fields of each ``IndexReader.doclens_for``
    call as ``(kernel, salt, fields)``; phase-A kernels stay remote."""
    from search_engines_ray.index.reader import IndexReader
    seen, calls = [], []
    real, run = IndexReader.doclens_for, D._run_salt_tasks

    def doclens_for(self, docids, fields):
        calls.extend(fields)
        return real(self, docids, fields)

    def local(kernel, spec, reader):
        name = kernel.__name__
        if not name.startswith("score_salt"):
            return run(kernel, spec, reader)
        n = D._n_salts(reader)
        spec = D._task_spec(spec, 0, n)
        tables = []
        for salt in range(n):
            calls.clear()
            tables.append(kernel(spec, salt))
            seen.append((name, salt, list(calls)))
        return D._concat(tables)

    monkeypatch.setattr(IndexReader, "doclens_for", doclens_for)
    monkeypatch.setattr(D, "_run_salt_tasks", local)
    return seen


def test_scoring_kernels_gather_doclens_once_per_field_and_salt(
        docs_index, toy_index, monkeypatch):
    """Each scoring kernel looks up doc lengths once per (salt, field),
    over the union of the salt's leaves in that field — not once per
    posting run — and returns what its remote tasks return."""
    from search_engines_ray.query.models import IndriModel
    d, t = docs_index.index_dir, toy_index.index_dir
    structured = [("1", "#sum(#near/1(dup line) sort)"),
                  ("2", "#sum(#window/8(hash join) #syn(fast slow))")]
    wsum = [("1", "#wsum( 0.7 #and( dup line ) 0.3 #and( #near/1( dup "
                  "line ) ) )"), ("2", "#and(#syn(hash join) scan)")]
    two_fields = [("a", "#sum(quick fox.title #near/1(quick brown))"),
                  ("b", "#sum(lazy.title cat dog fox.title)")]
    searches = [
        lambda: D.bm25_batch_search(d, BOW, BM25Model(), k=10),
        lambda: D.bm25_msm_batch_search(d, [(q, x, 2) for q, x in BOW],
                                        BM25Model(), k=10),
        lambda: D.bm25_champion_search(d, BOW, m=4, k=10),
        lambda: D.bm25_structured_batch_search(d, structured, BM25Model(),
                                               k=10),
        lambda: D.indri_batch_search(d, BOW, IndriModel(), k=10),
        lambda: D.indri_structured_batch_search(d, wsum, IndriModel(), k=10),
        lambda: D.bm25_structured_batch_search(t, two_fields, BM25Model(),
                                               k=5),
        lambda: D.bm25f_batch_search(t, [("a", "quick fox"),
                                         ("b", "lazy cat")],
                                     weights={"body": 1.0, "title": 2.0},
                                     k=5),
    ]
    want = [f().to_pandas() for f in searches]
    seen = _local_scoring_tasks(monkeypatch)
    for f, w in zip(searches, want):
        assert len(w) and f().to_pandas().equals(w)
    for name, salt, fields in seen:
        assert len(fields) == len(set(fields)), (name, salt, fields)
    assert {name for name, _, _ in seen} == {
        "score_salt_bm25", "score_salt_indri", "score_salt_bm25f"}
    assert any(sorted(fields) == ["body", "title"] for _, _, fields in seen)
    # a per-run lookup would show: some salt holds several body runs
    terms = ["fast", "sort", "merge", "hash", "join", "dup", "line", "key"]
    assert any(len(docs_index.runs(terms, ["body"], s)) > 1
               for s in range(D._n_salts(docs_index)))


def test_bag_of_words_is_the_term_only_structured_case(docs_index):
    """A bag-of-words batch is the term-only case of the structured
    plans: ``bm25_batch_search`` returns ``bm25_structured_batch_search``'s
    frame on the same texts, and ``indri_batch_search`` returns
    ``indri_structured_batch_search``'s frame on ``#and(...)``-wrapped
    texts, bit for bit: both parse to the same tree and score it with
    the same ``indri_tree`` expression."""
    from search_engines_ray.query.models import IndriModel
    d = docs_index.index_dir
    bm = D.bm25_batch_search(d, BOW, BM25Model(), k=20).to_pandas()
    assert len(bm) and bm.equals(D.bm25_structured_batch_search(
        d, BOW, BM25Model(), k=20).to_pandas())
    bow = D.indri_batch_search(d, BOW, IndriModel(), k=20).to_pandas()
    st = D.indri_structured_batch_search(
        d, [(q, f"#and({x})") for q, x in BOW], IndriModel(),
        k=20).to_pandas()
    assert len(bow) and bow.equals(st)


class _CountingRemote:
    """Stands in for a ``@ray.remote`` function and counts submissions."""

    def __init__(self, fn):
        self.fn, self.n = fn, 0

    def remote(self, *args):
        self.n += 1
        return self.fn.remote(*args)


def test_salt_ranges_leave_every_shape_unchanged(docs_index, toy_index,
                                                 monkeypatch):
    """A batch runs as ``min(n_salts, cluster CPUs)`` tasks, each over a
    contiguous range of salts. Every distributed entry shape returns the
    same frame with the range count forced to 1, to 2 and to n_salts,
    and each scoring or phase-A round submits one task per range."""
    import ray

    from search_engines_ray.query.models import IndriModel, TFIDFModel
    d, t = docs_index.index_dir, toy_index.index_dir
    structured = [("1", "#sum(#first/5(fast) sort merg*)"),
                  ("2", "#sum(#window/8(hash join) #syn(fast slow) *oin)")]
    wsum = [("1", "#wsum( 0.7 #and( dup line ) 0.3 #and( #near/1( dup "
                  "line ) ) )"), ("2", "#and(#syn(hash join) scan)")]
    searches = {
        "bm25": lambda: D.bm25_batch_search(d, BOW, BM25Model(), k=10),
        "tfidf": lambda: D.bm25_batch_search(d, BOW, TFIDFModel(), k=10),
        "msm": lambda: D.bm25_msm_batch_search(
            d, [(q, x, 2) for q, x in BOW], BM25Model(), k=10),
        "grid": lambda: D.bm25_grid_search(
            d, BOW, [(1.2, 0.75), (0.9, 0.3)], k=10),
        "champion": lambda: D.bm25_champion_search(d, BOW, m=5, k=10),
        "champion_all": lambda: D.bm25_champion_search(d, BOW, m=10**6,
                                                       k=10),
        "indri": lambda: D.indri_batch_search(d, BOW, IndriModel(), k=10),
        "structured": lambda: D.bm25_structured_batch_search(
            d, structured, BM25Model(), k=10),
        "indri_wsum": lambda: D.indri_structured_batch_search(
            d, wsum, IndriModel(), k=10),
        "two_fields": lambda: D.bm25_structured_batch_search(
            t, [("a", "#sum(quick fox.title #near/1(quick brown))")],
            BM25Model(), k=5),
        "bm25f": lambda: D.bm25f_batch_search(
            t, [("a", "quick fox"), ("b", "lazy cat")],
            weights={"body": 1.0, "title": 2.0}, k=5),
    }
    want = {name: f().to_pandas() for name, f in searches.items()}
    assert all(len(w) for w in want.values())
    cpus = int(ray.cluster_resources()["CPU"])
    widths = []
    run = D._run_salt_tasks

    def recording(kernel, spec, reader):
        widths.append((len(D._salt_ranges(reader)), D._n_salts(reader)))
        return run(kernel, spec, reader)

    monkeypatch.setattr(D, "_run_salt_tasks", recording)
    for forced in (None, 1, 2, 10**6):
        if forced is not None:
            monkeypatch.setattr(D, "pool_size", lambda floor=1, n=forced: n)
        for name, f in searches.items():
            score = _CountingRemote(D.score_salts)
            derive = _CountingRemote(D.derive_salts)
            monkeypatch.setattr(D, "score_salts", score)
            monkeypatch.setattr(D, "derive_salts", derive)
            widths.clear()
            assert f().to_pandas().equals(want[name]), (forced, name)
            monkeypatch.setattr(D, "score_salts", score.fn)
            monkeypatch.setattr(D, "derive_salts", derive.fn)
            n_salts = widths[0][1]
            per_round = min(n_salts, cpus if forced is None else forced)
            assert all(w == (per_round, n_salts) for w in widths), name
            assert score.n == per_round * len(widths), (forced, name)
            phase_a = name in ("structured", "indri_wsum", "two_fields")
            assert derive.n == per_round * phase_a, (forced, name)
