"""merge_indexes: a merged pair of half-corpus indexes must answer
every read / search / distributed-scoring path identically to an index
built over the whole corpus in one pass (external-id level — internal
docids may permute across builds)."""

import numpy as np
import pandas as pd
import pytest

import ray

from .conftest import _toy_pages


@pytest.fixture(scope="module")
def merged_and_full(tmp_path_factory, ray_session):
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index, merge_indexes)

    pages = _toy_pages()
    root = tmp_path_factory.mktemp("merge_idx")
    cfg = dict(fields={"body": "text", "title": "title"},
               num_buckets=4, docid_partitions=2, merge_salts=2,
               tokenize_concurrency=2)
    # the toy corpus's duplicate url must stay within ONE segment:
    # build-plane dedup is per build, and merge (like a Lucene segment
    # merge) concatenates doc spaces — cross-segment dedup is the
    # caller's job (exact_dedup / semijoin upstream).
    dirs = {}
    for name, df in (("full", pages), ("a", pages.iloc[[0, 1, 2, 3, 7]]),
                     ("b", pages.iloc[4:7])):
        d = str(root / name)
        build_index(rd.from_pandas(df.reset_index(drop=True)), d,
                    IndexBuildConfig(**cfg), input_token=name, resume=False)
        dirs[name] = d
    dirs["m"] = str(root / "m")
    merge_indexes(dirs["a"], dirs["b"], dirs["m"])
    return {k: IndexReader(d) for k, d in dirs.items()} | {"dirs": dirs}


def _by_ext(reader, term, field="body"):
    """posting list keyed by external id: {ext: (tf, positions)}."""
    p = reader.postings(term, field)
    if p is None:
        return {}
    exts = reader.external_ids()[p.docids]
    out, off = {}, 0
    for e, tf in zip(exts, p.tfs):
        out[e] = (int(tf), tuple(p.positions[off:off + tf]))
        off += tf
    return out


def test_merged_stats_match_full(merged_and_full):
    m, f = merged_and_full["m"], merged_and_full["full"]
    assert m.n_docs == f.n_docs
    for fld in f.fields:
        assert m.doc_count(fld) == f.doc_count(fld)
        assert m.sum_field_lengths(fld) == f.sum_field_lengths(fld)
    # salts/pids add across segments
    a, b = merged_and_full["a"], merged_and_full["b"]
    assert m.stats["merge_salts"] == (a.stats["merge_salts"]
                                      + b.stats["merge_salts"])
    assert m.pid_offsets[-1] == m.n_docs


def test_merged_postings_match_full(merged_and_full):
    m, f = merged_and_full["m"], merged_and_full["full"]
    for term in ("quick", "fox", "lazy", "cat", "running"):
        assert _by_ext(m, term) == _by_ext(f, term), term
    assert _by_ext(m, "fox", "title") == _by_ext(f, "fox", "title")
    # df/ctf via the engine-facing aggregate
    pm, pf = m.postings("fox", "body"), f.postings("fox", "body")
    assert (pm.df, pm.ctf) == (pf.df, pf.ctf)


def test_merged_docid_space_dense(merged_and_full):
    m = merged_and_full["m"]
    ids = m.external_ids()
    assert len(ids) == m.n_docs
    assert all(isinstance(e, str) and e for e in ids)
    assert len(set(ids)) == m.n_docs


def test_merged_search_matches_full(merged_and_full):
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel
    m, f = merged_and_full["m"], merged_and_full["full"]
    for model in (BM25Model(k1=1.2, b=0.75),
                  IndriModel(mu=1000, lambda_=0.3)):
        em = QueryEngine(m, model).search("quick fox lazy", k=10)
        ef = QueryEngine(f, model).search("quick fox lazy", k=10)
        assert em["external_id"].to_pylist() == ef["external_id"].to_pylist()
        assert np.allclose(em["score"].to_numpy(), ef["score"].to_numpy(),
                           rtol=0, atol=1e-12)


def test_merged_distributed_matches_full(merged_and_full):
    from search_engines_ray.query.distributed import bm25_batch_search
    dirs = merged_and_full["dirs"]
    qs = [("q1", "quick fox"), ("q2", "lazy cat dog")]
    tm = bm25_batch_search(dirs["m"], qs, k=5).to_pandas()
    tf_ = bm25_batch_search(dirs["full"], qs, k=5).to_pandas()
    cols = ["qid", "external_id"]
    pd.testing.assert_frame_equal(
        tm[cols].reset_index(drop=True), tf_[cols].reset_index(drop=True))
    assert np.allclose(tm["score"], tf_["score"], rtol=0, atol=1e-12)


def test_merge_rejects_mismatched_config(tmp_path, ray_session):
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, build_index, merge_indexes)
    pages = _toy_pages().iloc[:3]
    d1, d2 = str(tmp_path / "x"), str(tmp_path / "y")
    build_index(rd.from_pandas(pages.reset_index(drop=True)), d1,
                IndexBuildConfig(fields={"body": "text"}, num_buckets=4,
                                 docid_partitions=2, merge_salts=2),
                input_token="x", resume=False)
    build_index(rd.from_pandas(pages.reset_index(drop=True)), d2,
                IndexBuildConfig(fields={"body": "text"}, num_buckets=8,
                                 docid_partitions=2, merge_salts=2),
                input_token="y", resume=False)
    with pytest.raises(ValueError, match="num_buckets"):
        merge_indexes(d1, d2, str(tmp_path / "z"))


def test_compact_restores_salt_budget(merged_and_full, tmp_path):
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.merge import compact_index
    dirs = merged_and_full["dirs"]
    out = str(tmp_path / "compacted")
    stats = compact_index(dirs["m"], out, merge_salts=2, num_parts=4)
    assert stats["merge_salts"] == 2
    c, f = IndexReader(out), merged_and_full["full"]
    assert c.n_docs == f.n_docs
    # postings identical at external-id level, positions included
    for term in ("quick", "fox", "lazy", "cat"):
        assert _by_ext(c, term) == _by_ext(f, term), term
    # every run's salt is within the new budget and runs stay disjoint
    meta = c.postings_meta(["quick", "fox", "lazy", "cat"], "body")
    assert meta["salt"].to_pandas().between(0, 1).all()


def test_compact_search_matches_full(merged_and_full, tmp_path):
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.merge import compact_index
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model
    dirs = merged_and_full["dirs"]
    out = str(tmp_path / "compacted2")
    compact_index(dirs["m"], out, merge_salts=3, num_parts=2)
    ec = QueryEngine(IndexReader(out), BM25Model()).search("quick fox lazy", k=10)
    ef = QueryEngine(merged_and_full["full"], BM25Model()).search(
        "quick fox lazy", k=10)
    assert ec["external_id"].to_pylist() == ef["external_id"].to_pylist()
    assert np.allclose(ec["score"].to_numpy(), ef["score"].to_numpy(),
                       rtol=0, atol=1e-12)


def test_compact_distributed_matches_full(merged_and_full, tmp_path):
    from search_engines_ray.index.merge import compact_index
    from search_engines_ray.query.distributed import bm25_batch_search
    dirs = merged_and_full["dirs"]
    out = str(tmp_path / "compacted3")
    compact_index(dirs["m"], out, merge_salts=2, num_parts=4)
    qs = [("q1", "quick fox"), ("q2", "lazy cat dog")]
    tc = bm25_batch_search(out, qs, k=5).to_pandas()
    tf_ = bm25_batch_search(dirs["full"], qs, k=5).to_pandas()
    assert tc["external_id"].tolist() == tf_["external_id"].tolist()
    assert np.allclose(tc["score"], tf_["score"], rtol=0, atol=1e-12)


# ------------------------------------------------------------ delete/purge

@pytest.fixture()
def deletable_index(tmp_path, ray_session):
    """A fresh full-corpus index the delete tests may mutate."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index)
    d = str(tmp_path / "del_idx")
    build_index(rd.from_pandas(_toy_pages()), d,
                IndexBuildConfig(fields={"body": "text", "title": "title"},
                                 num_buckets=4, docid_partitions=2,
                                 merge_salts=2, tokenize_concurrency=2),
                input_token="del", resume=False)
    return d


def test_tombstone_masks_search(deletable_index):
    from search_engines_ray.index import IndexReader, delete_docs
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model
    r = IndexReader(deletable_index)
    before = QueryEngine(r, BM25Model()).search("fox", k=10)
    top = before["external_id"].to_pylist()[0]
    n = delete_docs(deletable_index, [top, "http://no.such/url"])
    assert n == 1
    after = QueryEngine(r, BM25Model()).search("fox", k=10)
    assert top not in after["external_id"].to_pylist()
    # survivors keep their as-built scores (stats unchanged until purge)
    kept = {e: s for e, s in zip(before["external_id"].to_pylist(),
                                 before["score"].to_pylist()) if e != top}
    got = dict(zip(after["external_id"].to_pylist(),
                   after["score"].to_pylist()))
    assert got == kept
    # idempotent union
    assert delete_docs(deletable_index, [top]) == 1


def test_purge_equals_fresh_build(deletable_index, tmp_path, ray_session):
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index, compact_index,
        delete_docs)
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel

    pages = _toy_pages()
    gone = ["http://t.example.com/2", "http://t.example.com/5"]
    delete_docs(deletable_index, gone)
    out = str(tmp_path / "purged")
    stats = compact_index(deletable_index, out, merge_salts=2, num_parts=4)
    assert stats["purged_deletes"] == 2

    fresh = str(tmp_path / "fresh")
    live = pages[~pages["url"].isin(gone)].reset_index(drop=True)
    build_index(rd.from_pandas(live), fresh,
                IndexBuildConfig(fields={"body": "text", "title": "title"},
                                 num_buckets=4, docid_partitions=2,
                                 merge_salts=2, tokenize_concurrency=2),
                input_token="fresh", resume=False)

    p, f = IndexReader(out), IndexReader(fresh)
    assert p.n_docs == f.n_docs
    for fld in f.fields:
        assert p.doc_count(fld) == f.doc_count(fld)
        assert p.sum_field_lengths(fld) == f.sum_field_lengths(fld)
    for term in ("quick", "fox", "lazy", "cat"):
        assert _by_ext(p, term) == _by_ext(f, term), term
    # post-purge rankings equal a fresh build over the survivors —
    # statistics fully refreshed, not just masked
    for model in (BM25Model(), IndriModel(mu=1000, lambda_=0.3)):
        ep = QueryEngine(p, model).search("quick fox lazy", k=10)
        ef = QueryEngine(f, model).search("quick fox lazy", k=10)
        assert ep["external_id"].to_pylist() == ef["external_id"].to_pylist()
        assert np.allclose(ep["score"].to_numpy(), ef["score"].to_numpy(),
                           rtol=0, atol=1e-12)


def test_positionless_lifecycle(tmp_path, ray_session):
    """store_positions=False through the WHOLE segment lifecycle:
    half builds → merge → tombstone → compact purge — BM25 equal to a
    fresh positionless build over the survivors."""
    import numpy as np
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index, compact_index,
        delete_docs, merge_indexes)
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model

    pages = _toy_pages()
    cfg = dict(fields={"body": "text"}, num_buckets=4,
               docid_partitions=2, merge_salts=2, store_positions=False)

    def build(d, df, token):
        build_index(rd.from_pandas(df.reset_index(drop=True)), d,
                    IndexBuildConfig(**cfg), input_token=token,
                    resume=False)
        return d

    a = build(str(tmp_path / "a"), pages.iloc[[0, 1, 2, 3, 7]], "a")
    b = build(str(tmp_path / "b"), pages.iloc[4:7], "b")
    m = str(tmp_path / "m")
    merge_indexes(a, b, m)
    gone = ["http://t.example.com/5"]
    delete_docs(m, gone)
    out = str(tmp_path / "purged")
    compact_index(m, out, merge_salts=2, num_parts=4)

    fresh = build(str(tmp_path / "fresh"),
                  pages[~pages["url"].isin(gone)], "fresh")
    p, f = IndexReader(out), IndexReader(fresh)
    assert p.stats["positions"] is False
    assert p.n_docs == f.n_docs
    ep = QueryEngine(p, BM25Model()).search("quick fox lazy", k=10)
    ef = QueryEngine(f, BM25Model()).search("quick fox lazy", k=10)
    assert ep["external_id"].to_pylist() == ef["external_id"].to_pylist()
    assert np.allclose(ep["score"].to_numpy(), ef["score"].to_numpy(),
                       rtol=0, atol=1e-12)


def test_federated_matches_full(merged_and_full):
    """FederatedEngine over the two segments must rank identically to
    the ONE-PASS full build (same global stats by addition) for BM25,
    Indri and ranked boolean — the virtual (MultiReader) counterpart of
    the physical-merge parity above. Also: engine reuse across queries
    (the shared df/ctf cache) and the r5 structured/wildcard paths
    (two-phase derived stats at segment grain, union-vocab rewrite)."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.federated import FederatedEngine
    from search_engines_ray.query.models import (
        BM25Model, IndriModel, RankedBooleanModel)

    segs = [merged_and_full["a"], merged_and_full["b"]]
    full = merged_and_full["full"]
    queries = ["quick fox lazy", "#and(lazy cat)", "fox.title brown",
               "#wsum(0.7 fox 0.3 cat)"]
    for model in (BM25Model(k1=1.2, b=0.75), IndriModel(mu=2500, lambda_=0.4),
                  RankedBooleanModel()):
        fed = FederatedEngine(segs, model)
        ref = QueryEngine(full, model)
        for q in queries:
            if model.default_op is None and " " in q and not q.startswith("#"):
                continue
            try:
                want = ref.search(q, k=10)
            except ValueError:
                continue  # model/op mismatch (e.g. #wsum under BM25)
            got = fed.search(q, k=10)
            assert got["external_id"].to_pylist() == \
                want["external_id"].to_pylist(), (type(model).__name__, q)
            assert got["score"].to_pylist() == want["score"].to_pylist(), \
                (type(model).__name__, q)
    # r5: the former v1 guards became parity cases — positional /
    # derived subtrees score with CROSS-SEGMENT derived df/ctf
    # (QryIop.getDf/getCtf over the merged index), wildcards expand
    # over the UNION vocabulary; both must be merge-identical
    structured = [
        (BM25Model(k1=1.2, b=0.75), "#sum(#near/1(quick fox) lazy)"),
        (BM25Model(k1=1.2, b=0.75), "#sum(#window/3(quick lazy) cat)"),
        (BM25Model(k1=1.2, b=0.75), "#sum(#syn(quick fox) lazy)"),
        (BM25Model(k1=1.2, b=0.75), "qui*"),
        (BM25Model(k1=1.2, b=0.75), "quik~1"),
        (BM25Model(k1=1.2, b=0.75), "/qu.*k/"),
        (BM25Model(k1=1.2, b=0.75), "#sum(#near/1(quick fo*))"),
        (IndriModel(mu=2500, lambda_=0.4),
         "#wand(0.7 #and(quick fox) 0.3 #and(#near/1(quick fox)))"),
        (IndriModel(mu=2500, lambda_=0.4),
         "#wand(0.6 #and(quick fox) 0.2 #and(#near/1(quick fox)) "
         "0.2 #and(#window/8(quick fox)))"),
    ]
    for model, q in structured:
        fed = FederatedEngine(segs, model)
        got = fed.search(q, k=10)
        want = QueryEngine(full, model).search(q, k=10)
        assert got["external_id"].to_pylist() == \
            want["external_id"].to_pylist(), (type(model).__name__, q)
        assert got["score"].to_pylist() == want["score"].to_pylist(), \
            (type(model).__name__, q)
    # engine reuse: the derived-stats cache must stay valid across
    # queries sharing an Iop subtree (index property, like _df_ctf)
    fed = FederatedEngine(segs, BM25Model(k1=1.2, b=0.75))
    for q in ("#sum(#near/1(quick fox) lazy)",
              "#sum(#near/1(quick fox) cat)"):
        got = fed.search(q, k=10)
        want = QueryEngine(full, BM25Model(k1=1.2, b=0.75)).search(q, k=10)
        assert got["score"].to_pylist() == want["score"].to_pylist(), q


def test_federated_derived_lists_live_one_search(merged_and_full):
    """Derived lists phase A hands to phase B are dropped when the
    search returns, for routed-away segments too: 200 distinct #NEAR
    shapes leave every engine's derived-list cache empty."""
    from search_engines_ray.query.federated import FederatedEngine
    from search_engines_ray.query.models import BM25Model

    fed = FederatedEngine([merged_and_full["a"], merged_and_full["b"]],
                          BM25Model())
    for n in range(1, 201):
        # odd n: both segments derive the list; even n: only segment a
        # holds 'quick' and 'lazy', so phase A pins an empty list in b
        # and routing then skips b
        q = f"#sum(#near/{n}(quick fox) lazy)" if n % 2 else \
            f"#sum(#near/{n}(quick lazy))"
        fed.search(q, k=10)
        assert fed.last_skipped == 1 - n % 2, q
        assert all(not eng._iop_inv_cache for eng in fed._engines), q


def test_federated_segment_routing(merged_and_full):
    """Shard selection: a segment with zero local postings for every
    query term is skipped for BM25/boolean (exact — candidates are
    posting subsets), never for Indri (default scores rank everywhere);
    results stay identical to the unrouted full-index search."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.federated import FederatedEngine
    from search_engines_ray.query.models import BM25Model, IndriModel

    segs = [merged_and_full["a"], merged_and_full["b"]]
    full = merged_and_full["full"]
    # 'jumps' occurs only in segment a (url /1); segment b routes away
    fed = FederatedEngine(segs, BM25Model())
    got = fed.search("jumps", k=10)
    assert fed.last_skipped == 1
    want = QueryEngine(full, BM25Model()).search("jumps", k=10)
    assert got["external_id"].to_pylist() == want["external_id"].to_pylist()
    assert got["score"].to_pylist() == want["score"].to_pylist()
    # both segments hold 'fox' (urls /1 and /5): nothing skipped
    fed.search("fox", k=10)
    assert fed.last_skipped == 0
    # all terms unindexed: every segment routes away, empty result
    assert fed.search("zzzzzzq", k=10).num_rows == 0
    assert fed.last_skipped == 2
    # Indri never skips — and matches the full index with routing off
    fi = FederatedEngine(segs, IndriModel(mu=2500, lambda_=0.4))
    gi = fi.search("jumps cat", k=10)
    assert fi.last_skipped == 0
    wi = QueryEngine(full, IndriModel(mu=2500, lambda_=0.4)).search(
        "jumps cat", k=10)
    assert gi["external_id"].to_pylist() == wi["external_id"].to_pylist()
    assert gi["score"].to_pylist() == wi["score"].to_pylist()
    # negation composes: per-segment MUST_NOT, routing on positives
    fb = FederatedEngine(segs, BM25Model())
    gn = fb.search("quick lazy -fox", k=10)
    wn = QueryEngine(full, BM25Model()).search("quick lazy -fox", k=10)
    assert gn["external_id"].to_pylist() == wn["external_id"].to_pylist()
    assert gn["score"].to_pylist() == wn["score"].to_pylist()


def test_federated_early_termination(merged_and_full):
    """UB-ordered early stop: identical results to the unstopped
    search for every query, and a skewed query ('fox' mass lives in
    segment b's url /5, tf=3) actually terminates early when k is
    small."""
    from search_engines_ray.query.federated import FederatedEngine
    from search_engines_ray.query.models import BM25Model

    segs = [merged_and_full["a"], merged_and_full["b"]]
    fed = FederatedEngine(segs, BM25Model())
    for q, kk in [("fox", 1), ("quick fox lazy", 2), ("lazy cat", 10),
                  ("fox fox den", 1)]:
        plain = fed.search(q, k=kk)
        fast = fed.search(q, k=kk, early_stop=True)
        assert fast["external_id"].to_pylist() == \
            plain["external_id"].to_pylist(), q
        assert fast["score"].to_pylist() == plain["score"].to_pylist(), q
    # 'den' exists only in segment b: segment a routes away entirely
    # (routing, not UB); UB stop never fires on one live segment
    fed.search("den", k=1, early_stop=True)
    assert fed.last_skipped == 1 and fed.last_early_stopped == 0
    # k=1 'fox': whichever segment bounds higher is searched first; if
    # its kth beats the other's UB the second never runs
    fed.search("fox", k=1, early_stop=True)
    assert fed.last_early_stopped in (0, 1)   # exactness is the hard bar


def test_upsert_then_compact_equals_rebuild(tmp_path, ray_session):
    """upsert_docs (update=delete+add, deletes-until-merge) followed by
    compact_index must equal a fresh one-pass build over the effective
    'latest version wins' corpus — the full incremental-update
    lifecycle, statistics refreshed, not just masked."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index, compact_index)
    from search_engines_ray.index.merge import upsert_docs
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel

    pages = _toy_pages().iloc[:7]   # unique urls
    cfg = dict(fields={"body": "text", "title": "title"},
               num_buckets=4, docid_partitions=2, merge_salts=2,
               tokenize_concurrency=2)
    main = str(tmp_path / "main")
    build_index(rd.from_pandas(pages), main, IndexBuildConfig(**cfg),
                input_token="main", resume=False)

    # segment: doc 2 updated in place, doc 9 brand-new
    seg = pd.DataFrame(
        [("http://t.example.com/2", "a quick brown dog sat on the fox",
          "brown dog"),
         ("http://t.example.com/9", "fresh fox news about lazy cats",
          "fresh news")],
        columns=["url", "text", "title"])
    up = str(tmp_path / "up")
    upsert_docs(main, rd.from_pandas(seg), up, IndexBuildConfig(**cfg),
                input_token="seg")

    # tombstone masking: the OLD doc-2 text's unique term is invisible,
    # the new version and the new doc are live
    u = IndexReader(up)
    assert u.deleted_docids().size == 1
    eng = QueryEngine(u, BM25Model())
    assert "http://t.example.com/9" in \
        eng.search("fresh", k=5)["external_id"].to_pylist()
    got = eng.search("mat", k=5)["external_id"].to_pylist()
    assert got == []    # 'mat' only existed in the stale doc-2 version

    # compact → equals a fresh build over the effective corpus
    comp = str(tmp_path / "comp")
    compact_index(up, comp, merge_salts=2, num_parts=4)
    eff = pd.concat([pages[pages["url"] != "http://t.example.com/2"], seg],
                    ignore_index=True)
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_pandas(eff), fresh, IndexBuildConfig(**cfg),
                input_token="fresh", resume=False)
    c, f = IndexReader(comp), IndexReader(fresh)
    assert c.n_docs == f.n_docs
    for fld in f.fields:
        assert c.doc_count(fld) == f.doc_count(fld)
        assert c.sum_field_lengths(fld) == f.sum_field_lengths(fld)
    for term in ("quick", "fox", "lazy", "cat", "fresh", "mat"):
        assert _by_ext(c, term) == _by_ext(f, term), term
    for model in (BM25Model(), IndriModel(mu=1000, lambda_=0.3)):
        ec = QueryEngine(c, model).search("quick fox lazy", k=10)
        ef = QueryEngine(f, model).search("quick fox lazy", k=10)
        assert ec["external_id"].to_pylist() == ef["external_id"].to_pylist()
        assert np.allclose(ec["score"].to_numpy(), ef["score"].to_numpy(),
                           rtol=0, atol=1e-12)


def test_update_attributes_rewrites_one_column(tmp_path, ray_session):
    """update_attributes bumps only the named doc-value for the listed
    external ids; other docs, other attributes, postings and stats are
    byte-identical."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index)
    from search_engines_ray.index.merge import update_attributes

    pages = _toy_pages().iloc[:7].copy()
    pages["rank_hint"] = np.arange(7, dtype=np.int64)
    pages["spam"] = np.int64(0)
    src = str(tmp_path / "src")
    build_index(rd.from_pandas(pages), src,
                IndexBuildConfig(fields={"body": "text"}, num_buckets=4,
                                 docid_partitions=2, merge_salts=2,
                                 attributes={"hint": "rank_hint",
                                             "spam": "spam"},
                                 tokenize_concurrency=2),
                input_token="src", resume=False)
    out = str(tmp_path / "upd")
    n = update_attributes(src, out, "spam",
                          {"http://t.example.com/2": 9,
                           "http://t.example.com/5": 9,
                           "http://t.example.com/404": 9})  # unknown: ignored
    assert n == 2
    s, u = IndexReader(src), IndexReader(out)
    docids = u.internal_docids_for([f"http://t.example.com/{i}"
                                    for i in range(1, 8)])
    got = u.attributes_for(np.asarray(docids), ["spam", "hint"])
    assert [int(x) for x in got["spam"]] == [0, 9, 0, 0, 9, 0, 0]
    # untouched attribute and postings identical
    assert [int(x) for x in got["hint"]] == \
        [int(x) for x in s.attributes_for(np.asarray(docids), ["hint"])["hint"]]
    for term in ("quick", "fox"):
        assert _by_ext(u, term) == _by_ext(s, term)
    assert u.n_docs == s.n_docs


def test_three_way_merge_equals_full(tmp_path, ray_session):
    """merge_indexes_many folds 3 segment builds in one pass; stats,
    postings and BM25/Indri rankings equal a one-pass full build."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index)
    from search_engines_ray.index.merge import merge_indexes_many
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel

    pages = _toy_pages().iloc[:7]     # unique urls
    cfg = dict(fields={"body": "text", "title": "title"},
               num_buckets=4, docid_partitions=2, merge_salts=2,
               tokenize_concurrency=2)
    dirs = []
    for i, sl in enumerate((pages.iloc[:3], pages.iloc[3:5],
                            pages.iloc[5:])):
        d = str(tmp_path / f"seg{i}")
        build_index(rd.from_pandas(sl.reset_index(drop=True)), d,
                    IndexBuildConfig(**cfg), input_token=f"s{i}",
                    resume=False)
        dirs.append(d)
    full = str(tmp_path / "full")
    build_index(rd.from_pandas(pages.reset_index(drop=True)), full,
                IndexBuildConfig(**cfg), input_token="full", resume=False)
    out = str(tmp_path / "m3")
    stats = merge_indexes_many(dirs, out)
    m, f = IndexReader(out), IndexReader(full)
    assert m.n_docs == f.n_docs
    assert stats["merge_salts"] == 6 and stats["docid_partitions"] == 6
    for fld in f.fields:
        assert m.doc_count(fld) == f.doc_count(fld)
        assert m.sum_field_lengths(fld) == f.sum_field_lengths(fld)
    for term in ("quick", "fox", "lazy", "cat"):
        assert _by_ext(m, term) == _by_ext(f, term), term
    for model in (BM25Model(), IndriModel(mu=1000, lambda_=0.3)):
        em = QueryEngine(m, model).search("quick fox lazy", k=10)
        ef = QueryEngine(f, model).search("quick fox lazy", k=10)
        assert em["external_id"].to_pylist() == ef["external_id"].to_pylist()
        assert np.allclose(em["score"].to_numpy(), ef["score"].to_numpy(),
                           rtol=0, atol=1e-12)


def test_snapshot_restore_roundtrip(toy_index, tmp_path):
    """snapshot → restore reproduces a query-identical, verifier-green
    index; the archive is byte-deterministic for identical inputs."""
    import hashlib as _hl
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.merge import restore_index, snapshot_index
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model

    tar1 = str(tmp_path / "a.tar")
    tar2 = str(tmp_path / "b.tar")
    info = snapshot_index(toy_index.index_dir, tar1)
    snapshot_index(toy_index.index_dir, tar2)
    assert info["files"] > 0 and info["bytes"] > 0
    h1 = _hl.md5(open(tar1, "rb").read()).hexdigest()
    h2 = _hl.md5(open(tar2, "rb").read()).hexdigest()
    assert h1 == h2                       # deterministic archive bytes

    out = str(tmp_path / "restored")
    checks = restore_index(tar1, out)
    assert checks["ok"]
    a = QueryEngine(toy_index, BM25Model()).search("quick fox", k=10)
    b = QueryEngine(IndexReader(out), BM25Model()).search("quick fox", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()

    # a truncated archive must fail verification loudly
    import tarfile
    raw = open(tar1, "rb").read()
    trunc = str(tmp_path / "trunc.tar")
    open(trunc, "wb").write(raw[: len(raw) * 2 // 3])
    bad_out = str(tmp_path / "bad")
    import pytest as _pytest
    with _pytest.raises(Exception):
        restore_index(trunc, bad_out)


def test_alias_flip_is_atomic(toy_index, tmp_path, ray_session):
    """point_alias swaps the serving target atomically; a reader opened
    through the alias serves the flipped-to index."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index)
    from search_engines_ray.index.merge import point_alias
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model

    other = str(tmp_path / "other")
    pages = _toy_pages().iloc[:3]
    build_index(rd.from_pandas(pages.reset_index(drop=True)), other,
                IndexBuildConfig(fields={"body": "text", "title": "title"},
                                 num_buckets=4, docid_partitions=2,
                                 merge_salts=2, tokenize_concurrency=2),
                input_token="other", resume=False)
    alias = str(tmp_path / "serving")
    point_alias(alias, toy_index.index_dir)
    assert IndexReader(alias).n_docs == toy_index.n_docs
    point_alias(alias, other)                      # the flip
    r2 = IndexReader(alias)
    assert r2.n_docs == 3
    got = QueryEngine(r2, BM25Model()).search("quick", k=10)
    assert got.num_rows > 0
    import pytest as _pytest
    with _pytest.raises(FileNotFoundError):
        point_alias(alias, str(tmp_path / "nope"))
    assert IndexReader(alias).n_docs == 3          # failed flip: unchanged


def test_full_lifecycle_compose(tmp_path, ray_session):
    """Day-in-the-life composition: build → upsert a crawl batch →
    compact (purge stale) → snapshot → restore (verified) → alias flip
    → search. The final ranking equals a fresh build over the
    effective corpus — every lifecycle piece composes."""
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index, compact_index)
    from search_engines_ray.index.merge import (
        point_alias, restore_index, snapshot_index, upsert_docs)
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model

    pages = _toy_pages().iloc[:7]
    cfg = dict(fields={"body": "text", "title": "title"},
               num_buckets=4, docid_partitions=2, merge_salts=2,
               tokenize_concurrency=2)
    main = str(tmp_path / "main")
    build_index(rd.from_pandas(pages), main, IndexBuildConfig(**cfg),
                input_token="main", resume=False)
    seg = pd.DataFrame(
        [("http://t.example.com/3", "updated dogs chase the quick fox",
          "updated"),
         ("http://t.example.com/9", "new page on lazy foxes", "new")],
        columns=["url", "text", "title"])
    up = str(tmp_path / "up")
    upsert_docs(main, rd.from_pandas(seg), up, IndexBuildConfig(**cfg),
                input_token="seg")
    comp = str(tmp_path / "comp")
    compact_index(up, comp, merge_salts=2, num_parts=4)
    tar = str(tmp_path / "seg.tar")
    snapshot_index(comp, tar)
    restored = str(tmp_path / "restored")
    checks = restore_index(tar, restored)
    assert checks["ok"]
    alias = str(tmp_path / "serving")
    point_alias(alias, restored)

    eff = pd.concat([pages[pages["url"] != "http://t.example.com/3"], seg],
                    ignore_index=True)
    fresh = str(tmp_path / "fresh")
    build_index(rd.from_pandas(eff), fresh, IndexBuildConfig(**cfg),
                input_token="fresh", resume=False)
    ea = QueryEngine(IndexReader(alias), BM25Model()).search(
        "quick fox lazy", k=10)
    ef = QueryEngine(IndexReader(fresh), BM25Model()).search(
        "quick fox lazy", k=10)
    assert ea["external_id"].to_pylist() == ef["external_id"].to_pylist()
    assert np.allclose(ea["score"].to_numpy(), ef["score"].to_numpy(),
                       rtol=0, atol=1e-12)


def test_union_vocab_cap_matches_merged(tmp_path, ray_session):
    """_UnionVocab's cut-to-max_terms over per-segment capped lists must
    equal the MERGED dictionary's capped expansion even when the union
    exceeds the budget (>64 prefix matches split across segments) —
    the exactness claim in its docstring, exercised at the boundary."""
    import pandas as pd
    import ray.data as rd

    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index,
    )
    from search_engines_ray.query.federated import _UnionVocab

    # 150 prefix-sharing terms, interleaved across two segments so each
    # segment's capped top-64 differs from the union's top-64
    terms = [f"zz{i:03d}" for i in range(150)]
    rows = [{"url": f"http://x.example.com/{i}", "text": t,
             "title": t} for i, t in enumerate(terms)]
    df = pd.DataFrame(rows)
    cfg = dict(fields={"body": "text"}, num_buckets=4,
               docid_partitions=2, merge_salts=2)
    dirs = {}
    for name, part in (("full", df), ("a", df.iloc[::2]),
                       ("b", df.iloc[1::2])):
        d = str(tmp_path / name)
        build_index(rd.from_pandas(part.reset_index(drop=True)), d,
                    IndexBuildConfig(**cfg), input_token=name,
                    resume=False)
        dirs[name] = d
    full = IndexReader(dirs["full"])
    vocab = _UnionVocab([IndexReader(dirs["a"]), IndexReader(dirs["b"])])
    want = full.terms_with_prefix("zz", "body")
    got = vocab.terms_with_prefix("zz", "body")
    assert len(want) == 64 and got == want
    assert vocab.terms_with_substring("z0", "body") == \
        full.terms_with_substring("z0", "body")
    assert vocab.terms_with_suffix("9", "body") == \
        full.terms_with_suffix("9", "body")
    assert vocab.terms_matching_regex("zz0.*", "body") == \
        full.terms_matching_regex("zz0.*", "body")
    assert vocab.terms_within_distance("zz000", "body") == \
        full.terms_within_distance("zz000", "body")
