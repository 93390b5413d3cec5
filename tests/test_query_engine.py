"""Engine vs pure-Python-oracle parity (FIXTURES.md §3): rank- and
score-identical results per retrieval model over the toy corpus and the
500-doc sf0.001 documents corpus."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from search_engines_ray.query import (
    BM25Model, IndriModel, QueryEngine, RankedBooleanModel,
    UnrankedBooleanModel,
)
from search_engines_ray.query.parser import QueryParser

from .oracle import OracleIndex, oracle_search

MODELS = {
    "unranked": UnrankedBooleanModel(),
    "ranked": RankedBooleanModel(),
    "bm25": BM25Model(k1=1.2, b=0.75),
    "indri": IndriModel(mu=2500, lambda_=0.4),
}

TOY_QUERIES = [
    "quick fox",
    "lazy dog",
    "fox",
    "#near/1(quick brown)",
    "#near/2(lazy dog)",
    "#window/4(dog cat)",
    "#syn(dog cat)",
    "brown.title cat",
    "the of",                       # stopword-only
    "nonexistentterm",
]

STRUCTURED = {
    "unranked": ["#and(quick brown)", "#or(fox mat)", "#or(#and(lazy dog) cat)"],
    "ranked": ["#and(quick brown)", "#or(fox mat)", "#or(#and(lazy dog) cat)"],
    "bm25": ["#sum(quick brown fox)", "#sum(#near/1(quick brown) fox)"],
    "indri": [
        "#and(quick fox)",
        "#wand( 0.7 #and( lazy dog ) 0.2 #and( #near/1( lazy dog ) ) "
        "0.1 #and( #window/8( lazy dog ) ) )",
        "#wsum( 0.5 fox 0.5 #near/1(brown cat) )",
    ],
}


def _compare(engine_t, oracle_rows, tol=1e-10):
    got = list(zip(engine_t["external_id"].to_pylist(),
                   engine_t["score"].to_pylist()))
    assert len(got) == len(oracle_rows), (got, oracle_rows)
    for (ge, gs), (oe, os) in zip(got, oracle_rows):
        assert ge == oe, (got, oracle_rows)
        assert gs == pytest.approx(os, abs=tol, rel=tol)


@pytest.fixture(scope="session")
def toy_oracle(toy_pages):
    return OracleIndex(toy_pages, fields={"body": "text", "title": "title"})


@pytest.mark.parametrize("model_name", list(MODELS))
def test_toy_parity(toy_index, toy_oracle, model_name):
    model = MODELS[model_name]
    engine = QueryEngine(toy_index, model)
    parser = QueryParser()
    for q in TOY_QUERIES + STRUCTURED[model_name]:
        res = engine.search(q, k=50)
        plan = parser.parse(q, model.default_op)
        exp = oracle_search(toy_oracle, plan, model, k=50)
        _compare(res, exp)


def test_trec_output(toy_index):
    from search_engines_ray.query.trec import format_trec
    engine = QueryEngine(toy_index, BM25Model())
    t = engine.run_queries([("1", "quick fox"), ("2", "zzz")], k=10)
    txt = format_trec(t, run_id="test")
    lines = [l for l in txt.strip().split("\n") if l]
    assert all(len(l.split("\t")) == 6 for l in lines)
    assert lines[0].split("\t")[0] == "1"


DOC_QUERIES = [
    "fast sort merge",
    "hash join",
    "#near/2(table scan)",
    "window",
    "#syn(sort merge) scan",
]
DOC_STRUCTURED = {
    "unranked": ["#and(fast sort)", "#or(hash scan)"],
    "ranked": ["#and(fast sort)", "#or(hash scan)"],
    "bm25": ["#sum(fast sort merge)", "#sum(#near/1(table scan) key)"],
    "indri": [
        "#and(fast sort)",
        "#wand( 0.7 #and( hash join ) 0.3 #and( #near/1( hash join ) ) )",
    ],
}


@pytest.mark.parametrize("model_name", list(MODELS))
def test_docs_parity(docs_index, docs_oracle, model_name):
    model = MODELS[model_name]
    engine = QueryEngine(docs_index, model)
    parser = QueryParser()
    for q in DOC_QUERIES + DOC_STRUCTURED[model_name]:
        res = engine.search(q, k=100)
        plan = parser.parse(q, model.default_op)
        exp = oracle_search(docs_oracle, plan, model, k=100)
        _compare(res, exp)


def test_rank_ordering_contract(docs_index):
    """score desc, external_id asc (ScoreList.java:87-114)."""
    engine = QueryEngine(docs_index, UnrankedBooleanModel())
    t = engine.search("#or(fast sort)", k=100)
    scores = np.array(t["score"].to_pylist())
    ids = t["external_id"].to_pylist()
    assert (np.diff(scores) <= 0).all()
    for i in range(len(ids) - 1):
        if scores[i] == scores[i + 1]:
            assert ids[i] < ids[i + 1]


def test_distributed_bm25_matches_driver_path(docs_index):
    """The Ray Data batch-scoring pipeline must be rank- and
    score-identical to the driver-side engine."""
    from search_engines_ray.query.distributed import bm25_batch_search
    model = BM25Model()
    engine = QueryEngine(docs_index, model)
    queries = [("1", "fast sort merge"), ("2", "hash join"), ("3", "window scan")]
    dist = bm25_batch_search(docs_index.index_dir, queries, model, k=50)
    dp = dist.to_pandas()
    for qid, q in queries:
        drv = engine.search(q, k=50).to_pandas()
        sub = dp[dp["qid"] == qid].reset_index(drop=True)
        assert list(sub["external_id"]) == list(drv["external_id"]), qid
        np.testing.assert_allclose(sub["score"], drv["score"], rtol=1e-12)


# Driver Indri scores of fixed queries as exact float hex. Every exponent
# here is 1 or 1/2 (numpy's `** 0.5` is sqrt), so the pins rest on
# correctly rounded IEEE operations only, not on a libm's pow.
INDRI_PINS = {
    "merge": [
        ("00000406", "0x1.1ecc37131712cp-5"),
        ("00000306", "0x1.1e20f2647e32cp-5"),
        ("00000468", "0x1.1adb55b60e3eap-5"),
        ("00000255", "0x1.1aa0879106168p-5"),
        ("00000494", "0x1.1a2fae4c7099cp-5")],
    "dup sort": [
        ("00000012", "0x1.feef113153d5fp-8"),
        ("00000082", "0x1.db5c3699e5b73p-8"),
        ("00000360", "0x1.db2cbed98b7d1p-8"),
        ("00000033", "0x1.b5b6189e6adddp-8"),
        ("00000114", "0x1.b5280ac7daf41p-8")],
    "#wsum( 0.6 dup 0.4 sort )": [
        ("00000012", "0x1.f1a930712e4fap-7"),
        ("00000405", "0x1.ee613b8dc7446p-7"),
        ("00000475", "0x1.ee42fba7d0137p-7"),
        ("00000360", "0x1.ed33cb0571010p-7"),
        ("00000160", "0x1.ed14ec95b6f55p-7")],
    "#wand( 0.5 #and( fast sort ) 0.5 #near/1( fast sort ) )": [
        ("00000075", "0x1.c0cde393b577ap-8"),
        ("00000442", "0x1.c0b8fa69ac3f2p-8"),
        ("00000223", "0x1.c0a1b094451aap-8"),
        ("00000085", "0x1.c0985cabdbbc4p-8"),
        ("00000025", "0x1.c05f87c9ec715p-8")],
    "#and( #syn(fast quick) #wsum( 0.3 dup 0.7 line ) )": [
        ("00000223", "0x1.d9b1de23696d9p-6"),
        ("00000085", "0x1.d811f48047302p-6"),
        ("00000204", "0x1.d6fc50577638dp-6"),
        ("00000443", "0x1.d4eb918b2689dp-6"),
        ("00000036", "0x1.d4441458d005cp-6")],
    "#wsum( 0.5 #and( hash join ) 0.5 #window/8( hash join ) )": [
        ("00000387", "0x1.725ac3634079ap-6"),
        ("00000406", "0x1.71e3941a4253ep-6"),
        ("00000022", "0x1.6f293529c2ed6p-6"),
        ("00000072", "0x1.6f293257ebdaep-6"),
        ("00000054", "0x1.6ee1cbac9b83ep-6")],
}


def test_driver_indri_scores_keep_their_bits(docs_index):
    """The driver's Indri scores, bit for bit: one leaf, a two-term
    #AND, a #WSUM, a #WAND over a positional leaf and #WSUM nested
    under #AND."""
    engine = QueryEngine(docs_index, IndriModel(mu=2500, lambda_=0.4))
    for q, want in INDRI_PINS.items():
        t = engine.search(q, k=5)
        got = [(x.rsplit("/", 1)[1], s.hex()) for x, s in
               zip(t["external_id"].to_pylist(), t["score"].to_pylist())]
        assert got == want, q


def _assert_same_as_driver(dist, engine, queries, k):
    """Each query's (external_id, score) rows of a batch frame equal the
    driver engine's, bit for bit."""
    cols = ["external_id", "score"]
    for qid, q in queries:
        drv = engine.search(q, k=k).to_pandas()[cols]
        sub = dist[dist["qid"] == qid].reset_index(drop=True)[cols]
        assert sub.equals(drv), (qid, q)


def test_distributed_indri_matches_driver_path(docs_index):
    """The salt kernel scores every candidate with the driver's own
    ``indri_tree`` expression over the same leaf scores, so batch
    Indri equals the driver engine bit for bit, including duplicate and
    absent query terms."""
    from search_engines_ray.query.distributed import indri_batch_search
    model = IndriModel(mu=2500, lambda_=0.4)
    engine = QueryEngine(docs_index, model)
    queries = [("1", "dup sort merge"), ("2", "dup line"),
               ("3", "dup dup line"), ("4", "nosuchterm dup")]
    dist = indri_batch_search(docs_index.index_dir, queries, model, k=50)
    _assert_same_as_driver(dist.to_pandas(), engine, queries, 50)


def test_distributed_structured_matches_driver_path(docs_index):
    """#NEAR/#WINDOW/#SYN evaluated inside per-salt map_groups (the salt
    layout co-locates every argument term's postings for a docid range)
    must be rank- and score-identical to the driver engine."""
    from search_engines_ray.query.distributed import (
        bm25_structured_batch_search,
    )
    model = BM25Model()
    engine = QueryEngine(docs_index, model)
    queries = [("1", "#sum(#near/2(fast sort) merge)"),
               ("2", "#sum(#window/8(hash join) table)"),
               ("3", "#sum(#syn(fast quick) dup)"),
               ("4", "dup line"),
               ("5", "#sum(#near/1(nosuch term) dup)"),
               ("6", "#sum(#near/2(fast sort) #near/2(fast sort) dup)")]
    dist = bm25_structured_batch_search(docs_index.index_dir, queries,
                                        model, k=30)
    dp = dist.to_pandas()
    for qid, q in queries:
        drv = engine.search(q, k=30).to_pandas()
        sub = dp[dp["qid"] == qid].reset_index(drop=True)
        assert list(sub["external_id"]) == list(drv["external_id"]), qid
        np.testing.assert_allclose(sub["score"], drv["score"], rtol=1e-12)


def test_distributed_structured_indri_matches_driver_path(docs_index):
    """SDM-class trees (#WAND/#AND over term + positional leaves) equal
    the driver engine bit for bit: each salt scores its candidates with
    the driver's tree expression."""
    from search_engines_ray.query.distributed import (
        indri_structured_batch_search,
    )
    model = IndriModel(mu=2500, lambda_=0.4)
    engine = QueryEngine(docs_index, model)
    queries = [
        ("1", "dup sort merge"),
        ("2", "#wand( 0.7 #and( fast sort ) 0.2 #and( #near/1( fast sort ) )"
              " 0.1 #and( #window/8( fast sort ) ) )"),
        ("3", "#wand( 0.6 dup 0.4 #syn(fast quick) )"),
        ("4", "#and( #near/2(dup line) merge )"),
        ("5", "#and( nosuchterm dup )"),
    ]
    dist = indri_structured_batch_search(docs_index.index_dir, queries,
                                         model, k=25)
    _assert_same_as_driver(dist.to_pandas(), engine, queries, 25)


def test_distributed_wsum_matches_driver_path(docs_index):
    """#WSUM (arithmetic mean) at any depth equals the driver engine bit
    for bit, including docs that match no leaf of a whole subtree
    (every leaf scores them with tf = 0), nested #WSUM and #WSUM below
    #AND."""
    from search_engines_ray.query.distributed import (
        indri_structured_batch_search,
    )
    model = IndriModel(mu=2500, lambda_=0.4)
    engine = QueryEngine(docs_index, model)
    queries = [
        ("1", "#wsum( 0.6 dup 0.4 sort )"),
        ("2", "#wsum( 0.7 #and( fast sort ) 0.2 #and( #near/1( fast sort ) )"
              " 0.1 #and( #window/8( fast sort ) ) )"),
        ("3", "#wsum( 0.5 #wsum( 0.5 dup 0.5 merge ) 0.5 #wand( 0.6 fast"
              " 0.4 sort ) )"),
        ("4", "#wsum( 0.9 nosuchterm 0.1 dup )"),
        ("5", "#wsum( 1.0 #and( dup merge ) )"),
        ("6", "#and( #syn(fast quick) #wsum( 0.3 dup 0.7 line ) )"),
    ]
    dist = indri_structured_batch_search(docs_index.index_dir, queries,
                                         model, k=25)
    _assert_same_as_driver(dist.to_pandas(), engine, queries, 25)


@pytest.fixture(scope="module")
def tie_index(tmp_path_factory, ray_session):
    """Three texts, 16 copies each under distinct urls, among 40 filler
    docs of varied lengths: every copy of a text ties mathematically
    with the others, and the copies spread over pids and salts."""
    import ray.data as rd

    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index,
    )
    texts = ["alpha beta gamma delta alpha", "beta gamma zeta zeta omega",
             "alpha delta epsilon beta gamma"]
    rows = [(f"http://tie.example.com/{t}-{i:02d}", text)
            for i in range(16) for t, text in enumerate(texts)]
    filler = ["alpha beta", "gamma", "delta zeta", "filler"]
    rows += [(f"http://tie.example.com/f{i:02d}",
              " ".join(filler[:1 + i % 4]
                       + [f"word{j}" for j in range(i % 7)]))
             for i in range(40)]
    idx = str(tmp_path_factory.mktemp("idx") / "ties")
    build_index(rd.from_pandas(pd.DataFrame(rows, columns=["url", "text"])),
                idx, IndexBuildConfig(num_buckets=4, docid_partitions=8,
                                      merge_salts=4),
                input_token="ties", resume=False)
    return IndexReader(idx)


def test_distributed_indri_ties_across_salts_match_driver(tie_index):
    """Mathematically tied docs in different salts and pids get the
    same bits on both paths, so batch and driver order them alike
    (score desc, external id asc): bag of words, perfbench's #WAND SDM
    shape, a #WSUM spine and a #WSUM nested under #AND, with k below
    every tie group."""
    from search_engines_ray.query import distributed as D
    model = IndriModel(mu=2500, lambda_=0.4)
    engine = QueryEngine(tie_index, model)
    queries = [
        ("bow", "alpha beta gamma"),
        ("sdm", "#wand( 0.7 #and( beta gamma ) 0.2 #and( #near/1( beta "
                "gamma ) ) 0.1 #and( #window/8( beta gamma ) ) )"),
        ("spine", "#wsum( 0.3 alpha 0.7 #and( beta gamma ) )"),
        ("nested", "#and( delta #wsum( 0.4 alpha 0.6 gamma ) )"),
    ]
    d = tie_index.index_dir
    dist = D.indri_structured_batch_search(d, queries, model,
                                           k=6).to_pandas()
    _assert_same_as_driver(dist, engine, queries, 6)
    bow = D.indri_batch_search(d, queries[:1], model, k=6).to_pandas()
    assert bow.equals(dist[dist["qid"] == "bow"].reset_index(drop=True))
    # each query's cut at k = 6 falls inside a tie group ...
    for _, q in queries:
        s = engine.search(q, k=100)["score"].to_numpy()
        assert (s == s[5]).sum() > (s[:6] == s[5]).sum(), q
    # ... of copies, whose 16 members sit in several pids and salts
    ids = tie_index.internal_docids_for(
        [f"http://tie.example.com/{t}-{i:02d}" for t in range(3)
         for i in range(16)])
    pid = np.searchsorted(tie_index.pid_offsets, ids, side="right") - 1
    n_pids = tie_index.pid_offsets.size - 1
    salt = pid * D._n_salts(tie_index) // n_pids
    for t in range(3):
        assert len(set(pid[16 * t:16 * t + 16])) > 2
        assert len(set(salt[16 * t:16 * t + 16])) > 1


def test_structured_distributed_tiny_block_size_parity(docs_index):
    """Regression (ADVICE r3, medium): phase B used to map over the
    derived dataset's blocks assuming block == salt; under a tiny
    ``target_max_block_size`` Ray Data splits a salt's output across
    blocks and the old design double-scored that salt's plain terms
    with partial Iop sums. The descriptor-driven phase B must stay
    parity-exact and emit no duplicate (qid, external_id) rows."""
    import ray.data as rd

    from search_engines_ray.query.distributed import (
        bm25_structured_batch_search, indri_structured_batch_search,
    )
    ctx = rd.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 64  # force aggressive block splitting
    try:
        model = BM25Model()
        engine = QueryEngine(docs_index, model)
        queries = [("1", "#sum(#near/2(fast sort) merge dup)"),
                   ("2", "#sum(#syn(fast quick) #window/8(hash join) dup)")]
        dist = bm25_structured_batch_search(
            docs_index.index_dir, queries, model, k=30).to_pandas()
        assert not dist.duplicated(["qid", "external_id"]).any()
        for qid, q in queries:
            drv = engine.search(q, k=30).to_pandas()
            sub = dist[dist["qid"] == qid].reset_index(drop=True)
            assert list(sub["external_id"]) == list(drv["external_id"]), qid
            np.testing.assert_allclose(sub["score"], drv["score"],
                                       rtol=1e-12)

        imodel = IndriModel(mu=2500, lambda_=0.4)
        iengine = QueryEngine(docs_index, imodel)
        iq = [("1", "#wand( 0.7 #and( fast sort ) 0.3 #and("
                    " #near/1( fast sort ) ) )")]
        idist = indri_structured_batch_search(
            docs_index.index_dir, iq, imodel, k=25).to_pandas()
        assert not idist.duplicated(["qid", "external_id"]).any()
        _assert_same_as_driver(idist, iengine, iq, 25)
    finally:
        ctx.target_max_block_size = old


def test_structured_distributed_multifield_parity(toy_index):
    """Distributed structured BM25 now routes field-qualified leaves
    with per-field df/doclen/avglen stats — rank- and score-identical
    to the driver engine on a mixed body+title query."""
    from search_engines_ray.query.distributed import bm25_structured_batch_search
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model

    q = "#sum(fox.title quick #near/2(brown fox))"
    engine = QueryEngine(toy_index, BM25Model())
    want = engine.search(q, k=5)
    got = bm25_structured_batch_search(toy_index.index_dir, [("1", q)], k=5)
    assert got["external_id"].to_pylist() == want["external_id"].to_pylist()
    assert got["score"].to_pylist() == pytest.approx(
        want["score"].to_pylist(), rel=1e-12)


def test_structured_distributed_rejects_other_fields_indri(docs_index):
    """Indri's distributed path still refuses field-qualified leaves
    (driver path handles them) — never silently score the wrong field."""
    from search_engines_ray.query.distributed import indri_structured_batch_search
    with pytest.raises(ValueError, match="field"):
        indri_structured_batch_search(
            docs_index.index_dir, [("1", "#and(fast.title sort)")], k=5)


def test_batch_search_rejects_duplicate_qids(docs_index):
    """A repeated qid would silently merge two queries' term sets under
    one packed qcode (ADVICE r1), and a batch past the qcode bits would
    wrap into other queries' keys — both must raise instead."""
    from search_engines_ray.query.distributed import (
        bm25_batch_search, indri_batch_search,
    )
    for fn in (bm25_batch_search, indri_batch_search):
        with pytest.raises(ValueError, match="duplicate qids"):
            fn(docs_index.index_dir, [("1", "dup"), ("1", "line")], k=5)
        # a qcode has the 19 bits above the packed key's 44 docid bits
        with pytest.raises(ValueError, match="packed key space"):
            fn(docs_index.index_dir, [(str(i), "dup")
                                      for i in range(1 << 19)], k=5)


# ------------------------------------------------------------ prefix terms

def test_prefix_expansion(toy_index):
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import RankedBooleanModel
    eng = QueryEngine(toy_index, RankedBooleanModel())
    # vocabulary scan: qu* covers quick/quickly (lucene KStem may fold)
    terms = toy_index.terms_with_prefix("qu", "body")
    assert terms and all(t.startswith("qu") for t in terms)
    # fo* expands to fox; the scored result equals the plain-term query
    a = eng.search("fo*", k=10)
    b = eng.search("fox", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # multi-match prefix behaves as a #SYN of the expansions
    c = eng.search("#syn(" + " ".join(terms) + ")", k=10)
    d = eng.search("qu*", k=10)
    assert c["external_id"].to_pylist() == d["external_id"].to_pylist()
    # zero-match prefix returns no hits, no crash
    assert eng.search("zzzq*", k=10).num_rows == 0
    # cap respected
    assert len(toy_index.terms_with_prefix("", "body")) == 0
    assert len(toy_index.terms_with_prefix("q", "body", max_terms=1)) == 1


def test_fuzzy_expansion(toy_index):
    """``term~d`` (Lucene FuzzyQuery syntax) expands to a #SYN of
    vocabulary terms within unit-cost edit distance d, ordered
    (distance, term), capped."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import RankedBooleanModel
    eng = QueryEngine(toy_index, RankedBooleanModel())
    # distance ordering: the exact term sorts before its 1-edit ball
    hits = toy_index.terms_within_distance("fox", "body", 1)
    assert hits[0] == "fox"
    # a misspelling scores identically to the term it corrects to
    # (fax: 1 edit from fox, >2 from everything else in the toy vocab)
    a = eng.search("fax~1", k=10)
    b = eng.search("fox", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # bare ~ means distance 2 (Lucene default)
    c = eng.search("fax~", k=10)
    d2 = toy_index.terms_within_distance("fax", "body", 2)
    e = eng.search("#syn(" + " ".join(d2) + ")", k=10)
    assert c["external_id"].to_pylist() == e["external_id"].to_pylist()
    # zero matches: no hits, no crash
    assert eng.search("zzzzzzzq~1", k=10).num_rows == 0
    # cap respected and deterministic under the (distance, term) order
    assert len(toy_index.terms_within_distance("fox", "body", 2,
                                               max_terms=1)) == 1
    # marker composes with structured ops
    f = eng.search("#or(fax~1 lazy)", k=10)
    g = eng.search("#or(fox lazy)", k=10)
    assert f["score"].to_pylist() == g["score"].to_pylist()


def test_phrase_query(toy_index):
    """Quoted phrase == explicit #NEAR/1, including 3-term phrases and
    composition under BM25 #SUM."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, RankedBooleanModel
    eng = QueryEngine(toy_index, RankedBooleanModel())
    a = eng.search('"quick brown fox"', k=10)
    b = eng.search("#near/1(quick brown fox)", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    assert a.num_rows > 0
    bm = QueryEngine(toy_index, BM25Model())
    c = bm.search('#sum("quick brown" lazy)', k=10)
    d = bm.search("#sum(#near/1(quick brown) lazy)", k=10)
    assert c["external_id"].to_pylist() == d["external_id"].to_pylist()
    assert c["score"].to_pylist() == d["score"].to_pylist()


def test_phrase_slop_and_negation(toy_index):
    """Sloppy phrase == explicit #NEAR/n; -term == anti-filter on the
    candidates (Lucene MUST_NOT), pure-negative matches nothing."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model
    eng = QueryEngine(toy_index, BM25Model())
    a = eng.search('#sum("quick fox"~2 lazy)', k=10)
    b = eng.search("#sum(#near/2(quick fox) lazy)", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # negation: the anti-set is removed, surviving scores unchanged
    full = eng.search("quick lazy", k=10)
    negd = eng.search("quick lazy -fox", k=10)
    banned = {e for e in eng.search("fox", k=100)["external_id"].to_pylist()}
    kept = [e for e in full["external_id"].to_pylist() if e not in banned]
    assert negd["external_id"].to_pylist() == kept
    sc = dict(zip(full["external_id"].to_pylist(),
                  full["score"].to_pylist()))
    assert all(sc[e] == s for e, s in
               zip(negd["external_id"].to_pylist(),
                   negd["score"].to_pylist()))
    # pure-negative query matches nothing
    assert eng.search("-quick", k=10).num_rows == 0
    # negating an unindexed term is a no-op
    same = eng.search("quick lazy -zzzzzzq", k=10)
    assert same["external_id"].to_pylist() == full["external_id"].to_pylist()


def test_bm25f_single_field_reduces_to_bm25(toy_index):
    """BM25F over one field with w=1 is algebraically plain BM25:
    idf·(tf/B)/(k1 + tf/B) == idf·tf/(tf + k1·B). The engine's BM25
    search is the independent implementation being matched."""
    from search_engines_ray.query.bm25f import bm25f_search
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model
    eng = QueryEngine(toy_index, BM25Model(k1=1.2, b=0.75))
    a = eng.search("quick fox lazy", k=10)
    b = bm25f_search(toy_index, ["quick", "fox", "lazy"],
                     weights={"body": 1.0}, field_b=0.75, k1=1.2, k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    import numpy as np
    np.testing.assert_allclose(a["score"].to_numpy(),
                               b["score"].to_numpy(), rtol=1e-12)
    # doubling a field weight changes scores (weights are live)
    c = bm25f_search(toy_index, ["quick", "fox", "lazy"],
                     weights={"body": 2.0}, field_b=0.75, k1=1.2, k=10)
    assert c["score"].to_pylist() != b["score"].to_pylist()
    # unknown terms: empty result, no crash
    d = bm25f_search(toy_index, ["zzzzzzq"], weights={"body": 1.0}, k=10)
    assert d.num_rows == 0


def test_msm_operator(toy_index):
    """#MSM/n: n=1 == #SUM (BM25) / #OR (RB); n == arity == #AND
    candidates; n clamps to surviving args; Indri rejects."""
    import numpy as np
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import (
        BM25Model, IndriModel, RankedBooleanModel)
    bm = QueryEngine(toy_index, BM25Model())
    a = bm.search("#msm/1(quick fox lazy)", k=10)
    b = bm.search("#sum(quick fox lazy)", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # n=2: strict subset of n=1 candidates, same scores where kept
    c = bm.search("#msm/2(quick fox lazy)", k=10)
    full = dict(zip(a["external_id"].to_pylist(), a["score"].to_pylist()))
    assert set(c["external_id"].to_pylist()) < set(full)
    assert all(full[e] == s for e, s in zip(c["external_id"].to_pylist(),
                                            c["score"].to_pylist()))
    # n == arity: same candidate SET as boolean #AND
    rb = QueryEngine(toy_index, RankedBooleanModel())
    d = bm.search("#msm/3(quick fox lazy)", k=10)
    e = rb.search("#and(quick fox lazy)", k=10)
    assert set(d["external_id"].to_pylist()) == set(e["external_id"].to_pylist())
    # RB msm/1 == #OR; n over-arity clamps (stopword-dropped clause)
    f = rb.search("#msm/1(quick fox)", k=10)
    g = rb.search("#or(quick fox)", k=10)
    assert f["score"].to_pylist() == g["score"].to_pylist()
    h = rb.search("#msm/9(quick the of)", k=10)   # survives as 1 arg
    assert h.num_rows > 0
    import pytest as _pytest
    with _pytest.raises(ValueError):
        QueryEngine(toy_index, IndriModel()).search("#msm/2(quick fox)", k=10)


def test_synonym_expansion(toy_index):
    """Thesaurus rewrite == explicit #SYN; raw (unanalyzed) thesaurus
    entries normalize through the analyzer; unmatched keys are no-ops;
    the rewrite composes inside positional operators."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, RankedBooleanModel
    eng = QueryEngine(toy_index, BM25Model())
    a = eng.search("fox lazy", k=10, synonyms={"Fox": ["Dog"]})
    b = eng.search("#sum(#syn(fox dog) lazy)", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # unmatched key: identical to the plain search
    plain = eng.search("fox lazy", k=10)
    c = eng.search("fox lazy", k=10, synonyms={"zebra": ["horse"]})
    assert c["score"].to_pylist() == plain["score"].to_pylist()
    # inside an Iop: #near/1(quick fox) with fox→dog == #near/1(quick #syn(fox dog))
    rb = QueryEngine(toy_index, RankedBooleanModel())
    d = rb.search("#near/1(quick fox)", k=10, synonyms={"fox": ["dog"]})
    e = rb.search("#near/1(quick #syn(fox dog))", k=10)
    assert d["external_id"].to_pylist() == e["external_id"].to_pylist()
    assert d["score"].to_pylist() == e["score"].to_pylist()


def test_rocchio_terms(toy_index):
    import math
    from search_engines_ray.pipelines.prf import rocchio_terms
    r = toy_index
    d5 = r.internal_docid("http://t.example.com/5")   # "fox fox fox den"
    best = rocchio_terms(r, [(d5, 1.0)], ["fox"], fb_docs=1, fb_terms=3,
                         alpha=1.0, beta=0.5)
    terms = dict(best)
    n = float(r.doc_count("body"))
    # fox: alpha (in query) + (0.5/1)*3*ln(n/df_fox)
    df_fox = r.postings("fox", "body").df
    assert math.isclose(terms["fox"],
                        1.0 + 0.5 * 3 * math.log(n / df_fox))
    # den: feedback-only term, alpha contributes 0
    df_den = r.postings("den", "body").df
    assert math.isclose(terms["den"], 0.5 * 1 * math.log(n / df_den))
    assert best[0][0] == "fox"  # highest weight first


# ------------------------------------------------------------ explain / tune

def test_explain_decomposes_search_scores(docs_index):
    """Lucene Explanation parity: per-doc sum of term_score rows equals
    the search score, and each factor recomputes from (tf, df, doclen)."""
    model = BM25Model()
    engine = QueryEngine(docs_index, model)
    q = "fast sort merge"
    top = engine.search(q, k=10).to_pandas()
    exp = engine.explain(q, k=10).to_pandas()
    assert set(exp["external_id"]) == set(top["external_id"])
    sums = exp.groupby("external_id")["term_score"].sum()
    for _, row in top.iterrows():
        np.testing.assert_allclose(sums[row["external_id"]], row["score"],
                                   rtol=1e-12)
    # factors multiply: term_score == idf * tf_weight, idf floored at 0
    np.testing.assert_allclose(exp["term_score"],
                               exp["idf"] * exp["tf_weight"], rtol=1e-12)
    assert (exp["idf"] >= 0).all() and (exp["tf"] >= 1).all()
    # deterministic ordering contract
    keys = list(zip(exp["external_id"], exp["term"], exp["field"]))
    assert keys == sorted(keys)


def test_explain_requires_scoring_model(docs_index):
    engine = QueryEngine(docs_index, RankedBooleanModel())
    with pytest.raises(TypeError):
        engine.explain("fast sort")


def test_grid_search_matches_batch_search_per_point(docs_index):
    """Each grid point of the one-pass sweep must equal a standalone
    bm25_batch_search run with those (k1, b)."""
    from search_engines_ray.query.distributed import (
        bm25_batch_search, bm25_grid_search,
    )
    queries = [("1", "fast sort merge"), ("2", "hash join")]
    grid = [(0.9, 0.4), (1.2, 0.75)]
    swept = bm25_grid_search(docs_index.index_dir, queries, grid,
                             k=25).to_pandas()
    for k1, b in grid:
        solo = bm25_batch_search(docs_index.index_dir, queries,
                                 BM25Model(k1=k1, b=b), k=25).to_pandas()
        sub = swept[(swept["k1"] == k1) & (swept["b"] == b)]
        for qid, _ in queries:
            s = sub[sub["qid"] == qid].sort_values("rank")
            d = solo[solo["qid"] == qid].sort_values("rank")
            assert list(s["external_id"]) == list(d["external_id"]), (k1, b, qid)
            np.testing.assert_allclose(s["score"].to_numpy(),
                                       d["score"].to_numpy(), rtol=1e-12)


def test_champion_search_exact_when_m_covers_df(docs_index):
    """With m >= every term's df the candidate set is complete, so the
    approximate path must equal the exact batch search."""
    from search_engines_ray.query.distributed import (
        bm25_batch_search, bm25_champion_search,
    )
    queries = [("1", "fast sort merge"), ("2", "hash join")]
    exact = bm25_batch_search(docs_index.index_dir, queries,
                              BM25Model(), k=25).to_pandas()
    champ = bm25_champion_search(docs_index.index_dir, queries,
                                 m=10**6, k=25).to_pandas()
    for qid, _ in queries:
        e = exact[exact["qid"] == qid].sort_values("rank")
        c = champ[champ["qid"] == qid].sort_values("rank")
        assert list(e["external_id"]) == list(c["external_id"]), qid
        np.testing.assert_allclose(c["score"].to_numpy(),
                                   e["score"].to_numpy(), rtol=1e-12)


def test_champion_search_prunes_but_scores_exactly(docs_index):
    """Small m: every returned doc's score must still equal the exact
    engine's score for that doc (candidate generation is the only
    approximation), and the result stays reference-ordered."""
    from search_engines_ray.query.distributed import bm25_champion_search
    engine = QueryEngine(docs_index, BM25Model())
    q = "fast sort merge"
    exact = engine.search(q, k=1000).to_pandas().set_index("external_id")
    champ = bm25_champion_search(docs_index.index_dir, [("1", q)],
                                 m=5, k=50).to_pandas()
    assert 0 < len(champ) <= 50
    for _, row in champ.iterrows():
        np.testing.assert_allclose(row["score"],
                                   exact.loc[row["external_id"], "score"],
                                   rtol=1e-12)
    s = champ["score"].to_numpy()
    assert (np.diff(s) <= 1e-15).all()


def test_explain_indri_decomposes_search_scores(docs_index):
    """Indri explain: the product of p^weight rows reproduces the search
    score exactly, absent terms included with their default scores."""
    engine = QueryEngine(docs_index, IndriModel(mu=2500, lambda_=0.4))
    q = "fast sort merge"
    top = engine.search(q, k=10).to_pandas()
    exp = engine.explain(q, k=10).to_pandas()
    assert set(exp["external_id"]) == set(top["external_id"])
    # every (doc, term) pair present — absent terms carry tf == 0
    assert (exp.groupby("external_id").size() == 3).all()
    prod = exp.assign(f=exp["p"] ** exp["weight"]) \
        .groupby("external_id")["f"].prod()
    for _, row in top.iterrows():
        np.testing.assert_allclose(prod[row["external_id"]], row["score"],
                                   rtol=1e-9)
    np.testing.assert_allclose(exp["weight"], 1 / 3, rtol=1e-12)


def test_infix_wildcard(toy_index):
    """``*abc*`` rewrites to a #SYN of vocabulary terms containing the
    base; parser keeps both stars through analysis; prefix/fuzzy
    behavior unchanged."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import RankedBooleanModel
    from search_engines_ray.query.parser import QueryParser
    p = QueryParser()
    plan = p.parse("*rown*")
    assert plan.term == "*rown*"
    assert sorted(toy_index.terms_with_substring("o", "body"))[:2]
    eng = QueryEngine(toy_index, RankedBooleanModel())
    a = eng.search("*rown*", k=10)           # matches 'brown'
    b = eng.search("brown", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # multi-match infix: every term containing 'o' unions
    c = eng.search("*o*", k=10)
    assert c.num_rows >= b.num_rows
    # no match: empty, no crash
    assert eng.search("*zzq*", k=10).num_rows == 0


def test_regexp_term(toy_index):
    """``/pattern/`` (Lucene RegexpQuery syntax) expands to a #SYN of
    vocabulary terms FULLY matching the anchored pattern; the pattern
    bypasses the analyzer and bad patterns raise eagerly."""
    import pytest
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import RankedBooleanModel
    from search_engines_ray.query.parser import QueryParser
    p = QueryParser()
    plan = p.parse("/b.own/")
    assert plan.term == "/b.own/"            # analyzer bypassed
    eng = QueryEngine(toy_index, RankedBooleanModel())
    a = eng.search("/b.own/", k=10)          # matches only 'brown'
    b = eng.search("brown", k=10)
    assert a["external_id"].to_pylist() == b["external_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    # anchored full-match: /own/ must NOT match 'brown'
    assert toy_index.terms_matching_regex("own", "body") == []
    # alternation unions like #SYN of the branches
    terms = toy_index.terms_matching_regex("qu.*|fox", "body")
    assert terms and all(t == "fox" or t.startswith("qu") for t in terms)
    c = eng.search("#syn(" + " ".join(terms) + ")", k=10)
    d = eng.search("/qu.*|fox/", k=10)
    assert c["external_id"].to_pylist() == d["external_id"].to_pylist()
    # zero-match: empty result, no crash
    assert eng.search("/zzq+/", k=10).num_rows == 0
    # invalid pattern surfaces as an error, not a silent empty scan
    with pytest.raises(Exception):
        toy_index.terms_matching_regex("(", "body")
    # cap respected
    assert len(toy_index.terms_matching_regex(".*", "body",
                                              max_terms=2)) == 2


def test_search_after_pagination(docs_index):
    """search_after(cursor of page N's last hit) == rows of page N+1 in
    the k=3·page search, across score ties; an exhausted cursor returns
    empty."""
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, RankedBooleanModel
    for model in (BM25Model(), RankedBooleanModel()):
        eng = QueryEngine(docs_index, model)
        q = "fast sort" if model.default_op else "#or(fast sort)"
        full = eng.search(q, k=30)
        pages = [full.slice(i, 10) for i in range(0, 30, 10)]
        cur = None
        for want in pages:
            got = eng.search(q, k=10) if cur is None \
                else eng.search_after(q, cur, k=10)
            assert got["external_id"].to_pylist() == \
                want["external_id"].to_pylist(), type(model).__name__
            assert got["score"].to_pylist() == want["score"].to_pylist()
            cur = (got["score"][-1].as_py(), got["external_id"][-1].as_py())
    # beyond the last result: empty page
    eng = QueryEngine(docs_index, BM25Model())
    allr = eng.search("fast sort", k=10**6)
    last = (allr["score"][-1].as_py(), allr["external_id"][-1].as_py())
    assert eng.search_after("fast sort", last, k=10).num_rows == 0


def test_distributed_msm_matches_driver_path(docs_index):
    """Per-salt clause-count filtered BM25 must be rank- and score-
    identical to the engine's #MSM across n values and repeated terms."""
    from search_engines_ray.query.distributed import bm25_msm_batch_search
    model = BM25Model()
    engine = QueryEngine(docs_index, model)
    queries = [("1", "fast sort merge", 2),
               ("2", "fast sort merge", 3),
               ("3", "dup dup line", 2),
               ("4", "hash join", 1),
               ("5", "fast sort", 9)]          # n clamps to arity
    dist = bm25_msm_batch_search(docs_index.index_dir, queries, model,
                                 k=50).to_pandas()
    for qid, q, n in queries:
        drv = engine.search(f"#msm/{n}({q})", k=50).to_pandas()
        sub = dist[dist["qid"] == qid].reset_index(drop=True)
        assert list(sub["external_id"]) == list(drv["external_id"]), qid
        np.testing.assert_allclose(sub["score"], drv["score"], rtol=1e-12)


def test_span_first_filters_positions(toy_index):
    """#FIRST/n keeps only occurrences within the first n token
    positions (0-based pos < n, Lucene SpanFirstQuery end<=n); df/ctf
    derive from the survivors."""
    from search_engines_ray.query.eval import QueryEngine, eval_iop_tree
    from search_engines_ray.query.models import RankedBooleanModel
    eng = QueryEngine(toy_index, RankedBooleanModel())
    # doc 5 body = "fox fox fox den": 'fox' at 0,1,2 → #FIRST/2 keeps 2
    plan = eng.parser.parse("#first/2(fox)", None)
    inv = eval_iop_tree(plan, eng._fetch(plan))
    by_ext = dict(zip(toy_index.external_ids()[inv.docids], inv.tfs))
    assert by_ext["http://t.example.com/5"] == 2
    # doc 1 body = "the quick brown fox ...": 'fox' at pos 3 → dropped
    assert "http://t.example.com/1" not in by_ext
    # /4 admits it (pos 3 < 4)
    plan4 = eng.parser.parse("#first/4(fox)", None)
    inv4 = eval_iop_tree(plan4, eng._fetch(plan4))
    assert "http://t.example.com/1" in \
        set(toy_index.external_ids()[inv4.docids])
    assert inv.df == int(inv.docids.size) and inv.ctf == int(inv.tfs.sum())


def test_dismax_is_max_plus_tie(toy_index):
    """#DISMAX/t == max(clause scores) + t/100 * sum(others), checked
    against the two clauses scored separately."""
    import numpy as np
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel
    eng = QueryEngine(toy_index, BM25Model())
    a = eng.search("#sum(quick fox)", k=100).to_pandas()
    b = eng.search("#sum(lazy cat)", k=100).to_pandas()
    dm = eng.search("#dismax/40(#sum(quick fox) #sum(lazy cat))",
                    k=100).to_pandas()
    sa = dict(zip(a["external_id"], a["score"]))
    sb = dict(zip(b["external_id"], b["score"]))
    for e, got in zip(dm["external_id"], dm["score"]):
        x, y = sa.get(e, 0.0), sb.get(e, 0.0)
        want = max(x, y) + 0.40 * (x + y - max(x, y))
        np.testing.assert_allclose(got, want, rtol=1e-12)
    import pytest as _pytest
    with _pytest.raises(ValueError):
        QueryEngine(toy_index, IndriModel()).search(
            "#dismax/40(#and(quick) #and(fox))", k=5)


def test_distributed_span_first_matches_driver(docs_index):
    """#FIRST/n flows through the distributed structured path's per-salt
    eval_iop_tree kernels unchanged (position filters are docid-local)."""
    from search_engines_ray.query.distributed import (
        bm25_structured_batch_search)
    q = "#sum(#first/5(fast) sort)"
    drv = QueryEngine(docs_index, BM25Model()).search(q, k=30).to_pandas()
    dist = bm25_structured_batch_search(
        docs_index.index_dir, [("1", q)], BM25Model(), k=30).to_pandas()
    assert list(dist["external_id"]) == list(drv["external_id"])
    np.testing.assert_allclose(dist["score"], drv["score"], rtol=1e-12)


def test_boosting_query_demotes(toy_index):
    """ES boosting query: a negative match multiplies the positive
    score by negative_boost before the top-k cut; boost 1.0 is a
    no-op; boost 0 floors demoted docs but keeps them (soft MUST_NOT);
    an unmatched negative clause changes nothing."""
    import numpy as np
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model
    eng = QueryEngine(toy_index, BM25Model(k1=1.2, b=0.75))
    base = eng.search("quick fox", k=10)
    noop = eng.search_boosting("quick fox", "zzznope", 0.5, k=10)
    assert base["external_id"].to_pylist() == noop["external_id"].to_pylist()
    assert base["score"].to_pylist() == noop["score"].to_pylist()
    same = eng.search_boosting("quick fox", "brown", 1.0, k=10)
    assert base["score"].to_pylist() == same["score"].to_pylist()
    boosted = eng.search_boosting("quick fox", "brown", 0.5, k=10)
    b0 = dict(zip(base["external_id"].to_pylist(),
                  base["score"].to_pylist()))
    b1 = dict(zip(boosted["external_id"].to_pylist(),
                  boosted["score"].to_pylist()))
    assert set(b0) == set(b1)            # soft: nobody excluded
    neg_ids = {e for e, _, in b0.items()
               if eng.search("brown", k=100)["external_id"].to_pylist()
               .count(e)}
    assert neg_ids                        # fixture has an overlap
    for e in b0:
        want = b0[e] * 0.5 if e in neg_ids else b0[e]
        np.testing.assert_allclose(b1[e], want, rtol=1e-12)
    floor = eng.search_boosting("quick fox", "brown", 0.0, k=10)
    assert set(floor["external_id"].to_pylist()) == set(b0)


def test_distributed_wildcard_matches_driver(docs_index):
    """Wildcard / regexp terms expand identically on the distributed
    structured path (expand_wildcards is shared plan-time code), so
    both engines return rank- and score-identical results."""
    from search_engines_ray.query.distributed import (
        bm25_structured_batch_search, indri_structured_batch_search,
    )
    bm = BM25Model()
    engine = QueryEngine(docs_index, bm)
    queries = [("1", "#sum(fas* dup)"), ("2", "#sum(/l.ne/ dup)"),
               ("3", "#sum(#near/1(fast so*))")]
    dist = bm25_structured_batch_search(docs_index.index_dir, queries,
                                        bm, k=20).to_pandas()
    for qid, q in queries:
        drv = engine.search(q, k=20).to_pandas()
        sub = dist[dist["qid"] == qid].reset_index(drop=True)
        assert list(sub["external_id"]) == list(drv["external_id"]), qid
        np.testing.assert_allclose(sub["score"], drv["score"], rtol=1e-12)
    ind = IndriModel(mu=2500, lambda_=0.4)
    iengine = QueryEngine(docs_index, ind)
    iqueries = [("1", "#and(fas* line)")]
    idist = indri_structured_batch_search(docs_index.index_dir, iqueries,
                                          ind, k=20).to_pandas()
    for qid, q in iqueries:
        drv = iengine.search(q, k=20).to_pandas()
        sub = idist[idist["qid"] == qid].reset_index(drop=True)
        assert list(sub["external_id"]) == list(drv["external_id"]), qid
        np.testing.assert_allclose(sub["score"], drv["score"], rtol=1e-12)
