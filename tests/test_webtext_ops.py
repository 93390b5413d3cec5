"""Web-text curation operators added in round 4: repetition signals,
heuristic quality gate, PII scrubbing, corpus bigram counts, stratified
sampling, JSON-sidecar aggregation. Hand-computed expectations on toy
inputs — independent of the DuckDB oracle mirrors in driver_queries."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd
    return rd


def test_repetition_stats(rd):
    from search_engines_ray.functions.text import repetition_stats
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["go go go go",                 # 4 tokens, 1 distinct
                 "one two three four",          # all distinct
                 ""],                           # empty -> all zeros
    })
    out = repetition_stats(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert out.loc[0, "dup_token_frac"] == 0.75
    assert out.loc[0, "top_token_frac"] == 1.0
    # bigrams of doc 1: "go go" x3 -> 1 distinct of 3 -> 1 - 1/3
    assert out.loc[0, "dup_bigram_frac"] == round(1 - 1 / 3, 6)
    assert out.loc[1, "dup_token_frac"] == 0.0
    assert out.loc[1, "top_token_frac"] == 0.25
    assert out.loc[1, "dup_bigram_frac"] == 0.0
    assert (out.loc[2, ["dup_token_frac", "top_token_frac",
                        "dup_bigram_frac"]] == 0.0).all()


def test_heuristic_filter(rd):
    from search_engines_ray.functions.text import heuristic_filter
    long_ok = " ".join(f"word{i}" for i in range(30))
    too_short = "tiny doc"
    too_repetitive = " ".join(["spam"] * 30)
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": [long_ok, too_short, too_repetitive],
    })
    out = heuristic_filter(
        rd.from_arrow(t), min_tokens=20, max_tokens=1000,
        min_mean_len=2.0, max_mean_len=10.0,
        max_dup_token_frac=0.5).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert list(out["keep"]) == [True, False, False]


def test_pii_scrub(rd):
    from search_engines_ray.functions.text import pii_scrub
    t = pa.table({
        "doc_id": [1, 2],
        "text": ["mail bob@example.com or call 555-123-4567 at 10.0.0.1",
                 "no pii here"],
    })
    out = pii_scrub(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert out.loc[0, "scrubbed"] == "mail <EMAIL> or call <PHONE> at <IP>"
    assert (out.loc[0, ["n_emails", "n_phones", "n_ipv4"]] == 1).all()
    assert out.loc[1, "scrubbed"] == "no pii here"
    assert (out.loc[1, ["n_emails", "n_phones", "n_ipv4"]] == 0).all()


def test_pii_scrub_order_phone_before_ip(rd):
    # the phone pattern must fire before ipv4 so dotted quads are not
    # half-eaten; and ipv4 must not match inside an already-redacted
    # phone. A bare 3-3-4 digit string with dots is ip, dashes is phone.
    from search_engines_ray.functions.text import pii_scrub
    t = pa.table({"doc_id": [1],
                  "text": ["192.168.001.12 555-000-1234"]})
    out = pii_scrub(rd.from_arrow(t)).to_pandas()
    assert out.loc[0, "scrubbed"] == "<IP> <PHONE>"


def test_top_bigrams(rd):
    from search_engines_ray.functions.text import top_bigrams
    t = pa.table({"text": ["a b a b c", "a b x", ""]})
    out = top_bigrams(rd.from_arrow(t), k=2).to_pandas()
    # "a b" appears 3x (twice in doc1: positions 0-1 and 2-3; once doc2)
    assert list(out["bigram"]) == ["a b", "b a"]
    assert list(out["n"]) == [3, 1]


def test_top_bigrams_tie_break(rd):
    from search_engines_ray.functions.text import top_bigrams
    t = pa.table({"text": ["z y", "b c"]})
    out = top_bigrams(rd.from_arrow(t), k=2).to_pandas()
    # equal counts -> bigram asc
    assert list(out["bigram"]) == ["b c", "z y"]


def test_stratified_sample(rd):
    from search_engines_ray.functions.sample import stratified_sample
    df = pd.DataFrame({
        "lang": ["en"] * 50 + ["fr"] * 3,
        "doc_id": list(range(50)) + [100, 101, 102],
    })
    # auditable=True is the md5 permutation the SQL oracles mirror
    # (the default is the fast vectorized hash — r5, VERDICT r4 item 7)
    out = stratified_sample(rd.from_pandas(df), strata_col="lang",
                            id_col="doc_id", k=5,
                            auditable=True).to_pandas()
    en = out[out["lang"] == "en"]
    fr = out[out["lang"] == "fr"]
    assert len(en) == 5 and sorted(en["sample_rank"]) == [1, 2, 3, 4, 5]
    assert len(fr) == 3 and sorted(fr["sample_rank"]) == [1, 2, 3]
    # deterministic: smallest md5(doc_id) first within each stratum
    def h(i):
        return int(hashlib.md5(str(i).encode()).hexdigest()[:16], 16)
    expect_en = sorted(range(50), key=lambda i: (h(i), i))[:5]
    got_en = list(en.sort_values("sample_rank")["doc_id"])
    assert got_en == expect_en
    # fast default: same depth contract, equally deterministic
    fast = stratified_sample(rd.from_pandas(df), "lang", "doc_id",
                             k=5).to_pandas()
    assert len(fast[fast["lang"] == "en"]) == 5
    assert len(fast[fast["lang"] == "fr"]) == 3


def test_stratified_sample_is_partition_invariant(rd):
    from search_engines_ray.functions.sample import stratified_sample
    df = pd.DataFrame({"lang": ["en"] * 40, "doc_id": range(40)})
    one = stratified_sample(rd.from_pandas(df), "lang", "doc_id", k=4) \
        .to_pandas().sort_values("sample_rank", ignore_index=True)
    many = stratified_sample(rd.from_pandas(df).repartition(8),
                             "lang", "doc_id", k=4) \
        .to_pandas().sort_values("sample_rank", ignore_index=True)
    assert list(one["doc_id"]) == list(many["doc_id"])


def test_json_field_agg(rd):
    from search_engines_ray.functions.events import json_field_agg
    t = pa.table({
        "event_type": ["a", "a", "a", "b", "b", "c"],
        "props": ['{"k": 2}', '{"k": 3.5}', '{"other": 1}',
                  '{"k": 10}', 'not json', None],
    })
    out = json_field_agg(rd.from_arrow(t)).to_pandas() \
        .sort_values("event_type", ignore_index=True)
    assert out.iloc[:2].to_dict("records") == [
        {"event_type": "a", "n_vals": 2, "sum_val": 5.5,
         "mean_val": 2.75},
        {"event_type": "b", "n_vals": 1, "sum_val": 10.0,
         "mean_val": 10.0},
    ]
    assert out.loc[2, "event_type"] == "c"
    assert out.loc[2, "n_vals"] == 0 and out.loc[2, "sum_val"] == 0.0
    assert np.isnan(out.loc[2, "mean_val"])


def test_dup_span_stats(rd):
    from search_engines_ray.functions.dedup import dup_span_stats
    boiler = "alpha beta gamma delta epsilon zeta eta theta"   # 8 tokens
    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [boiler + " one two three",
                 boiler + " four five six",          # shares the 8-gram
                 "u1 u2 u3 u4 u5 u6 u7 u8 u9",       # all unique
                 "short doc"],                        # < 8 tokens: omitted
    })
    out = dup_span_stats(rd.from_arrow(t), w=8).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert list(out["doc_id"]) == [1, 2, 3]
    # docs 1/2: 11 tokens -> 4 shingles each; exactly the boiler 8-gram
    # is shared (1 dup shingle each)
    assert list(out["n_shingles"]) == [4, 4, 2]
    assert list(out["n_dup_shingles"]) == [1, 1, 0]
    assert out.loc[0, "dup_span_frac"] == 0.25
    assert out.loc[2, "dup_span_frac"] == 0.0


def test_dup_span_stats_string_ids_match_int_ids(rd):
    """String ids give the rows of their int twin: the map side gathers
    each shingle row's id from the batch's own id column, as
    ``exact_dedup`` does, instead of casting it to int64."""
    from search_engines_ray.functions.dedup import dup_span_stats
    boiler = "alpha beta gamma delta epsilon zeta eta theta"
    texts = [boiler + " one two three", boiler + " four five six",
             "u1 u2 u3 u4 u5 u6 u7 u8 u9", "short doc",
             boiler + " " + boiler]
    ints = list(range(10, 10 + len(texts)))
    got = {}
    for ids in (ints, [f"doc-{i}" for i in ints]):
        t = pa.table({"doc_id": ids, "text": texts})
        got[type(ids[0])] = dup_span_stats(
            rd.from_arrow(t), w=8, num_parts=3).to_pandas() \
            .sort_values("doc_id", ignore_index=True)
    want, strs = got[int], got[str]
    assert len(want) == 4
    assert list(strs["doc_id"]) == [f"doc-{i}" for i in want["doc_id"]]
    cols = ["n_shingles", "n_dup_shingles", "dup_span_frac"]
    assert strs[cols].equals(want[cols])


def test_dup_span_counts_within_doc_repeats(rd):
    from search_engines_ray.functions.dedup import dup_span_stats
    eight = "a b c d e f g h"
    t = pa.table({"doc_id": [1],
                  "text": [eight + " " + eight]})    # 16 tokens, 9 shingles
    out = dup_span_stats(rd.from_arrow(t), w=8).to_pandas()
    # the 8-gram "a..h" occurs at positions 0 and 8 -> dup within one doc
    assert out.loc[0, "n_shingles"] == 9
    assert out.loc[0, "n_dup_shingles"] == 2


def test_kwic_snippets(rd):
    from search_engines_ray.functions.text import kwic_snippets
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["x" * 50 + "NEEDLE tail text here plus more padding end",
                 "no match in this document",
                 "needle at the very start, then needle again"],
    })
    out = kwic_snippets(rd.from_arrow(t), term="needle",
                        context_chars=10).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert list(out["doc_id"]) == [1, 3]
    assert out.loc[0, "first_pos"] == 51
    assert out.loc[0, "n_matches"] == 1
    assert out.loc[0, "snippet"] == "x" * 10 + "NEEDLE tail text"
    assert out.loc[1, "first_pos"] == 1
    assert out.loc[1, "n_matches"] == 2
    assert out.loc[1, "snippet"] == "needle at the ve"


def test_distinctive_terms(rd):
    from search_engines_ray.functions.text import distinctive_terms
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["zebra zebra zebra common common",
                 "common zebra other",
                 "common unique"],
    })
    out = distinctive_terms(rd.from_arrow(t), k=2).to_pandas() \
        .sort_values(["doc_id", "rank"], ignore_index=True)
    d1 = out[out["doc_id"] == 1]
    # doc1: zebra tf=3 beats common tf=2
    assert list(d1["term"]) == ["zebra", "common"]
    assert list(d1["tf"]) == [3, 2]
    assert list(d1["df"]) == [2, 3]          # zebra in 2 docs, common in 3
    d2 = out[out["doc_id"] == 2]
    # doc2: all tf=1 -> rarer df first (other df=1, then zebra df=2)
    assert list(d2["term"]) == ["other", "zebra"]


def test_unigram_surprisal(rd):
    from search_engines_ray.functions.text import unigram_lm_surprisal
    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["common common common rare",
                 "common common",
                 ""],
    })
    out = unigram_lm_surprisal(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    # N=6 tokens, V=2; p(common)=(5+1)/8, p(rare)=(1+1)/8
    su_common = np.floor(-np.log2(6 / 8) * 1e4 + 0.5)
    su_rare = np.floor(-np.log2(2 / 8) * 1e4 + 0.5)
    exp1 = np.floor((3 * su_common + su_rare) / 4 / 1e4 * 1e6 + 0.5) / 1e6
    exp2 = np.floor(su_common / 1e4 * 1e6 + 0.5) / 1e6
    assert list(out["doc_id"]) == [1, 2]     # empty doc omitted
    assert out.loc[0, "mean_surprisal"] == exp1
    assert out.loc[1, "mean_surprisal"] == exp2
    # rarer tokens are more surprising
    assert out.loc[0, "mean_surprisal"] > out.loc[1, "mean_surprisal"]


def test_prefix_suggest(rd):
    from search_engines_ray.functions.text import prefix_suggest
    t = pa.table({"text": ["map merge map", "map sort", "other words"]})
    out = prefix_suggest(rd.from_arrow(t), prefix="m", k=2).to_pandas()
    # df(map)=2, df(merge)=1; in-doc repeats don't inflate df
    assert list(out["term"]) == ["map", "merge"]
    assert list(out["df"]) == [2, 1]
    assert list(out["rank"]) == [1, 2]


def test_prefix_suggest_no_match_keeps_schema(rd):
    # Ray's sort-groupby erases the schema of a 0-row dataset entirely;
    # the sentinel-marker rows keep it alive (Dataset.to_pandas() still
    # returns a column-less frame for 0 rows — a Ray quirk, so assert
    # on the Dataset schema, which downstream stages consume)
    from search_engines_ray.functions.text import prefix_suggest
    t = pa.table({"text": ["alpha beta"]})
    ds = prefix_suggest(rd.from_arrow(t), prefix="zz", k=3)
    assert ds.schema().names == ["term", "df", "rank"]
    assert ds.count() == 0


def test_spell_suggest(rd):
    from search_engines_ray.functions.text import spell_suggest
    t = pa.table({"text": ["merge sort merge", "merge hash",
                           "marge once"]})
    out = spell_suggest(rd.from_arrow(t), ["mrge", "qqqqqq"]).to_pandas()
    # 'mrge': merge and marge are both distance 1 -> higher df wins
    assert len(out) == 1
    assert out.loc[0, "query_term"] == "mrge"
    assert out.loc[0, "suggestion"] == "merge"
    assert out.loc[0, "distance"] == 1
    assert out.loc[0, "df"] == 2
    # 'qqqqqq' has nothing within distance 3 -> omitted


def test_spell_suggest_all_miss_is_typed(rd):
    """With no vocab term in range the result is empty but typed: every
    local and final table carries the (string, string, int64, int64)
    schema instead of an untyped empty pandas frame."""
    from search_engines_ray.functions.text import spell_suggest
    t = pa.table({"text": ["merge sort merge", "merge hash"]})
    ds = spell_suggest(rd.from_arrow(t).repartition(4), ["qqqqqqqq"])
    assert ds.count() == 0
    s = ds.schema()
    assert s.names == ["query_term", "suggestion", "distance", "df"]
    assert s.types == [pa.string(), pa.string(), pa.int64(), pa.int64()]


def test_levenshtein_matches_duckdb():
    import duckdb
    import random
    import string
    from search_engines_ray.functions.text import _levenshtein
    con = duckdb.connect()
    rng = random.Random(42)
    for _ in range(200):
        a = "".join(rng.choices(string.ascii_lowercase[:5],
                                k=rng.randint(0, 7)))
        b = "".join(rng.choices(string.ascii_lowercase[:5],
                                k=rng.randint(0, 7)))
        assert _levenshtein(a, b) == con.execute(
            "select levenshtein(?, ?)", [a, b]).fetchone()[0]


def test_filtered_search(ray_session, tmp_path):
    import ray.data as rd
    from search_engines_ray.index import (
        build_index, IndexBuildConfig, IndexReader)
    from search_engines_ray.pipelines.corpus import doc_url
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["fox fox fox", "fox fox", "fox", "nothing here"],
        "lang": ["en", "de", "en", "en"],
    })
    pages = rd.from_pandas(df).map_batches(
        __import__("search_engines_ray.pipelines.corpus",
                   fromlist=["documents_to_pages_batch"])
        .documents_to_pages_batch, batch_format="pyarrow")
    idx = str(tmp_path / "idx")
    build_index(pages, idx, IndexBuildConfig(num_buckets=4,
                                             analyzer="simple"),
                input_token="t", resume=False)
    reader = IndexReader(idx)
    engine = QueryEngine(reader, BM25Model())
    unfiltered = engine.search("fox", k=10)
    assert unfiltered.num_rows == 3
    allowed = reader.internal_docids_for([doc_url(1), doc_url(3),
                                          doc_url(4)])
    filtered = engine.search("fox", k=10, allowed=allowed)
    # doc 2 (de) excluded; order preserved among the rest
    exts = filtered["external_id"].to_pylist()
    assert exts == [doc_url(1), doc_url(3)]


def test_chunk_documents(rd):
    import hashlib
    from search_engines_ray.functions.text import chunk_documents
    toks = " ".join(f"t{i}" for i in range(10))
    t = pa.table({"doc_id": [1, 2], "text": [toks, ""]})
    out = chunk_documents(rd.from_arrow(t), max_tokens=4, stride=3,
                          emit_text=True).to_pandas() \
        .sort_values("chunk_id", ignore_index=True)
    # starts 0,3,6: window at 6 reaches the end (6+4 >= 10) -> 3 chunks
    assert list(out["doc_id"]) == [1, 1, 1]
    assert list(out["n_tokens"]) == [4, 4, 4]
    assert out.loc[0, "chunk"] == "t0 t1 t2 t3"
    assert out.loc[2, "chunk"] == "t6 t7 t8 t9"
    assert out.loc[0, "chunk_md5"] == hashlib.md5(
        b"t0 t1 t2 t3").hexdigest()


def test_chunk_documents_partial_tail(rd):
    from search_engines_ray.functions.text import chunk_documents
    t = pa.table({"doc_id": [1], "text": ["a b c d e"]})
    out = chunk_documents(rd.from_arrow(t), max_tokens=2,
                          emit_text=True).to_pandas() \
        .sort_values("chunk_id", ignore_index=True)
    assert list(out["chunk"]) == ["a b", "c d", "e"]
    assert list(out["n_tokens"]) == [2, 2, 1]


def test_strip_html(rd):
    from search_engines_ray.functions.text import strip_html
    t = pa.table({
        "doc_id": [1, 2],
        "html": ["<html><title>Hi</title><body>a &amp; b"
                 " &lt;kept&gt;&nbsp;end</body></html>",
                 "<p>  spaced   out  </p>"],
    })
    out = strip_html(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert out.loc[0, "clean_text"] == 'Hi a & b <kept> end'
    assert out.loc[1, "clean_text"] == "spaced out"


def test_decontaminate(rd):
    from search_engines_ray.functions.dedup import decontaminate
    bench_text = "b1 b2 b3 b4 b5 b6 b7 b8"
    half = "b1 b2 b3 b4 b5 b6 b7 b8 x1 x2 x3 x4 x5 x6 x7 x8"
    clean = "c1 c2 c3 c4 c5 c6 c7 c8 c9"
    docs = pa.table({"doc_id": [1, 2, 3],
                     "text": [bench_text, half, clean]})
    bench = pa.table({"doc_id": [100], "text": [bench_text]})
    out = decontaminate(rd.from_arrow(docs), rd.from_arrow(bench),
                        w=8).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    # doc1 == the benchmark doc: fully contaminated
    assert out.loc[0, "contam_frac"] == 1.0
    # doc2: 9 shingles, exactly the first (the benchmark 8-gram) hits
    assert out.loc[1, "n_shingles"] == 9
    assert out.loc[1, "n_contaminated"] == 1
    # doc3: no overlap
    assert out.loc[2, "n_contaminated"] == 0


def test_canonical_url_rules():
    from search_engines_ray.functions.web import canonical_url, host_of
    cases = {
        "HTTP://WWW.Ex.COM:80/a/b/?utm_source=x&id=3&fbclid=9#frag":
            "http://ex.com/a/b?id=3",
        "http://ex.com/": "http://ex.com/",          # bare root slash stays
        "https://ex.com:8080/a?x=1": "https://ex.com:8080/a?x=1",  # :80 only
        "http://ex.com/a/?x=1": "http://ex.com/a?x=1",  # slash before query
        "http://ex.com/a?utm_campaign=z": "http://ex.com/a",
        "http://ex.com/a&b/c": "http://ex.com/a&b/c",  # & outside query
    }
    for raw, want in cases.items():
        assert canonical_url(raw) == want, raw
    assert host_of("https://ex.com:8080/a") == "ex.com"


def test_domain_stats_alias_collapse(rd):
    from search_engines_ray.functions.web import domain_stats
    urls = ["http://A.com/x?utm_source=1", "http://a.com/x/",
            "http://a.com/y", "http://b.org/x"]
    t = pa.table({"url": urls, "sz": [10, 20, 30, 5]})
    out = domain_stats(rd.from_arrow(t), size_col="sz").to_pandas() \
        .sort_values("host", ignore_index=True)
    assert out.loc[0, "host"] == "a.com"
    assert out.loc[0, "n_docs"] == 3
    assert out.loc[0, "n_distinct_canonical"] == 2   # /x variants fold
    assert out.loc[0, "sum_size"] == 60
    assert out.loc[1, "host"] == "b.org" and out.loc[1, "n_docs"] == 1


def test_remove_dup_spans(rd):
    import hashlib
    from search_engines_ray.functions.dedup import remove_dup_spans
    boiler = "b1 b2 b3 b4"   # appears in docs 1 and 2 -> duplicated
    docs = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [f"u1 u2 {boiler} t1",            # span covers b1..b4
                 f"v1 {boiler} v2 v3",
                 "w1 w2 w3 w4 w5",                # unique: untouched
                 "s1 s2"],                        # shorter than w
    })
    out = remove_dup_spans(rd.from_arrow(docs), w=4).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert out.loc[0, "n_removed"] == 4
    assert out.loc[0, "clean_md5"] == hashlib.md5(b"u1 u2 t1").hexdigest()
    assert out.loc[1, "n_removed"] == 4
    assert out.loc[1, "clean_md5"] == hashlib.md5(b"v1 v2 v3").hexdigest()
    assert out.loc[2, "n_removed"] == 0
    assert out.loc[2, "clean_md5"] == hashlib.md5(b"w1 w2 w3 w4 w5").hexdigest()
    assert out.loc[3, "n_tokens"] == 2 and out.loc[3, "n_removed"] == 0


def test_remove_dup_spans_within_doc(rd):
    import hashlib
    from search_engines_ray.functions.dedup import remove_dup_spans
    # the same 3-token run twice WITHIN one doc counts as duplicated
    t = pa.table({"doc_id": [1],
                  "text": ["x1 a b c y1 y2 a b c z1"]})
    out = remove_dup_spans(rd.from_arrow(t), w=3).to_pandas()
    assert out.loc[0, "n_removed"] == 6
    assert out.loc[0, "clean_md5"] == hashlib.md5(
        b"x1 y1 y2 z1").hexdigest()


def test_more_like_this(rd):
    from search_engines_ray.functions.text import more_like_this
    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["apple banana cherry",
                 "apple banana cherry",        # identical to doc 1
                 "apple banana date",          # partial overlap
                 "xylophone zebra"],           # disjoint
    })
    out = more_like_this(rd.from_arrow(t), query_doc_id=1, k=10) \
        .to_pandas()
    # identical doc scores 1.0 and ranks first; disjoint doc absent;
    # the query doc itself excluded
    assert list(out["doc_id"]) == [2, 3]
    assert out.loc[0, "score"] == 1.0
    assert 0 < out.loc[1, "score"] < 1.0


@pytest.mark.parametrize("query_doc_id", [9, 4])
def test_more_like_this_without_candidates_is_typed(rd, query_doc_id):
    """An unknown query doc (9) and one that shares no term with any
    other doc (4) both yield one empty (doc_id int64, score double)
    table, not one empty block per input block or a raise."""
    from search_engines_ray.functions.text import more_like_this
    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["apple banana", "apple cherry", "banana date",
                           "xylophone zebra"]})
    ds = more_like_this(rd.from_arrow(t).repartition(4),
                        query_doc_id=query_doc_id).materialize()
    assert ds.count() == 0
    assert ds.num_blocks() == 1
    assert ds.schema().names == ["doc_id", "score"]
    assert ds.schema().types == [pa.int64(), pa.float64()]


def test_pmi_collocations(rd):
    import math
    from search_engines_ray.functions.text import pmi_collocations
    # "strong tea" always together; "the" everywhere — low association
    docs = ["strong tea the", "strong tea the", "strong tea the",
            "the x1 the", "the x2 the"]
    t = pa.table({"doc_id": list(range(5)), "text": docs})
    out = pmi_collocations(rd.from_arrow(t), k=5, min_count=3).to_pandas()
    assert out.loc[0, "bigram"] == "strong tea"
    n_uni = sum(len(d.split()) for d in docs)
    n_bi = sum(len(d.split()) - 1 for d in docs)
    want = math.log((3 / n_bi) / ((3 / n_uni) * (3 / n_uni)))
    assert abs(out.loc[0, "pmi"] - want) < 1e-6
    # only bigrams with count >= 3 survive
    assert (out["n"] >= 3).all()
