"""Sketch/sample operators: partitioning-invariance and accuracy checks
(the driver contract separately hash-checks them against DuckDB)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from search_engines_ray.functions.sample import hash_sample, topk_per_group
from search_engines_ray.functions.sketch import (
    hyperloglog_distinct, value_quantiles,
)


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd
    return rd


def test_hll_accuracy_and_partition_invariance(rd):
    # 6000 distinct values in one group, 300 in the other, with repeats
    rng = np.random.default_rng(3)
    a = rng.integers(0, 6000, 20_000)
    b = rng.integers(0, 300, 5_000)
    t = pa.table({
        "v": pa.array([f"val-{x}" for x in a] + [f"w-{x}" for x in b]),
        "g": pa.array(["a"] * len(a) + ["b"] * len(b)),
    })
    true = {"a": len(set(a.tolist())), "b": len(set(b.tolist()))}
    est1 = hyperloglog_distinct(rd.from_arrow(t), "v", "g").to_pandas()
    est8 = hyperloglog_distinct(rd.from_arrow(t).repartition(8),
                                "v", "g").to_pandas()
    # registers merge with max → the estimate cannot depend on blocking
    pd.testing.assert_frame_equal(
        est1.sort_values("g", ignore_index=True),
        est8.sort_values("g", ignore_index=True))
    for _, row in est1.iterrows():
        assert abs(row.n_distinct_est - true[row.g]) / true[row.g] < 0.05, \
            (row.g, row.n_distinct_est, true[row.g])


def test_hash_sample_deterministic_across_partitioning(rd):
    t = pa.table({"doc_id": pa.array(np.arange(5000), pa.int64())})
    s1 = hash_sample(rd.from_arrow(t), k=50, id_col="doc_id").to_pandas()
    s2 = hash_sample(rd.from_arrow(t).repartition(16), k=50,
                     id_col="doc_id").to_pandas()
    assert len(s1) == 50
    pd.testing.assert_frame_equal(
        s1.sort_values("sample_rank", ignore_index=True),
        s2.sort_values("sample_rank", ignore_index=True))
    # ranks follow the hash order: re-sampling a superset keeps the
    # sample's relative order (prefix property of order-by-hash)
    s_small = hash_sample(rd.from_arrow(t.slice(0, 2500)), k=50,
                          id_col="doc_id").to_pandas()
    common = set(s1.doc_id) & set(s_small.doc_id)
    assert len(common) > 0


def test_hll_rejects_inexact_precision(rd):
    t = pa.table({"g": ["x"], "v": ["a"]})
    with pytest.raises(ValueError, match="frexp"):
        hyperloglog_distinct(rd.from_arrow(t), "v", "g", p=8)


def test_value_quantiles_exact(rd):
    # known histogram: group "x" = 1.00..100.00 once each → p50 = 50.00
    # (ceil(0.5·100) = 50th value), p90 = 90.00, p99 = 99.00
    vals = np.arange(1, 101) / 1.0
    t = pa.table({"g": pa.array(["x"] * 100),
                  "value": pa.array(vals, pa.float64())})
    out = value_quantiles(rd.from_arrow(t), "value", "g") \
        .to_pandas().sort_values("p", ignore_index=True)
    assert out["value"].tolist() == [50.0, 90.0, 99.0]
    # partitioning invariance: histogram partials merge by sum
    out8 = value_quantiles(rd.from_arrow(t).repartition(8), "value", "g") \
        .to_pandas().sort_values("p", ignore_index=True)
    pd.testing.assert_frame_equal(out, out8)


def test_topk_per_group_matches_pandas(rd):
    rng = np.random.default_rng(11)
    n = 4000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 97, n).astype(np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "value": np.round(rng.uniform(0, 100, n), 2),
    })
    out = topk_per_group(rd.from_pandas(df), group_col="user_id",
                         sort_col="value", id_col="event_id", k=3) \
        .to_pandas().sort_values(["user_id", "rank"], ignore_index=True)
    ref = df.sort_values(["user_id", "value", "event_id"],
                         ascending=[True, False, True]) \
        .groupby("user_id").head(3)
    ref["rank"] = ref.groupby("user_id").cumcount() + 1
    ref = ref.sort_values(["user_id", "rank"], ignore_index=True)
    pd.testing.assert_frame_equal(
        out[["user_id", "event_id", "value", "rank"]],
        ref[["user_id", "event_id", "value", "rank"]])


def test_frequent_terms_misra_gries(rd):
    """Exact regime (capacity ≥ block vocab): counts equal true counts
    and count_hi == count_lo. Pruning regime (tiny capacity): the
    Misra-Gries guarantees hold — count_lo ≤ true ≤ count_hi for every
    emitted term, and every term whose true count exceeds the total
    decrement is present."""
    import collections
    from search_engines_ray.functions.sketch import frequent_terms
    rng = np.random.default_rng(7)
    vocab = [f"w{i:03d}" for i in range(40)]
    # zipf-ish skew: w000 dominates, long tail
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 1.3
    weights /= weights.sum()
    docs = [" ".join(rng.choice(vocab, size=30, p=weights))
            for _ in range(200)]
    true = collections.Counter(" ".join(docs).split())
    ds = rd.from_items([{"text": t} for t in docs]).repartition(8)

    exact = frequent_terms(ds, k=10, capacity=4096).to_pandas()
    for _, r in exact.iterrows():
        assert r["count_lo"] == true[r["term"]] == r["count_hi"]
    want = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(exact["term"]) == [t for t, _ in want]

    pruned = frequent_terms(ds, k=40, capacity=5).to_pandas()
    err = int(pruned["count_hi"].iloc[0] - pruned["count_lo"].iloc[0])
    assert err > 0                       # the tiny capacity DID prune
    for _, r in pruned.iterrows():
        assert r["count_lo"] <= true[r["term"]] <= r["count_hi"]
    emitted = set(pruned["term"])
    for t, c in true.items():
        if c > err:
            assert t in emitted, (t, c, err)


def test_shuffle_to_shards_deterministic(rd):
    """Every id lands in exactly one shard with contiguous 0-based
    positions; the assignment is invariant to input partitioning; the
    md5 keying spreads ids across all shards."""
    from search_engines_ray.functions.sample import shuffle_to_shards
    ids = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64)})
    a = shuffle_to_shards(rd.from_pandas(ids), num_shards=8) \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    b = shuffle_to_shards(rd.from_pandas(ids).repartition(7),
                          num_shards=8) \
        .to_pandas().sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 1000 and a["doc_id"].is_unique
    assert set(a["shard"]) == set(range(8))
    for s, g in a.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))
    # the shuffle is not the identity order
    first = a[a["shard"] == 0].sort_values("pos")["doc_id"].to_numpy()
    assert not np.array_equal(first, np.sort(first))


def test_percentile_ranks_exact(rd):
    """pct(v) == 100·|{x ≤ v}|/n per group (2-dp cents grid), invariant
    to partitioning; 0% below min, 100% at max."""
    from search_engines_ray.functions.sketch import percentile_ranks
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 500),
        "value": np.round(rng.uniform(0, 100, 1000), 2),
    })
    probes = (0.0, 25.0, 50.0, 100.0)
    out = percentile_ranks(rd.from_pandas(df).repartition(6), "value",
                           "g", values=probes) \
        .to_pandas().sort_values(["g", "v"], ignore_index=True)
    for _, r in out.iterrows():
        sub = df[df["g"] == r["g"]]["value"]
        want = 100.0 * (np.rint(sub * 100) <= np.rint(r["v"] * 100)).sum() \
            / len(sub)
        assert r["pct"] == pytest.approx(want, abs=1e-12), (r["g"], r["v"])
    assert (out[out["v"] == 100.0]["pct"] == 100.0).all()
    out1 = percentile_ranks(rd.from_pandas(df), "value", "g",
                            values=probes) \
        .to_pandas().sort_values(["g", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(out, out1)


def test_sampler_fast_vs_auditable_paths(rd):
    """Both hash paths (VERDICT r4 item 7): the auditable path is the
    md5 permutation the SQL oracles mirror; the fast default is
    partition-invariant and disjoint from it (a different but equally
    deterministic permutation)."""
    import hashlib

    from search_engines_ray.functions.sample import _id_hash64

    ids = list(range(1, 400))
    aud = _id_hash64(ids, auditable=True)
    md5 = np.fromiter(
        (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "big")
         for i in ids), dtype=np.uint64, count=len(ids))
    assert np.array_equal(aud, md5)

    t = pa.table({"doc_id": pa.array(np.arange(3000, dtype=np.int64))})
    fast1 = hash_sample(rd.from_arrow(t), k=40).to_pandas() \
        .sort_values("sample_rank", ignore_index=True)
    fast2 = hash_sample(rd.from_arrow(t).repartition(16), k=40) \
        .to_pandas().sort_values("sample_rank", ignore_index=True)
    pd.testing.assert_frame_equal(fast1, fast2)
    audit = hash_sample(rd.from_arrow(t), k=40, auditable=True) \
        .to_pandas().sort_values("sample_rank", ignore_index=True)
    # different keyed permutations select different samples
    assert not fast1["doc_id"].equals(audit["doc_id"])


def test_hll_fast_path_accuracy_and_invariance(rd):
    rng = np.random.default_rng(11)
    a = rng.integers(0, 4000, 15_000)
    t = pa.table({"v": pa.array([f"v-{x}" for x in a]),
                  "g": pa.array(["a"] * len(a))})
    true = len(set(a.tolist()))
    est1 = hyperloglog_distinct(rd.from_arrow(t), "v", "g").to_pandas()
    est8 = hyperloglog_distinct(rd.from_arrow(t).repartition(8),
                                "v", "g").to_pandas()
    pd.testing.assert_frame_equal(
        est1.sort_values("g", ignore_index=True),
        est8.sort_values("g", ignore_index=True))
    assert abs(int(est1["n_distinct_est"][0]) - true) / true < 0.05


def test_exchange_plan_scales_with_input(rd, tmp_path):
    """The one exchange plan: (parts, blocks) from the input's Parquet
    footers — a small input is one part in one block, the plan grows
    with the input up to a cap, an explicit num_parts wins, and an
    input without footers gets the fixed default. The router is
    process-independent and stays in [0, parts)."""
    import pyarrow.parquet as pq

    from search_engines_ray.functions import dedup
    from search_engines_ray.functions.partitioning import (
        DEFAULT_PARTS, ROWS_PER_PART, estimate_rows, part_of, plan,
    )

    f = tmp_path / "t.parquet"
    pq.write_table(pa.table({"x": pa.array(np.arange(1000))}), f)
    ds = rd.read_parquet(str(f))
    assert estimate_rows(ds) == 1000
    assert estimate_rows(ds.map_batches(lambda b: b)) == 1000
    assert plan(estimate_rows(ds), ROWS_PER_PART) == (1, 1)
    assert plan(10**8, ROWS_PER_PART) == (382, 32)
    assert plan(10**12, ROWS_PER_PART) == (16384, 2048)
    # an explicit num_parts wins; blocks never exceed the parts
    assert plan(1000, ROWS_PER_PART, 17) == (17, 16)
    assert plan(1000, ROWS_PER_PART, 3) == (3, 3)
    assert plan(10**12, ROWS_PER_PART, 5000) == (5000, 625)
    # no footers → the default, never an execution
    assert estimate_rows(rd.from_items([{"x": 1}])) is None
    assert plan(None, ROWS_PER_PART) == (DEFAULT_PARTS, 32)
    assert plan(None, ROWS_PER_PART, 3) == (3, 3)
    # a site exchanging k rows per input row plans like k times the rows
    assert plan(10**6, ROWS_PER_PART // 48) == plan(48 * 10**6, ROWS_PER_PART)
    # never more blocks than the fixed plans this one replaced, and
    # never more exchanged rows per reduce call than those plans or
    # ~2^18, for the dedup sites' measured rows per doc
    for per, rows_per_doc in ((dedup._DIGEST_DOCS_PER_PART, 1.0),
                              (dedup._LINE_DOCS_PER_PART, 7.2),
                              (dedup._SHINGLE_DOCS_PER_PART, 47.1)):
        for n in (10**3, 10**6, 10**8, 10**10, 10**12):
            for num_parts in (None, 3, 64, 5000):
                old_parts = num_parts or \
                    min(16384, max(256, -(-n // 2_000_000)))
                parts, blocks = plan(n, per, num_parts)
                assert 1 <= blocks <= min(parts, max(16, old_parts // 8))
                if num_parts is None:
                    per_call = n * rows_per_doc / parts
                    assert per_call <= max(
                        1 << 18, n * rows_per_doc / old_parts)
    # the router: in range, deterministic, and alike for a value's
    # int32 / int64 forms and for str lists and object arrays
    ids = np.arange(-50, 5000, dtype=np.int64)
    p = part_of(ids, 7)
    assert p.dtype == np.int32 and p.min() >= 0 and p.max() < 7
    assert len(set(p.tolist())) == 7
    assert (part_of(ids[ids >= 0].astype(np.int32), 7) == p[ids >= 0]).all()
    words = [f"w{i}" for i in range(300)]
    assert (part_of(words, 5) ==
            part_of(np.asarray(words, dtype=object), 5)).all()
    assert part_of(words, 5).tolist() == part_of(list(words), 5).tolist()
    assert part_of([], 5).size == 0


def test_dataset_split_deterministic_and_validated(rd):
    from search_engines_ray.functions.sample import dataset_split
    t = pa.table({"doc_id": pa.array(np.arange(5000, dtype=np.int64))})
    one = dataset_split(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    many = dataset_split(rd.from_arrow(t).repartition(16)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(one, many)
    frac = one["split"].value_counts(normalize=True)
    assert 0.96 < frac.get("train", 0) < 0.995
    assert set(one["split"]) <= {"train", "val", "test"}
    # growth invariance: a doc's split never changes when docs arrive
    half = dataset_split(rd.from_arrow(t.slice(0, 2500))).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(
        half, one[one["doc_id"] < 2500].reset_index(drop=True))
    with pytest.raises(ValueError):
        dataset_split(rd.from_arrow(t), fractions=(0.9, 0.2))
    with pytest.raises(ValueError):
        dataset_split(rd.from_arrow(t), fractions=(0.5,),
                      names=("a", "b"))


def test_vocab_stats_parts_invariant(rd):
    from search_engines_ray.functions.text import vocab_stats
    texts = ["fast sort merge fast", "merge line", "", "unique hapax"]
    t = pa.table({"text": pa.array(texts)})
    a = vocab_stats(rd.from_arrow(t)).to_pydict()
    b = vocab_stats(rd.from_arrow(t).repartition(4),
                    num_parts=3).to_pydict()
    assert a == b
    assert a["n_tokens"] == [8] and a["n_types"] == [6]
    assert a["n_hapax"] == [4] and a["max_tf"] == [2]


def test_value_histogram_exact(rd):
    from search_engines_ray.functions.sketch import value_histogram
    t = pa.table({
        "g": pa.array(["a"] * 6 + ["b"] * 3),
        "v": pa.array([0.0, 10.0, 24.99, 25.0, 60.0, -1.0,
                       49.99, 50.0, 50.01]),
    })
    out = value_histogram(rd.from_arrow(t), "v", "g", interval=25.0) \
        .to_pandas().sort_values(["g", "bucket"], ignore_index=True)
    got = {(r.g, r.bucket): r.n for r in out.itertuples()}
    # floor semantics: -1.0 -> bucket -25; 24.99 stays in 0; 25.0 opens 25
    assert got == {("a", -25.0): 1, ("a", 0.0): 3, ("a", 25.0): 1,
                   ("a", 50.0): 1, ("b", 25.0): 1, ("b", 50.0): 2}
    many = value_histogram(rd.from_arrow(t).repartition(5), "v", "g",
                           interval=25.0, num_parts=3).to_pandas() \
        .sort_values(["g", "bucket"], ignore_index=True)
    pd.testing.assert_frame_equal(out, many)


def test_value_stats_bit_exact_across_partitioning(rd):
    from search_engines_ray.functions.sketch import value_stats
    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 600),
        "value": np.round(rng.uniform(-50, 150, 1200), 2)})
    one = value_stats(rd.from_pandas(df), "value", "g").to_pandas() \
        .sort_values("g", ignore_index=True)
    many = value_stats(rd.from_pandas(df).repartition(9), "value", "g",
                       num_parts=3).to_pandas() \
        .sort_values("g", ignore_index=True)
    pd.testing.assert_frame_equal(one, many)   # BIT-exact, not approx
    for _, r in one.iterrows():
        sub = np.rint(df[df["g"] == r["g"]]["value"].to_numpy() * 100)
        assert r["n"] == len(sub)
        assert r["min_value"] == sub.min() / 100.0
        assert r["max_value"] == sub.max() / 100.0
        assert abs(r["mean"] - sub.mean() / 100.0) < 1e-6
        assert abs(r["variance"] - sub.var() / 10000.0) < 1e-5


def test_value_stats_sum_squares_does_not_wrap(rd):
    """ADVICE item 3: Σc² of a full chunk of |value| = 120,000 (65,535
    rows of 1.2e7 cents, 9.44e18 > int64 max) wrapped silently; the
    statistics must stay exact for both signs."""
    from search_engines_ray.functions.sketch import value_stats
    n = 65535
    df = pd.DataFrame({"g": ["pos"] * n + ["neg"] * n,
                       "value": [120000.0] * n + [-120000.0] * n})
    out = value_stats(rd.from_pandas(df), "value", "g").to_pandas() \
        .set_index("g")
    for g, v in (("pos", 120000.0), ("neg", -120000.0)):
        assert out.loc[g, "n"] == n
        assert out.loc[g, "mean"] == v
        assert out.loc[g, "variance"] == 0.0
    # beyond the int64 chunk bound the sum falls back to Python ints
    big = pd.DataFrame({"g": ["x"] * 3, "value": [1e9, -1e9, 1e9]})
    row = value_stats(rd.from_pandas(big), "value", "g").to_pandas().iloc[0]
    assert row["variance"] == pytest.approx(np.var([1e9, -1e9, 1e9]),
                                            rel=1e-12)
