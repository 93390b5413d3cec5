"""Broadcast semijoin / anti-semijoin / hash-join vs pandas ground truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from search_engines_ray.functions.join import (
    broadcast_hash_join, broadcast_semijoin, shuffle_hash_join,
)


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd
    return rd


@pytest.fixture(scope="module")
def fact():
    rng = np.random.default_rng(7)
    return pd.DataFrame({
        "k": rng.integers(0, 200, size=5000).astype(np.int64),
        "v": rng.integers(0, 1000, size=5000).astype(np.int64),
    })


@pytest.fixture(scope="module")
def dim():
    # duplicate keys on the small side exercise both the semijoin's
    # dedup-before-broadcast and the hash join's fan-out bound
    return pd.DataFrame({
        "dk": np.array([3, 3, 17, 42, 42, 191, 500], dtype=np.int64),
        "name": ["a", "a2", "b", "c", "c2", "d", "never"],
    })


def test_semijoin_matches_isin(rd, fact, dim):
    out = broadcast_semijoin(rd.from_pandas(fact).repartition(6),
                             rd.from_pandas(dim), "k", keys_col="dk") \
        .to_pandas().sort_values(["k", "v"], ignore_index=True)
    want = fact[fact["k"].isin(dim["dk"])] \
        .sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(out, want)


def test_antijoin_matches_isin(rd, fact, dim):
    out = broadcast_semijoin(rd.from_pandas(fact).repartition(6),
                             rd.from_pandas(dim), "k", keys_col="dk",
                             anti=True) \
        .to_pandas().sort_values(["k", "v"], ignore_index=True)
    want = fact[~fact["k"].isin(dim["dk"])] \
        .sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(out, want)


def test_hash_join_matches_pandas_inner(rd, fact, dim):
    out = broadcast_hash_join(rd.from_pandas(fact).repartition(6),
                              rd.from_pandas(dim), left_on="k",
                              right_on="dk") \
        .to_pandas().sort_values(["k", "v", "name"], ignore_index=True)
    want = fact.merge(dim, left_on="k", right_on="dk").drop(columns=["dk"]) \
        .sort_values(["k", "v", "name"], ignore_index=True)
    pd.testing.assert_frame_equal(out[sorted(out.columns)],
                                  want[sorted(want.columns)])


def test_hash_join_accepts_arrow_table_small_side(rd, fact, dim):
    small = pa.Table.from_pandas(dim)
    out = broadcast_hash_join(rd.from_pandas(fact), small, left_on="k",
                              right_on="dk").to_pandas()
    assert len(out) == fact["k"].isin(dim["dk"]).sum() + \
        fact["k"].isin([3, 42]).sum()  # duplicated small keys fan out ×2


def test_broadcast_guard_raises(rd, fact, dim):
    with pytest.raises(ValueError, match="max_broadcast_bytes"):
        broadcast_semijoin(rd.from_pandas(fact), rd.from_pandas(dim),
                           "k", keys_col="dk", max_broadcast_bytes=8)
    with pytest.raises(ValueError, match="max_broadcast_bytes"):
        broadcast_hash_join(rd.from_pandas(fact), rd.from_pandas(dim),
                            left_on="k", right_on="dk",
                            max_broadcast_bytes=8)


def test_hash_join_unique_keys_inner_and_left(rd, fact):
    # unique small-side keys take the per-worker-cached pd.Index path
    udim = pd.DataFrame({"dk": np.array([3, 17, 42, 500], dtype=np.int64),
                         "name": ["a", "b", "c", "never"]})
    out = broadcast_hash_join(rd.from_pandas(fact).repartition(4),
                              rd.from_pandas(udim), left_on="k",
                              right_on="dk") \
        .to_pandas().sort_values(["k", "v"], ignore_index=True)
    want = fact.merge(udim, left_on="k", right_on="dk") \
        .drop(columns=["dk"]).sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(out[sorted(out.columns)],
                                  want[sorted(want.columns)])
    lout = broadcast_hash_join(rd.from_pandas(fact), rd.from_pandas(udim),
                               left_on="k", right_on="dk",
                               join_type="left outer").to_pandas()
    assert len(lout) == len(fact)
    assert lout["name"].isna().sum() == (~fact["k"].isin(udim["dk"])).sum()


def test_hash_join_rejects_overlapping_columns(rd, fact):
    other = pd.DataFrame({"dk": np.array([1], dtype=np.int64), "v": [2]})
    j = broadcast_hash_join(rd.from_pandas(fact), rd.from_pandas(other),
                            left_on="k", right_on="dk")
    with pytest.raises(Exception, match="both sides"):  # raised in-task
        j.to_pandas()


def test_shuffle_join_matches_pandas_inner(rd, fact, dim):
    out = shuffle_hash_join(rd.from_pandas(fact).repartition(5),
                            rd.from_pandas(dim).repartition(3),
                            left_on="k", right_on="dk", num_parts=16) \
        .to_pandas().sort_values(["k", "v", "name"], ignore_index=True)
    want = fact.merge(dim, left_on="k", right_on="dk").drop(columns=["dk"]) \
        .sort_values(["k", "v", "name"], ignore_index=True)
    pd.testing.assert_frame_equal(out[sorted(out.columns)],
                                  want[sorted(want.columns)])
    assert out["v"].dtype == np.int64  # int dtypes survive the union


def test_shuffle_join_left_keeps_unmatched(rd, fact, dim):
    out = shuffle_hash_join(rd.from_pandas(fact), rd.from_pandas(dim),
                            left_on="k", right_on="dk", how="left",
                            num_parts=8).to_pandas()
    assert len(out) == len(fact) + fact["k"].isin([3, 42]).sum()
    unmatched = out[out["name"].isna()]
    assert (~unmatched["k"].isin(dim["dk"])).all()


def test_shuffle_join_string_keys(rd):
    lf = pd.DataFrame({"k": ["a", "b", "a", "z"],
                       "v": np.arange(4, dtype=np.int64)})
    rf = pd.DataFrame({"k2": ["a", "b", "c"], "w": ["x", "y", "z"]})
    out = shuffle_hash_join(rd.from_pandas(lf), rd.from_pandas(rf),
                            left_on="k", right_on="k2", num_parts=8) \
        .to_pandas().sort_values(["k", "v"], ignore_index=True)
    want = lf.merge(rf, left_on="k", right_on="k2").drop(columns=["k2"]) \
        .sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(out[sorted(out.columns)],
                                  want[sorted(want.columns)])


@pytest.mark.parametrize("how", ["inner", "left"])
def test_shuffle_join_without_matches_keeps_declared_types(rd, how):
    """No key matches: every part's join is empty (inner) or all nulls
    on the right (left), and each column keeps its declared type
    instead of falling back to untyped object columns."""
    lf = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                   "v": pa.array([10, 20, 30], pa.int32())})
    rf = pa.table({"k2": pa.array([7, 8], pa.int64()),
                   "name": pa.array(["x", "y"]),
                   "w": pa.array([1.5, 2.5])})
    out = shuffle_hash_join(rd.from_arrow(lf), rd.from_arrow(rf),
                            left_on="k", right_on="k2", how=how,
                            num_parts=4).materialize()
    assert out.count() == (0 if how == "inner" else 3)
    sch = out.schema()
    assert dict(zip(sch.names, sch.types)) == {
        "k": pa.int64(), "v": pa.int32(), "name": pa.string(),
        "w": pa.float64()}


def test_shuffle_join_rejects_overlapping_columns(rd, fact):
    other = pd.DataFrame({"dk": [1], "v": [2]})  # "v" exists on left too
    with pytest.raises(ValueError, match="both sides"):
        shuffle_hash_join(rd.from_pandas(fact), rd.from_pandas(other),
                          left_on="k", right_on="dk")


def test_hash_join_rejects_widening_join_types(rd, fact, dim):
    with pytest.raises(ValueError, match="join_type"):
        broadcast_hash_join(rd.from_pandas(fact), rd.from_pandas(dim),
                            left_on="k", right_on="dk",
                            join_type="full outer")


def test_bloom_semijoin_matches_isin(rd, fact, dim):
    """Bloom prefilter + exact verify equals the plain semijoin in both
    verify modes; verify=None is a superset (no false negatives); a
    deliberately tiny bits_per_key forces false positives that the
    verify pass must remove; string keys hash consistently too."""
    from search_engines_ray.functions.join import bloom_semijoin
    want = fact[fact["k"].isin(dim["dk"])] \
        .sort_values(["k", "v"], ignore_index=True)
    for verify in ("shuffle", "broadcast"):
        out = bloom_semijoin(rd.from_pandas(fact).repartition(6),
                             rd.from_pandas(dim), "k", keys_col="dk",
                             verify=verify) \
            .to_pandas().sort_values(["k", "v"], ignore_index=True)
        pd.testing.assert_frame_equal(out[["k", "v"]], want, str(verify))
    # 1 bit/key, 1 hash → heavy false positives; verify stays exact
    out = bloom_semijoin(rd.from_pandas(fact).repartition(6),
                         rd.from_pandas(dim), "k", keys_col="dk",
                         bits_per_key=1, verify="shuffle") \
        .to_pandas().sort_values(["k", "v"], ignore_index=True)
    pd.testing.assert_frame_equal(out[["k", "v"]], want)
    # approximate mode: superset, never loses a true match
    approx = bloom_semijoin(rd.from_pandas(fact).repartition(6),
                            rd.from_pandas(dim), "k", keys_col="dk",
                            bits_per_key=1, verify=None).to_pandas()
    got_pairs = set(map(tuple, approx[["k", "v"]].to_numpy()))
    assert set(map(tuple, want.to_numpy())) <= got_pairs
    # string keys
    sfact = pd.DataFrame({"k": ["a", "b", "c", "d"] * 10,
                          "v": np.arange(40, dtype=np.int64)})
    sdim = pd.DataFrame({"k": ["b", "d"]})
    sout = bloom_semijoin(rd.from_pandas(sfact), rd.from_pandas(sdim),
                          "k", verify="shuffle").to_pandas()
    assert set(sout["k"]) == {"b", "d"} and len(sout) == 20
    with pytest.raises(ValueError, match="verify"):
        bloom_semijoin(rd.from_pandas(fact), rd.from_pandas(dim), "k",
                       keys_col="dk", verify="bogus")


def test_bloom_semijoin_cross_dtype_keys(rd):
    """int32/float64 fact keys probing an int64 key set must not
    false-negative: the hash canonicalizes numeric width before
    probing (negative values exercise the signed reinterpretation)."""
    from search_engines_ray.functions.join import bloom_semijoin
    fact32 = pd.DataFrame({
        "k": np.array([-3, -1, 0, 5, 9, 12], dtype=np.int32),
        "v": np.arange(6, dtype=np.int64)})
    keys64 = pd.DataFrame({"k": np.array([-3, 5, 999], dtype=np.int64)})
    out = bloom_semijoin(rd.from_pandas(fact32), rd.from_pandas(keys64),
                         "k", verify="broadcast").to_pandas()
    assert sorted(out["k"].tolist()) == [-3, 5]
    factf = pd.DataFrame({
        "k": np.array([5.0, 7.0, -3.0], dtype=np.float64),
        "v": np.arange(3, dtype=np.int64)})
    outf = bloom_semijoin(rd.from_pandas(factf), rd.from_pandas(factf),
                          "k", verify="shuffle").to_pandas()
    assert len(outf) == 3          # self-join keeps everything
