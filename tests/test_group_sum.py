"""Unit tests for the per-salt dense group-sum kernel
(query/distributed.py::_group_sum_entries) — the aggregation under
every distributed query path. Pins the dense bincount fast path
against the sort+reduceat fallback and the zero-candidate semantics.
Pure numpy; no Ray session needed."""

import numpy as np
import pytest

from search_engines_ray.query import distributed as D


def _random_entries(rng, nq=7, nterms=12, span=5_000, base=120_000):
    entries = []
    for _ in range(nterms):
        n = int(rng.integers(1, 400))
        docids = np.sort(rng.choice(span, size=n, replace=False)) + base
        scores = rng.random(n)
        qc = int(rng.integers(0, nq))
        entries.append((qc, docids.astype(np.int64), scores))
    return entries


def _reference(entries):
    acc = {}
    for qc, d, v in entries:
        for di, vi in zip(d, v):
            acc[(qc, int(di))] = acc.get((qc, int(di)), 0.0) + float(vi)
    keys = sorted(acc)
    return (np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([acc[k] for k in keys]))


def test_dense_matches_reference_and_fallback():
    rng = np.random.default_rng(7)
    entries = _random_entries(rng)
    qc_d, id_d, s_d = D._group_sum_entries(entries)
    qc_r, id_r, s_r = _reference(entries)
    np.testing.assert_array_equal(qc_d, qc_r)
    np.testing.assert_array_equal(id_d, id_r)
    np.testing.assert_allclose(s_d, s_r, rtol=1e-12)
    # force the sort fallback by shrinking the dense cap
    old = D._DENSE_CAP
    D._DENSE_CAP = 1
    try:
        qc_f, id_f, s_f = D._group_sum_entries(entries)
    finally:
        D._DENSE_CAP = old
    np.testing.assert_array_equal(qc_f, qc_r)
    np.testing.assert_array_equal(id_f, id_r)
    np.testing.assert_allclose(s_f, s_r, rtol=1e-12)


def test_zero_candidates_kept_only_on_request():
    """A doc whose only contribution is exactly 0.0 (idf-clamped BM25
    term) must survive when need_zero_candidates=True — the reference
    treats any matched doc as a candidate regardless of score."""
    entries = [(0, np.array([10, 11], dtype=np.int64),
                np.array([0.0, 2.5]))]
    qc, docid, s = D._group_sum_entries(entries)
    assert docid.tolist() == [11]
    qc, docid, s = D._group_sum_entries(entries, need_zero_candidates=True)
    assert docid.tolist() == [10, 11]
    assert s.tolist() == [0.0, 2.5]


def test_empty_and_single():
    qc, docid, s = D._group_sum_entries([])
    assert qc.size == docid.size == s.size == 0
    qc, docid, s = D._group_sum_entries(
        [(3, np.array([42], dtype=np.int64), np.array([1.5]))])
    assert qc.tolist() == [3] and docid.tolist() == [42]
    assert s.tolist() == [1.5]


def test_topk_cut_sorted():
    qc = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    sums = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    keep = D._topk_cut_sorted(qc, sums, k=2)
    assert keep.tolist() == [True, False, True, True, True]
    # ties at the kth score are kept
    qc = np.zeros(4, dtype=np.int64)
    sums = np.array([2.0, 1.0, 1.0, 3.0])
    keep = D._topk_cut_sorted(qc, sums, k=2)
    assert keep.tolist() == [True, False, False, True] or \
        keep.sum() >= 2  # kth=2.0: ties at 2.0 kept
    kth_keep = D._topk_cut_sorted(np.zeros(4, dtype=np.int64),
                                  np.array([2.0, 2.0, 1.0, 3.0]), k=2)
    assert kth_keep.tolist() == [True, True, False, True]


def test_topk_cut_bounds_ties_per_pid():
    """With docids and pid ranges, a tie group wider than k keeps only
    the first k of each (query, pid) by (score desc, docid asc); rows
    above the kth score and queries within k are untouched."""
    off = np.array([0, 10, 20, 30], dtype=np.int64)     # pids 0, 1, 2
    qc = np.array([0] * 8 + [1] * 3, dtype=np.int64)
    docid = np.array([1, 2, 3, 4, 11, 12, 13, 25, 1, 2, 3], dtype=np.int64)
    sums = np.array([1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                     1.0, 1.0, 1.0])
    keep = D._topk_cut_sorted(qc, sums, 2, docid, off)
    # q0: kth = 1.0 keeps all 8; pid 0 keeps 3 (5.0) and 1, pid 1 keeps
    # 11 and 12, pid 2 keeps 25; q1: 3 ties in one pid → first 2
    assert keep.tolist() == [True, False, True, False, True, True, False,
                             True, True, True, False]
    assert D._topk_cut_sorted(qc, sums, 2).sum() == 11


def test_rank_results_tie_resolution():
    """rank_results* must resolve a kth-score tie group larger than k
    by byte-ascending external id, exactly as a full lexsort would
    (ScoreList.java:90-97) — pins the Arrow select_k fast path."""
    import pyarrow as pa
    from search_engines_ray.query.trec import (
        rank_results, rank_results_candidates,
    )
    rng = np.random.default_rng(3)
    n = 5_000
    ext = np.array([f"doc-{i:06d}" for i in rng.permutation(n)],
                   dtype=object)
    docids = np.arange(n, dtype=np.int64)
    # three score tiers; the middle tier ties across ~half the corpus
    scores = np.where(docids % 17 == 0, 3.0,
                      np.where(docids % 2 == 0, 2.0, 1.0))
    got = rank_results(docids, scores, ext, k=100)
    # brute-force reference ordering
    order = np.lexsort((ext[docids], -scores))[:100]
    assert got["external_id"].to_pylist() == ext[docids][order].tolist()
    assert got["score"].to_pylist() == scores[order].tolist()
    got2 = rank_results_candidates(docids, scores, lambda d: ext[d], k=100)
    assert got2.equals(got)
    # negative scores drop entirely (QryEval.java:437)
    neg = rank_results(docids, np.full(n, -1.0), ext, k=10)
    assert neg.num_rows == 0
