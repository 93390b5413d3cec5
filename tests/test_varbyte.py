import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from search_engines_ray.index.varbyte import (
    decode_postings, delta_decode, delta_encode, encode_postings,
    vb_decode, vb_encode,
)


def test_roundtrip_edges():
    for vals in ([], [0], [0, 0, 0], [127], [128], [16383], [16384],
                 [2**63 - 1], [1, 2**40, 0, 7], [2**64 - 1, 5],
                 [1, 200, 1, 1, 2**40, 3, 300, 127, 128, 16384, 2]):
        a = np.array(vals, dtype=np.uint64)
        assert vb_decode(vb_encode(a)).tolist() == vals


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
@settings(max_examples=50, deadline=None)
def test_roundtrip_random(vals):
    a = np.array(vals, dtype=np.uint64)
    assert vb_decode(vb_encode(a)).tolist() == vals


def test_delta():
    a = np.array([3, 3, 7, 100], dtype=np.uint64)
    assert delta_decode(delta_encode(a)).tolist() == a.tolist()


def test_postings_roundtrip():
    docids = np.array([3, 7, 8, 100], dtype=np.int64)
    tfs = np.array([2, 1, 3, 1], dtype=np.int32)
    pos = np.array([0, 5, 2, 1, 4, 9, 0], dtype=np.int64)
    d, t, p = encode_postings(docids, tfs, pos)
    dd, tt, pp = decode_postings(d, t, p)
    assert dd.tolist() == docids.tolist()
    assert tt.tolist() == tfs.tolist()
    assert pp.tolist() == pos.tolist()


def test_postings_empty():
    d, t, p = encode_postings(np.array([], dtype=np.int64),
                              np.array([], dtype=np.int32),
                              np.array([], dtype=np.int64))
    dd, tt, pp = decode_postings(d, t, p)
    assert dd.size == 0 and tt.size == 0 and pp.size == 0


@given(st.lists(st.tuples(st.integers(0, 10**6),
                          st.lists(st.integers(0, 5000), min_size=1, max_size=8)),
                max_size=30, unique_by=lambda x: x[0]))
@settings(max_examples=30, deadline=None)
def test_postings_random(docs):
    docs.sort()
    docids = np.array([d for d, _ in docs], dtype=np.int64)
    tfs = np.array([len(p) for _, p in docs], dtype=np.int32)
    pos = np.array([x for _, p in docs for x in sorted(p)], dtype=np.int64)
    d, t, pb = encode_postings(docids, tfs, pos)
    dd, tt, pp = decode_postings(d, t, pb)
    assert dd.tolist() == docids.tolist()
    assert tt.tolist() == tfs.tolist()
    assert pp.tolist() == pos.tolist()
