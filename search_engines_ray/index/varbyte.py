"""Delta + variable-byte codec for posting lists, numpy-vectorized.

Replaces the reference's in-heap ``Vector<DocPosting>`` representation
(``/root/reference/QryEval/InvList.java:26-83``) with the compressed
layout the north rule asks for: docid gaps and position gaps encoded as
little-endian 7-bit groups, high bit set = "more bytes follow".

Both encode and decode are vectorized: encode loops over at most
``ceil(64/7) = 10`` byte-slots (not over values); decode copies the first
byte of every value and folds in the later bytes of the multi-byte ones,
in work proportional to their count. Throughput is tens of
millions of integers/s per core, which keeps the codec far off the
critical path relative to tokenization.
"""

from __future__ import annotations

import numpy as np

_PAYLOAD = np.uint64(0x7F)
_CONT = np.uint64(0x80)
_SEVEN = np.uint64(7)


# value-magnitude thresholds: nbytes(v) = 1 + #{t in _THRESH : t <= v}
_THRESH = np.uint64(1) << (np.arange(1, 10, dtype=np.uint64) * _SEVEN)


def vb_encode(values: np.ndarray) -> bytes:
    """Encode a non-negative int array to varbyte bytes."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    if int(v.max()) < 128:
        # fast path: every value fits one byte (typical for position
        # gaps and tfs) — the encoded form IS the byte array
        return v.astype(np.uint8).tobytes()
    # bytes needed per value: ceil(bitlen/7), min 1 — one searchsorted
    # pass instead of a shift loop
    nbytes = np.searchsorted(_THRESH, v, side="right") + 1
    total = int(nbytes.sum())
    out = np.empty(total, dtype=np.uint8)
    ends = np.cumsum(nbytes)            # one past last byte of each value
    starts = ends - nbytes
    # fill byte-slot k of every value that has > k bytes
    maxb = int(nbytes.max())
    shifted = v.copy()
    for k in range(maxb):
        has = nbytes > k
        idx = starts[has] + k
        byte = (shifted[has] & _PAYLOAD).astype(np.uint8)
        is_last = nbytes[has] == k + 1
        byte = np.where(is_last, byte, byte | np.uint8(0x80))
        out[idx] = byte
        shifted >>= _SEVEN
    return out.tobytes()


def vb_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode varbyte bytes back to a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    if not (b & 0x80).any():
        # fast path: no continuation bits — every byte is a value
        return b.astype(np.uint64)
    # a continuation byte's successor belongs to the same value; every
    # other byte starts one
    cont = np.flatnonzero(b & 0x80)
    later = cont + 1
    first = np.ones(b.size, dtype=np.bool_)
    first[later] = False
    out = b[first].astype(np.uint64)
    # fold each multi-byte value's later bytes in: a run of consecutive
    # continuation bytes is one value, its byte j + 1 in slot j + 1
    i = np.arange(cont.size)
    run = np.ones(cont.size, dtype=np.bool_)
    run[1:] = cont[1:] != cont[:-1] + 1
    heads = np.flatnonzero(run)
    slot = i - np.repeat(heads, np.diff(np.append(heads, cont.size))) + 1
    vals = (b[later] & 0x7F).astype(np.uint64) << (slot.astype(np.uint64)
                                                   * _SEVEN)
    value = cont[heads] - heads      # start bytes before the run's head
    out[value] = (out[value] & _PAYLOAD) | np.bitwise_or.reduceat(vals, heads)
    return out


def delta_encode(sorted_values: np.ndarray) -> np.ndarray:
    """Ascending ints → first value + successive gaps (uint64)."""
    v = np.asarray(sorted_values, dtype=np.uint64)
    if v.size == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    return out


def delta_decode(gaps: np.ndarray) -> np.ndarray:
    g = np.asarray(gaps, dtype=np.uint64)
    return np.cumsum(g, dtype=np.uint64)


def encode_postings(docids: np.ndarray, tfs: np.ndarray,
                    positions_concat: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """(docids asc, tfs, concatenated per-doc position lists) → 3 blobs.

    ``positions_concat`` holds each doc's ascending position list
    back-to-back; ``tfs`` gives the per-doc counts needed to split it.
    Positions are delta-coded *within* each doc (the first position of a
    doc is absolute): subtracting a shifted copy and re-patching the doc
    boundaries does that without a Python loop.
    """
    d = vb_encode(delta_encode(docids))
    t = vb_encode(tfs)
    p = np.asarray(positions_concat, dtype=np.uint64)
    if p.size:
        gaps = np.empty_like(p)
        gaps[0] = p[0]
        np.subtract(p[1:], p[:-1], out=gaps[1:])
        tf = np.asarray(tfs, dtype=np.int64)
        bounds = np.cumsum(tf)[:-1]           # start index of docs 1..n-1
        gaps[bounds] = p[bounds]              # first position per doc is absolute
        pos_blob = vb_encode(gaps)
    else:
        pos_blob = b""
    return d, t, pos_blob


def decode_postings(docid_blob, tf_blob, pos_blob=None):
    """→ (docids int64, tfs int32, positions_concat int32 | None)."""
    docids = delta_decode(vb_decode(docid_blob)).astype(np.int64)
    tfs = vb_decode(tf_blob).astype(np.int32)
    if pos_blob is None:
        return docids, tfs, None
    gaps = vb_decode(pos_blob).astype(np.int64)
    if gaps.size:
        tf = tfs.astype(np.int64)
        bounds = np.cumsum(tf)[:-1]
        # segmented cumsum: global cumsum minus the carried-over prefix at
        # each doc boundary
        csum = np.cumsum(gaps)
        carry = np.zeros(gaps.size, dtype=np.int64)
        if bounds.size:
            carry_vals = csum[bounds - 1]
            seg = np.zeros(gaps.size, dtype=np.int64)
            seg[bounds] = np.diff(np.concatenate(([0], carry_vals)))
            carry = np.cumsum(seg)
        positions = (csum - carry).astype(np.int32)
    else:
        positions = np.empty(0, dtype=np.int32)
    return docids, tfs, positions
