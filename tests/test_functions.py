import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _fake_media_batch(n: int, kind: str = "image", seed: int = 0):
    """Deterministic synthetic media rows matching MEDIA_SCHEMA."""
    import pyarrow as pa

    from search_engines_ray.functions.multimodal import MEDIA_SCHEMA
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=64 + 8 * i, dtype=np.uint8).tobytes()
                for i in range(n)]
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64) + seed * 10_000),
        "kind": pa.array([kind] * n),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(["image/fake"] * n),
        "width": pa.array(np.full(n, 32, dtype=np.int32)),
        "height": pa.array(np.full(n, 32, dtype=np.int32)),
        "duration_ms": pa.array(np.full(n, -1, dtype=np.int32)),
    }, schema=MEDIA_SCHEMA)


@pytest.fixture(scope="module")
def dup_docs(ray_session):
    import ray.data as rd
    rows = []
    base = "the quick brown fox jumps over the lazy dog again and again today"
    near = base.replace("today", "tonight")
    for i in range(10):
        rows.append({"doc_id": i, "text": f"unique document number {i} about topic {i*7}"})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})           # exact dup
    rows.append({"doc_id": 102, "text": near})           # near dup
    rows.append({"doc_id": 103, "text": ""})
    return rd.from_pandas(pd.DataFrame(rows))


def test_exact_dedup(dup_docs):
    from search_engines_ray.functions import exact_dedup
    out = exact_dedup(dup_docs).to_pandas()
    grp = out[out["n_dups"] > 1]
    assert len(grp) == 1
    assert grp.iloc[0]["canonical_id"] == 100 and grp.iloc[0]["n_dups"] == 2
    assert len(out) == 13            # 14 docs, one collapsed pair


def test_minhash_lsh_dedup(dup_docs):
    from search_engines_ray.functions import minhash_lsh_dedup
    out = minhash_lsh_dedup(dup_docs, jaccard_threshold=0.5).to_pandas()
    m = dict(zip(out["doc_id"], out["canonical_id"]))
    # exact + near dup both map to canonical 100
    assert m.get(101) == 100
    assert m.get(102) == 100
    # unique docs never appear as non-trivial members
    for i in range(10):
        assert m.get(i, i) == i


def test_simhash_dedup(dup_docs):
    from search_engines_ray.functions import simhash_dedup
    out = simhash_dedup(dup_docs).to_pandas()
    m = dict(zip(out["doc_id"], out["canonical_id"]))
    assert m.get(101) == 100         # identical text -> identical simhash


def test_ngram_jaccard():
    from search_engines_ray.functions import ngram_jaccard
    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0
    assert 0.0 < ngram_jaccard("a b c d e", "a b c d f") < 1.0


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd
    return rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_ann_cosine_topk_matches_numpy(emb_ds):
    from search_engines_ray.functions import ann_cosine_topk
    import pyarrow.parquet as pq
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    M = np.array(t["embedding"].to_pylist(), dtype=np.float32)
    ids = t["vec_id"].to_numpy()
    q = M[:2]
    out = ann_cosine_topk(emb_ds, q, k=5).to_pandas()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = Mn @ qn.T
    for qi in range(2):
        exp_order = np.lexsort((ids, -sims[:, qi]))[:5]
        got = out[out["query_id"] == qi]
        assert list(got["vec_id"]) == ids[exp_order].tolist()
        np.testing.assert_allclose(got["score"], sims[exp_order, qi],
                                   rtol=1e-5)
    # self-match is rank 1
    assert out[out["query_id"] == 0].iloc[0]["vec_id"] == ids[0]


def test_lsh_ann_topk_contains_self(emb_ds):
    from search_engines_ray.functions import lsh_ann_topk
    import pyarrow.parquet as pq
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    M = np.array(t["embedding"].to_pylist(), dtype=np.float32)
    out = lsh_ann_topk(emb_ds, M[:2], k=5).to_pandas()
    got0 = out[out["query_id"] == 0]
    assert len(got0) >= 1
    assert got0.iloc[0]["vec_id"] == t["vec_id"][0].as_py()


def test_language_id(ray_session):
    import ray.data as rd
    from search_engines_ray.functions import language_id
    ds = rd.from_pandas(pd.DataFrame({
        "text": ["the cat is on the mat and it was good",
                 "der hund ist nicht zu haus und ich bin müde",
                 "le chat est dans la maison et je ne sais pas",
                 ""]}))
    out = language_id(ds).to_pandas()
    assert list(out["detected_lang"]) == ["en", "de", "fr", "unknown"]


def test_quality_and_token_stats(ray_session):
    import ray.data as rd
    from search_engines_ray.functions import quality_scores, token_stats
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2], "text": ["The cat!! 99", ""]}))
    q = quality_scores(ds).to_pandas().sort_values("doc_id")
    assert q.iloc[0]["n_tokens"] == 3
    assert q.iloc[1]["n_tokens"] == 0 and q.iloc[1]["alpha_ratio"] == 0.0
    t = token_stats(ds).to_pandas().sort_values("doc_id")
    assert t.iloc[0]["ws_tokens"] == 3
    assert t.iloc[0]["bpe_ish_tokens"] == 6      # the, cat, !, !, 9, 9


def test_doc_fingerprint_deterministic(ray_session):
    import ray.data as rd
    from search_engines_ray.functions import doc_fingerprint
    df = pd.DataFrame({"doc_id": [1, 2],
                       "text": ["word " * 30, "other text entirely here now"]})
    a = doc_fingerprint(rd.from_pandas(df)).to_pandas().sort_values("doc_id")
    b = doc_fingerprint(rd.from_pandas(df)).to_pandas().sort_values("doc_id")
    assert list(a["fingerprint"].map(list)) == list(b["fingerprint"].map(list))
    assert len(a.iloc[0]["fingerprint"]) >= 1


def test_multimodal_plumbing(ray_session):
    import ray.data as rd
    from search_engines_ray.functions.multimodal import (
        DecodeImage, decode_features,
    )
    media = rd.from_arrow(_fake_media_batch(20))
    out = decode_features(media, fake=True).to_pandas()
    assert len(out) == 20
    assert all(len(f) == 16 for f in out["features"])
    with pytest.raises(NotImplementedError):
        DecodeImage(fake=False)._decode_one(b"xx")


def test_decode_image_auto_import_guard():
    """auto=True decodes REAL images when PIL exists in the
    environment, silently falls back to the deterministic fake double
    otherwise — both branches yield FEATURE_DIM float32 features."""
    from search_engines_ray.functions.multimodal import DecodeImage
    dec = DecodeImage(auto=True)
    try:
        from PIL import Image
        import io
        buf = io.BytesIO()
        Image.new("RGB", (8, 8), (200, 10, 10)).save(buf, format="PNG")
        payload = buf.getvalue()
        assert dec._pil is not None and not dec.fake
    except ImportError:
        payload = b"not-an-image"
        assert dec._pil is None and dec.fake
    feats = dec._decode_one(payload)
    assert feats.shape == (DecodeImage.FEATURE_DIM,)
    assert feats.dtype == np.float32


def test_decode_image_real_branch_with_stub_pil():
    """Exercise the REAL-decode branch deterministically by injecting a
    stub PIL module (the container ships no image library): the branch
    must produce 16 normalized float32 features from the 4x4 grayscale
    thumbnail, never touching the fake path (VERDICT r3 item 9)."""
    from search_engines_ray.functions.multimodal import DecodeImage

    class _Img:
        def __init__(self, level):
            self.level = level

        def convert(self, mode):
            assert mode == "L"
            return self

        def resize(self, wh):
            assert wh == (4, 4)
            return self

        def __array__(self, dtype=None, copy=None):
            return np.full((4, 4), self.level, dtype=np.uint8)

    class _StubPIL:
        @staticmethod
        def open(buf):
            return _Img(buf.read()[0])

    dec = DecodeImage(fake=False)
    dec._pil = _StubPIL
    feats = dec._decode_one(bytes([102, 7, 7]))
    assert feats.shape == (DecodeImage.FEATURE_DIM,)
    np.testing.assert_allclose(feats, 102 / 255.0)


def test_decode_image_real_pil_end_to_end(ray_session):
    """VERDICT r4 item 4: run the REAL PIL decode branch end-to-end
    through the Ray actor pool when pillow is installed (a dev/tox
    environment); SKIPPED — never silently passed via the fake
    fallback — when it is not."""
    pytest.importorskip("PIL", reason="real-image decode needs pillow")
    import io

    import ray.data as rd
    from PIL import Image

    from search_engines_ray.functions.multimodal import (
        MEDIA_SCHEMA, DecodeImage, decode_features,
    )

    payloads = []
    for level in (0, 64, 128, 255):
        buf = io.BytesIO()
        Image.new("L", (8, 8), level).save(buf, format="PNG")
        payloads.append(buf.getvalue())
    n = len(payloads)
    media = rd.from_arrow(pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64)),
        "kind": pa.array(["image"] * n),
        "payload": pa.array(payloads, pa.binary()),
        "mime": pa.array(["image/png"] * n),
        "width": pa.array(np.full(n, 8, dtype=np.int32)),
        "height": pa.array(np.full(n, 8, dtype=np.int32)),
        "duration_ms": pa.array(np.full(n, -1, dtype=np.int32)),
    }, schema=MEDIA_SCHEMA))
    out = decode_features(media, fake=False, auto=True).to_pandas() \
        .sort_values("media_id", ignore_index=True)
    assert len(out) == n
    for i, level in enumerate((0, 64, 128, 255)):
        feats = np.asarray(out["features"][i], dtype=np.float32)
        assert feats.shape == (DecodeImage.FEATURE_DIM,)
        np.testing.assert_allclose(feats, level / 255.0, atol=1e-6)


def test_frame_sample_auto_and_real_branch():
    """FrameSample(auto=True) mirrors DecodeImage's import guard: falls
    back to the byte-per-frame fake when no video library exists, and
    the real branch (driven with a stub reader) emits one mean-luma
    byte per stride-th frame."""
    import ray.data as rd
    from search_engines_ray.functions.multimodal import FrameSample
    fs = FrameSample(stride=3, auto=True)
    try:
        import imageio.v3  # noqa: F401
        assert fs._reader is not None and not fs.fake
    except ImportError:
        assert fs._reader is None and fs.fake
    media = rd.from_arrow(_fake_media_batch(6, kind="video"))
    out = fs(media.take_batch(6, batch_format="pyarrow"))
    assert out.num_rows == 6
    if fs.fake:
        pay = _fake_media_batch(6, kind="video")["payload"].to_pylist()
        assert out["frames"].to_pylist() == [p[::3] for p in pay]

    class _StubReader:
        @staticmethod
        def imiter(buf, plugin=None):
            n = buf.read()[0]                     # frame count from payload
            return (np.full((2, 2), i, dtype=np.uint8) for i in range(n))

    real = FrameSample(stride=2, fake=False)
    real._reader = _StubReader
    got = real._sample_one(bytes([5]))            # frames 0..4, keep 0,2,4
    assert got == bytes([0, 2, 4])
    with pytest.raises(NotImplementedError):
        FrameSample(fake=False)._sample_one(b"x")


def test_ivf_ann_topk(emb_ds):
    import pyarrow.parquet as pq
    from search_engines_ray.functions import ivf_ann_topk
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    M = np.array(t["embedding"].to_pylist(), dtype=np.float32)
    out = ivf_ann_topk(emb_ds, M[:2], k=5, n_lists=8, n_probe=8).to_pandas()
    # n_probe == n_lists -> exhaustive -> exact: self-match first
    got0 = out[out["query_id"] == 0]
    assert got0.iloc[0]["vec_id"] == t["vec_id"][0].as_py()
    assert len(got0) == 5
    # approximate mode still returns self-match (its own bucket is probed)
    out2 = ivf_ann_topk(emb_ds, M[:2], k=5, n_lists=8, n_probe=2).to_pandas()
    g0 = out2[out2["query_id"] == 0]
    assert g0.iloc[0]["vec_id"] == t["vec_id"][0].as_py()


def test_distributed_bm25_edge_cases(docs_index):
    from search_engines_ray.query.distributed import bm25_batch_search
    from search_engines_ray.query.models import BM25Model
    out = bm25_batch_search(docs_index.index_dir,
                            [("1", "zzzunknown"), ("2", "the of and")],
                            BM25Model(), k=10)
    assert out.num_rows == 0          # OOV + stopword-only -> no rows
    out = bm25_batch_search(docs_index.index_dir, [], BM25Model(), k=10)
    assert out.num_rows == 0


def test_minhash_chain_and_pairwise(ray_session):
    """Regression for review findings: (a) near-dup pairs not involving
    the bucket's min id must still be caught; (b) canonical chains must
    compress to the component root."""
    import ray.data as rd
    from search_engines_ray.functions import minhash_lsh_dedup
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    rows = [
        {"doc_id": 1, "text": "totally different content about nothing much"},
        {"doc_id": 5, "text": base},
        {"doc_id": 6, "text": base},                     # dup of 5
        {"doc_id": 7, "text": base.replace("kappa", "lambda")},  # near-dup
    ]
    out = minhash_lsh_dedup(rd.from_pandas(pd.DataFrame(rows)),
                            jaccard_threshold=0.5).to_pandas()
    m = dict(zip(out["doc_id"], out["canonical_id"]))
    assert m.get(6) == 5
    assert m.get(7) == 5            # chained/indirect member -> root 5
    assert all(v == 5 for k, v in m.items() if k in (5, 6, 7))


def _bigint_minhash(mh, text):
    """One doc's signature in exact big-integer arithmetic, hashing
    each shingle string on its own: md5's top 64 bits, then
    min over shingles of (a*h + b) mod (2^61-1) per permutation."""
    import hashlib

    from search_engines_ray.analysis.tokenizer import simple_tokenize
    from search_engines_ray.functions.dedup import _MERSENNE
    toks = simple_tokenize(text or "")
    k = mh.shingle
    if not toks:
        return [2 ** 64 - 1] * mh.num_perm
    sh = ([" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
          if len(toks) >= k else [" ".join(toks)])
    hs = [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
          for s in sh]
    return [min((a * h + b) % _MERSENNE for h in hs)
            for a, b in zip(map(int, mh.a), map(int, mh.b))]


def test_minhash_signature_matches_bigint_reference():
    """The batch signature kernel (distinct-shingle interning, uint64
    Mersenne-limb arithmetic, chunked doc-major gather and min) is
    bit-identical, row by row, to exact big-integer arithmetic over
    every shingle. The batch repeats shingles across docs, holds None,
    empty, 1- and 2-token docs, one doc longer than a gather chunk and
    docs that straddle chunk boundaries."""
    import pyarrow as pa

    from search_engines_ray.functions.dedup import _GATHER_ROWS, MinHasher
    mh = MinHasher(num_perm=16, shingle=3)
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox sleeps",          # shares shingles with row 0
        None, "", "short", "two tokens", "!!! ...",
        " ".join(rng.choice(vocab, _GATHER_ROWS + 300)),
    ]
    # ~95-shingle docs: their running total crosses several chunk edges
    texts += [" ".join(rng.choice(vocab, int(n)))
              for n in rng.integers(60, 130, 40)]
    texts += ["the quick brown fox jumps over the lazy dog again and again"]
    batch = pa.table({"doc_id": pa.array(np.arange(len(texts)) * 3),
                      "text": pa.array(texts, pa.string())})
    out = mh(batch)
    assert out.schema.field("minhash").type == pa.binary()
    assert out["doc_id"].to_pylist() == list(np.arange(len(texts)) * 3)
    sigs = out["minhash"].to_pylist()
    for text, sig in zip(texts, sigs):
        got = np.frombuffer(sig, np.uint64).tolist()
        assert got == _bigint_minhash(mh, text), text


def test_affine_p61_matches_bigint():
    """``_affine_p61`` is (a*h + b) mod (2^61-1) exactly, for full-range
    h (edge values included) and a, b anywhere in [0, p)."""
    from search_engines_ray.functions.dedup import _MERSENNE, _affine_p61
    p = _MERSENNE
    rng = np.random.default_rng(11)
    h = np.concatenate((
        rng.integers(0, 2 ** 64 - 1, 3000, dtype=np.uint64, endpoint=True),
        np.array([0, p - 1, p, p + 1, 2 * p, 2 ** 61, 2 ** 63,
                  2 ** 64 - 1], dtype=np.uint64)))
    a = np.concatenate((rng.integers(1, p, 13, dtype=np.uint64),
                        np.array([1, p - 1, 2 ** 32 - 1, 2 ** 32],
                                 dtype=np.uint64)))
    b = np.concatenate((rng.integers(0, p, 13, dtype=np.uint64),
                        np.array([0, p - 1, p - 1, 0], dtype=np.uint64)))
    got = _affine_p61(a[None, :], b[None, :], h[:, None])
    want = [[(int(x) * int(y) + int(z)) % p for y, z in zip(a, b)]
            for x in h]
    assert got.tolist() == want
    # residues 0..4, where the last fold can leave p + r: per (a, b),
    # every h ≡ (r - b)/a that fits uint64
    for y, z in zip(map(int, a), map(int, b)):
        hs = [(r - z) * pow(y, -1, p) % p + k * p
              for r in range(5) for k in range(8)]
        got = _affine_p61(np.uint64(y), np.uint64(z),
                          np.array(hs, dtype=np.uint64))
        assert got.tolist() == [r for r in range(5) for _ in range(8)]


def test_popcount64_matches_bin_count():
    """``_popcount64`` (SWAR) equals ``bin(v).count("1")`` on 0,
    2^64-1, every single bit, every 2^k - 1 and 10,000 seeded values."""
    from search_engines_ray.functions.dedup import _popcount64
    v = [0, 2 ** 64 - 1] + [1 << k for k in range(64)] + \
        [(1 << k) - 1 for k in range(1, 65)]
    v = np.concatenate((np.array(v, dtype=np.uint64), np.random.default_rng(
        13).integers(0, 2 ** 64 - 1, 10_000, dtype=np.uint64, endpoint=True)))
    assert _popcount64(v).tolist() == [bin(int(x)).count("1") for x in v]


def _reference_simhash(text: str) -> int:
    """The per-doc SimHash fingerprint the batch kernel replaced, kept
    verbatim as its reference (``SimHasher.fingerprint`` and its
    ``_token_hashes``)."""
    from search_engines_ray.analysis.tokenizer import simple_tokenize
    from search_engines_ray.functions.dedup import _stable_u64

    def _token_hashes(tokens: list[str]) -> np.ndarray:
        return np.fromiter((_stable_u64(t) for t in tokens), dtype=np.uint64,
                           count=len(tokens))

    toks = simple_tokenize(text or "")
    if not toks:
        return 0
    uniq, counts = np.unique(np.asarray(toks, dtype=object),
                             return_counts=True)
    hs = _token_hashes(list(uniq))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.int64)
    v = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
    return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def test_simhash_matches_per_doc_reference(dup_docs):
    """The batch SimHash kernel (md5 once per distinct token, one
    weighted bit sum per doc) is bit-identical to the per-doc reference
    on ``dup_docs``, perfbench's seed-7 1,000-row dedup batch, None, "",
    punctuation-only texts (all 0) and a repeated token."""
    from perfbench import gen

    from search_engines_ray.functions.dedup import _simhash
    texts = dup_docs.to_pandas()["text"].tolist() \
        + gen.corpus(7, 1000).dedup_table()["text"].to_pylist() \
        + [None, "", "!!! ... ,,,", "spam spam spam spam eggs", "spam"]
    got = _simhash(texts)
    assert got.dtype == np.uint64
    assert got.tolist() == [_reference_simhash(t) for t in texts]
    assert got[-5:-2].tolist() == [0, 0, 0]


def test_sig_matrix_reads_sliced_chunked_columns():
    """``_sig_matrix`` on a sliced multi-chunk binary column equals
    joining its rows' bytes, and refuses rows of the wrong width."""
    import pyarrow as pa

    from search_engines_ray.functions.dedup import _sig_matrix
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2 ** 64 - 1, (30, 4), dtype=np.uint64,
                        endpoint=True)
    chunks = [pa.array([r.tobytes() for r in rows[lo:hi]], pa.binary())
              for lo, hi in ((0, 7), (7, 8), (8, 30))]
    col = pa.chunked_array(chunks).slice(3, 20)
    want = np.frombuffer(b"".join(col.to_pylist()), np.uint64).reshape(-1, 4)
    assert np.array_equal(_sig_matrix(col, 4), want)
    arr = chunks[2].slice(5, 9)
    assert np.array_equal(_sig_matrix(arr, 4), rows[13:22])
    assert _sig_matrix(chunks[0].slice(0, 0), 4).shape == (0, 4)
    with pytest.raises(ValueError, match="32 bytes"):
        _sig_matrix(pa.array([b"x" * 32, b"y" * 31], pa.binary()), 4)


def test_compress_canonical_transitive_components(ray_session):
    """ADVICE r1: bucket1 {A,C} and bucket2 {B,C} edges must resolve B
    into A's component (min-label aggregation alone drops the B-C link
    when C keeps its smaller canonical A)."""
    import ray.data as rd
    from search_engines_ray.functions.dedup import _compress_canonical
    # raw bucket edges exactly as bucket_pairs emits them
    edges = pd.DataFrame({
        "doc_id":       [1, 3, 2, 3],
        "canonical_id": [1, 1, 2, 2],
    })
    out = _compress_canonical(rd.from_pandas(edges), "doc_id").to_pandas()
    m = dict(zip(out["doc_id"], out["canonical_id"]))
    assert m == {1: 1, 2: 1, 3: 1}


def test_ivf_sample_spans_dataset(ray_session):
    """The IVF centroid-init sample must draw across the WHOLE dataset,
    not the first blocks: with vectors laid out so early rows all point
    one way and late rows the other, both directions must appear among
    the centroids."""
    import ray.data as rd
    from search_engines_ray.functions.similarity import ivf_ann_topk
    n, d = 2000, 4
    vecs = np.zeros((n, d), dtype=np.float32)
    vecs[: n // 2, 0] = 1.0          # first half points along axis 0
    vecs[n // 2:, 1] = 1.0           # second half along axis 1
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [v.tolist() for v in vecs]})
    ds = rd.from_pandas(df).repartition(8)
    q = np.array([[0.0, 1.0, 0.0, 0.0]], dtype=np.float32)
    out = ivf_ann_topk(ds, q, k=5, n_lists=4, n_probe=1, kmeans_iters=2,
                       sample_size=256).to_pandas()
    # a first-blocks-only sample yields centroids all on axis 0, so the
    # axis-1 query probes a list holding no axis-1 vectors → score < 1
    assert len(out) == 5
    assert out["score"].max() == pytest.approx(1.0)
    assert all(out["vec_id"] >= n // 2)


def test_empty_corpus_build(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd
    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index,
    )
    ds = rd.from_pandas(pd.DataFrame({"url": pd.Series([], dtype=str),
                                      "text": pd.Series([], dtype=str)}))
    idx = str(tmp_path / "empty")
    build_index(ds, idx, IndexBuildConfig(num_buckets=2, docid_partitions=2),
                input_token="e", resume=False)
    r = IndexReader(idx)
    assert r.n_docs == 0
    assert r.postings("anything", "body") is None


def test_simhash_pairs_vs_dedup(dup_docs):
    """Pair-level op agrees with the union-find op: every pair joins two
    members of one component, and the identical pair has hamming 0."""
    from search_engines_ray.functions import simhash_dedup, simhash_pairs
    pairs = simhash_pairs(dup_docs).to_pandas()
    assert ((pairs["id_a"] == 100) & (pairs["id_b"] == 101)
            & (pairs["hamming"] == 0)).any()
    comp = dict(zip(*(lambda d: (d["doc_id"], d["canonical_id"]))(
        simhash_dedup(dup_docs).to_pandas())))
    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        assert comp[a] == comp[b], (a, b)


def test_minhash_candidate_pairs(dup_docs):
    from search_engines_ray.functions import minhash_candidate_pairs
    out = minhash_candidate_pairs(dup_docs, num_perm=32, bands=8).to_pandas()
    hit = out[(out["id_a"] == 100) & (out["id_b"] == 101)]
    # identical text -> identical signature -> collides in every band
    assert len(hit) == 1 and hit.iloc[0]["n_bands"] == 8
    # unrelated docs never share a band
    assert not ((out["id_a"] < 10) & (out["id_b"] < 10)).any()


@pytest.mark.parametrize("id_type", [pa.int32(), pa.string()])
def test_minhash_ops_keep_the_id_type(dup_docs, id_type):
    """``MinHasher`` passes its id column through, so int32 and string
    ids keep their type through the signature table,
    ``minhash_lsh_dedup``, ``simhash_dedup`` and
    ``minhash_candidate_pairs``, and the int64 results are the same
    pairs with the ids cast."""
    from search_engines_ray.functions import (
        minhash_candidate_pairs, minhash_lsh_dedup, simhash_dedup,
    )
    from search_engines_ray.functions.dedup import MinHasher
    import ray.data as rd

    def arrow(ds):
        return pa.concat_tables(ds.iter_batches(batch_format="pyarrow",
                                                batch_size=None))

    t = arrow(dup_docs)
    i = t.schema.get_field_index("doc_id")
    cast = t.set_column(i, "doc_id", t["doc_id"].cast(id_type))
    sig = MinHasher(num_perm=32)(cast)
    assert sig.schema.field("doc_id").type == id_type
    assert sig["minhash"].equals(MinHasher(num_perm=32)(t)["minhash"])
    ds = rd.from_arrow(cast)

    def as_int64(df):
        return df.astype(np.int64).sort_values(list(df.columns),
                                               ignore_index=True)

    for op, kw in ((minhash_lsh_dedup, {"jaccard_threshold": 0.5}),
                   (simhash_dedup, {})):
        dd = arrow(op(ds, **kw))
        assert dd.schema.field("doc_id").type == id_type, op.__name__
        assert dd.schema.field("canonical_id").type == id_type, op.__name__
        want = op(dup_docs, **kw).to_pandas()
        assert len(want) > 0, op.__name__
        pd.testing.assert_frame_equal(as_int64(dd.to_pandas()),
                                      as_int64(want))
    cp = arrow(minhash_candidate_pairs(ds, num_perm=32, bands=8))
    assert cp.schema.field("id_a").type == id_type
    assert cp.schema.field("id_b").type == id_type
    want = minhash_candidate_pairs(dup_docs, num_perm=32,
                                   bands=8).to_pandas()
    pd.testing.assert_frame_equal(as_int64(cp.to_pandas()), as_int64(want))


@pytest.mark.parametrize("id_type", [pa.int32(), pa.string()])
def test_pair_ops_keep_the_id_type(dup_docs, id_type):
    """``simhash_pairs`` and ``ngram_jaccard_pairs`` end in a Ray groupby
    that widens integer ids to int64; both hand int32 and string ids
    back in their input type, and the int64 results are the same pairs
    with the ids cast."""
    from search_engines_ray.functions import (
        ngram_jaccard_pairs, simhash_pairs,
    )
    import ray.data as rd

    t = pa.concat_tables(dup_docs.iter_batches(batch_format="pyarrow",
                                               batch_size=None))
    i = t.schema.get_field_index("doc_id")
    ds = rd.from_arrow(t.set_column(i, "doc_id", t["doc_id"].cast(id_type)))

    def as_int64(df):
        df = df.astype({"id_a": np.int64, "id_b": np.int64})
        return df.sort_values(list(df.columns), ignore_index=True)

    for op, kw in ((simhash_pairs, {}),
                   (ngram_jaccard_pairs, {"threshold": 0.5})):
        got = pa.concat_tables(op(ds, **kw).iter_batches(
            batch_format="pyarrow", batch_size=None))
        assert got.schema.field("id_a").type == id_type, op.__name__
        assert got.schema.field("id_b").type == id_type, op.__name__
        want = op(dup_docs, **kw).to_pandas()
        assert len(want) > 0, op.__name__
        pd.testing.assert_frame_equal(as_int64(got.to_pandas()),
                                      as_int64(want))


def test_embedding_dedup_matches_numpy(emb_ds):
    from search_engines_ray.functions import embedding_dedup
    t = emb_ds.to_pandas()
    m = np.asarray(list(t["embedding"]), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    ids = t["vec_id"].to_numpy()
    iu = np.triu_indices(len(ids), k=1)
    keep = sims[iu] >= 0.45
    expect = set(zip(ids[iu[0][keep]], ids[iu[1][keep]]))

    out = embedding_dedup(emb_ds, threshold=0.45).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    assert got == expect and len(got) > 0


def test_embedding_lsh_subset_of_exact(emb_ds):
    from search_engines_ray.functions import (
        embedding_dedup, embedding_lsh_dedup,
    )
    exact = embedding_dedup(emb_ds, threshold=0.45).to_pandas()
    lsh = embedding_lsh_dedup(emb_ds, threshold=0.45, planes=2).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    for a, b in zip(lsh["id_a"], lsh["id_b"]):
        assert (a, b) in exact_pairs


def test_ngram_jaccard_pairs_matches_kernel(dup_docs):
    """The inverted-shingle distributed op equals pairwise application
    of the ngram_jaccard verification kernel."""
    from search_engines_ray.functions import (
        ngram_jaccard, ngram_jaccard_pairs,
    )
    docs = dup_docs.to_pandas()
    texts = dict(zip(docs["doc_id"], docs["text"]))
    nonempty = [i for i in sorted(texts) if texts[i].strip()]
    expect = {}
    for j in range(1, len(nonempty)):
        for i in range(j):
            a, b = nonempty[i], nonempty[j]
            jac = ngram_jaccard(texts[a], texts[b])
            if jac >= 0.5:
                expect[(a, b)] = int(jac * 1e6 + 0.5)

    out = ngram_jaccard_pairs(dup_docs, threshold=0.5).to_pandas()
    got = {(a, b): int(j * 1e6 + 0.5) for a, b, j in
           zip(out["id_a"], out["id_b"], out["jaccard"])}
    assert got == expect and len(got) > 0


@pytest.fixture(scope="module")
def boilerplate_docs(ray_session):
    """20 docs sharing a long boilerplate prefix (every boilerplate
    shingle has df=20) plus a unique tail; one exact-dup pair on top."""
    import ray.data as rd
    boiler = ("copyright acme corporation all rights reserved terms of "
              "service privacy policy contact us about careers")
    rows = []
    for i in range(20):
        rows.append({"doc_id": i,
                     "text": f"{boiler} article {i} body words alpha{i} "
                             f"beta{i} gamma{i} delta{i}"})
    rows.append({"doc_id": 100, "text": rows[0]["text"]})   # exact dup of 0
    return rd.from_pandas(pd.DataFrame(rows))


def test_ngram_shingle_df_cap(boilerplate_docs):
    """VERDICT r2 item 3: without the cap a df=21 boilerplate shingle
    emits ~21² pair rows and every doc pair passes the threshold; with
    the cap, boilerplate shingles are dropped before sizes are computed
    so only the true exact-dup pair survives, at exact jaccard 1.0."""
    from search_engines_ray.functions import ngram_jaccard_pairs
    uncapped = ngram_jaccard_pairs(boilerplate_docs, threshold=0.5,
                                   max_shingle_df=None).to_pandas()
    assert len(uncapped) > 100          # boilerplate quadratic blowup
    capped = ngram_jaccard_pairs(boilerplate_docs, threshold=0.5,
                                 max_shingle_df=5).to_pandas()
    assert len(capped) == 1
    assert (capped.iloc[0]["id_a"], capped.iloc[0]["id_b"]) == (0, 100)
    assert capped.iloc[0]["jaccard"] == pytest.approx(1.0)


def test_ngram_default_cap_is_on(ray_session):
    """VERDICT r3 item 3: the boilerplate guard now defaults ON
    (max_shingle_df=256). 280 docs sharing only a boilerplate prefix
    (every boilerplate shingle df=281 > 256) would emit ~280²/2 pairs
    on the old default; the DEFAULT call must drop them before sizes
    and keep exactly the one true dup pair at jaccard 1.0."""
    import ray.data as rd
    from search_engines_ray.functions import ngram_jaccard_pairs
    boiler = ("copyright acme corporation all rights reserved terms of "
              "service privacy policy contact us")
    rows = [{"doc_id": i,
             "text": f"{boiler} story {i} unique alpha{i} beta{i} gamma{i}"}
            for i in range(280)]
    rows.append({"doc_id": 900, "text": rows[0]["text"]})   # dup of 0
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0]["id_a"], out.iloc[0]["id_b"]) == (0, 900)
    assert out.iloc[0]["jaccard"] == pytest.approx(1.0)


def test_minhash_bands_divisibility_validated(dup_docs):
    """ADVICE r3: the (n, bands, rows_per_band) reshape needs exact
    divisibility — both banding entry points must raise a clear error
    at entry, not a downstream reshape ValueError."""
    from search_engines_ray.functions import (
        minhash_candidate_pairs, minhash_lsh_dedup,
    )
    with pytest.raises(ValueError, match="multiple of"):
        minhash_lsh_dedup(dup_docs, num_perm=30, bands=16)
    with pytest.raises(ValueError, match="multiple of"):
        minhash_candidate_pairs(dup_docs, num_perm=33, bands=8)


def test_embedding_dedup_scale_guard(emb_ds):
    """VERDICT r2 item 4: past max_broadcast_bytes the exact op either
    raises with the routing hint or transparently takes the LSH path."""
    from search_engines_ray.functions import (
        embedding_dedup, embedding_lsh_dedup,
    )
    with pytest.raises(ValueError, match="embedding_lsh_dedup"):
        embedding_dedup(emb_ds, threshold=0.45, max_broadcast_bytes=1,
                        on_overflow="raise")
    routed = embedding_dedup(emb_ds, threshold=0.45,
                             max_broadcast_bytes=1).to_pandas()
    lsh = embedding_lsh_dedup(emb_ds, threshold=0.45).to_pandas()
    assert set(zip(routed["id_a"], routed["id_b"])) == \
        set(zip(lsh["id_a"], lsh["id_b"]))


def test_embedding_lsh_empty_input(ray_session):
    """ADVICE r2: bucketize must survive zero-row Arrow batches."""
    import ray.data as rd
    from search_engines_ray.functions import embedding_lsh_dedup
    df = pd.DataFrame({"vec_id": pd.array([1, 2], dtype="int64"),
                       "embedding": [[1.0, 0.0], [0.0, 1.0]]})
    empty = rd.from_pandas(df).filter(lambda row: False)
    out = embedding_lsh_dedup(empty).to_pandas()
    assert len(out) == 0


def test_pair_ops_string_ids(ray_session):
    """ADVICE r2: the pair-level ops must carry the input id dtype
    (string doc ids) instead of hard-coding int64."""
    import ray.data as rd
    from search_engines_ray.functions import (
        minhash_candidate_pairs, ngram_jaccard_pairs, simhash_pairs,
    )
    base = "the quick brown fox jumps over the lazy dog again and again"
    df = pd.DataFrame({
        "doc_id": ["doc-a", "doc-b", "doc-c"],
        "text": [base, base, "completely different words here entirely"],
    })
    ds = rd.from_pandas(df)
    for fn, kw in ((simhash_pairs, {}),
                   (minhash_candidate_pairs, dict(num_perm=32, bands=8)),
                   (ngram_jaccard_pairs, dict(threshold=0.5))):
        out = fn(ds, **kw).to_pandas()
        assert ("doc-a", "doc-b") in set(zip(out["id_a"], out["id_b"])), fn


def test_sq8_quantize_and_recall(ray_session):
    import numpy as np
    import ray.data as rd
    import pyarrow as pa
    from search_engines_ray.functions.similarity import (
        ann_cosine_topk, sq8_ann_topk, sq8_quantize)

    codes, scales = sq8_quantize(np.array([[1.0, -0.5, 0.25],
                                           [0.0, 0.0, 0.0]]))
    assert codes[0].tolist() == [127, -63, 32]   # round-half-up
    assert scales[0] == 1.0 / 127.0
    assert scales[1] == 0.0 and codes[1].tolist() == [0, 0, 0]

    rng = np.random.RandomState(3)
    m = rng.randn(200, 16)
    t = pa.table({"vec_id": list(range(200)),
                  "embedding": [r.tolist() for r in m]})
    q = m[5][None, :]
    exact = ann_cosine_topk(rd.from_arrow(t), q, k=10,
                            dtype=np.float64).to_pandas()
    approx = sq8_ann_topk(rd.from_arrow(t), q, k=10).to_pandas()
    # int8 quantization keeps high top-10 overlap on random gaussians
    overlap = len(set(exact["vec_id"]) & set(approx["vec_id"]))
    assert overlap >= 8
    assert approx.sort_values("score", ascending=False,
                              ignore_index=True).loc[0, "vec_id"] == 5


def test_dedup_lines(ray_session):
    """C4-style global line dedup: first (doc_id, line_no) occurrence of
    each distinct line survives, later copies are removed — across docs
    AND within one doc."""
    import ray.data as rd

    from search_engines_ray.functions import dedup_lines

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["common header\nunique one\ncommon header",   # self-dup
                 "common header\nunique two",                   # cross-dup
                 "unique three",
                 "common header"],                              # fully dup
    })
    out = dedup_lines(rd.from_pandas(docs)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["text"].tolist() == [
        "common header\nunique one",   # kept first, dropped own copy
        "unique two",
        "unique three",
        ""]                            # every line was seen earlier
    assert out["n_removed"].tolist() == [1, 1, 0, 1]
    # idempotent: a second pass removes nothing
    again = dedup_lines(rd.from_pandas(out[["doc_id", "text"]])).to_pandas()
    assert again["n_removed"].sum() == 0



def _exchange_ops():
    """(name, call) for every operator whose exchange follows
    partitioning.plan; ``call(ds)`` takes the wide test table below."""
    import pyarrow as pa
    import ray.data as rd

    from search_engines_ray.functions import (
        dedup, events, graph, join, sample, sketch, text,
    )

    def edges(ds):
        return ds.select_columns(["src", "dst"])

    def nodes(ds):
        return rd.from_arrow(pa.table({"node": pa.array(np.arange(40))}))

    return [
        ("exact_dedup", lambda ds: dedup.exact_dedup(ds)),
        ("dedup_lines", lambda ds: dedup.dedup_lines(ds)),
        ("dup_span_stats", lambda ds: dedup.dup_span_stats(ds, id_col="n")),
        ("remove_dup_spans",
         lambda ds: dedup.remove_dup_spans(ds, id_col="n")),
        ("minhash_lsh_dedup", lambda ds: dedup.minhash_lsh_dedup(
            ds, id_col="n", jaccard_threshold=0.5)),
        ("minhash_candidate_pairs",
         lambda ds: dedup.minhash_candidate_pairs(ds, id_col="n")),
        ("simhash_dedup", lambda ds: dedup.simhash_dedup(ds, id_col="n")),
        ("simhash_pairs", lambda ds: dedup.simhash_pairs(ds, id_col="n")),
        ("ngram_jaccard_pairs", lambda ds: dedup.ngram_jaccard_pairs(
            ds, id_col="n", threshold=0.5)),
        ("hyperloglog_distinct",
         lambda ds: sketch.hyperloglog_distinct(ds, "doc_id", "lang")),
        ("value_quantiles", lambda ds: sketch.value_quantiles(ds, "val",
                                                              "lang")),
        ("value_histogram", lambda ds: sketch.value_histogram(ds, "val",
                                                              "lang")),
        ("value_stats", lambda ds: sketch.value_stats(ds, "val", "lang")),
        ("percentile_ranks", lambda ds: sketch.percentile_ranks(ds, "val",
                                                                "lang")),
        ("tumbling_window_aggregate",
         lambda ds: events.tumbling_window_aggregate(
             ds, key_col="etype", value_col="val")),
        ("sliding_window_aggregate",
         lambda ds: events.sliding_window_aggregate(
             ds, key_col="etype", value_col="val")),
        ("sessionize", lambda ds: events.sessionize(
            ds, gap_s=600, user_col="user", value_col="val")),
        ("asof_join", lambda ds: events.asof_join(
            ds, ds, "user", "user", "ts", "ts", "n", "g")),
        ("event_transitions", lambda ds: events.event_transitions(
            ds, user_col="user", type_col="etype", id_col="n")),
        ("topk_per_group",
         lambda ds: sample.topk_per_group(ds, "g", "val", "n")),
        ("connected_components",
         lambda ds: graph.connected_components(edges(ds))),
        ("pagerank", lambda ds: graph.pagerank(edges(ds), nodes(ds),
                                               iters=1)),
        ("hits", lambda ds: graph.hits(edges(ds), nodes(ds), iters=1)),
        ("anchor_text", lambda ds: graph.anchor_text(
            ds, anchor_col="etype", order_cols=("src", "n"))),
        ("shuffle_hash_join", lambda ds: join.shuffle_hash_join(
            ds.select_columns(["n", "text"]),
            ds.select_columns(["n", "val"]), "n", how="left")),
        ("bloom_semijoin", lambda ds: join.bloom_semijoin(
            ds.select_columns(["n", "g"]),
            ds.filter(lambda r: r["g"] == 1).select_columns(["n"]), "n")),
        ("top_bigrams", lambda ds: text.top_bigrams(ds, k=20)),
        ("distinctive_terms",
         lambda ds: text.distinctive_terms(ds, id_col="n")),
        ("unigram_lm_surprisal",
         lambda ds: text.unigram_lm_surprisal(ds, id_col="n")),
        ("prefix_suggest", lambda ds: text.prefix_suggest(ds, "w1")),
        ("spell_suggest", lambda ds: text.spell_suggest(
            ds, ["lnie", "shered", "zzzzzzzz"])),
        ("more_like_this",
         lambda ds: text.more_like_this(ds, 20, id_col="n")),
        ("pmi_collocations",
         lambda ds: text.pmi_collocations(ds, min_count=2)),
        ("naive_bayes_train",
         lambda ds: text.naive_bayes_train(ds, label_col="lang")),
        ("bigram_lm_perplexity",
         lambda ds: text.bigram_lm_perplexity(ds, id_col="n")),
        ("phrase_did_you_mean",
         lambda ds: text.phrase_did_you_mean(ds, "shered lnie")),
        ("group_significant_terms", lambda ds: text.group_significant_terms(
            ds, group_col="lang", min_fg_df=2)),
        ("vocab_stats", lambda ds: text.vocab_stats(ds)),
    ]


def test_dedup_exchanges_invariant_to_parts_and_blocks(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """Every operator whose exchange follows partitioning.plan returns
    the same rows whatever the part count (the plan's, 1 or 3) and
    however the input arrives: 1 or 64 blocks, or without Parquet
    footers (the plan's fixed default). A null text hashes as b""."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from search_engines_ray.functions import (
        dedup, events, graph, join, partitioning, sample, sketch, text,
    )

    rng = np.random.default_rng(5)
    pool = ["shared header line of the site with enough tokens here",
            "shared footer line of the site with enough tokens here"] + \
        [f"line {i} " + " ".join(f"w{x}" for x in rng.integers(0, 50, 9))
         for i in range(60)]
    texts = ["\n".join(rng.choice(pool, rng.integers(1, 6)))
             for _ in range(120)]
    texts[7] = texts[3]                  # verbatim copy
    texts[11] = None                     # hashes as b""
    texts[12] = ""
    i = np.arange(120, dtype=np.int64)
    t = pa.table({
        "doc_id": pa.array([f"u{k:04d}" for k in range(120)]),
        "n": pa.array(i * 3 - 40),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(np.array(["en", "de", "fr"])[i % 3]),
        "g": pa.array(i % 5),
        "val": pa.array(np.round(rng.integers(-500, 5000, 120) / 100, 2)),
        "ts": pa.array((1_700_000_000 + rng.integers(0, 6 * 3600, 120))
                       .astype("datetime64[s]")),
        "user": pa.array(i % 9),
        "etype": pa.array(np.array(["view", "click", "buy"])[i % 7 % 3]),
        "src": pa.array(i % 40),
        "dst": pa.array((i * 7 + 3) % 40),
    })
    f = tmp_path / "docs.parquet"
    pq.write_table(t, f, row_group_size=8)
    assert rd.read_parquet(str(f), override_num_blocks=64) \
        .materialize().num_blocks() > 8

    def variants():
        for parts in (None, 1, 3):
            yield rd.read_parquet(str(f)), parts
        for blocks in (1, 64):
            yield rd.read_parquet(str(f), override_num_blocks=blocks), None
        yield rd.from_arrow(t), None     # no footers: the default plan

    def canon(out):
        if isinstance(out, dict):        # naive_bayes_train's model
            return repr(sorted((k, sorted(v.items()) if isinstance(v, dict)
                                else v) for k, v in out.items()))
        df = out.to_pandas()
        return df.sort_values(list(df.columns), ignore_index=True)

    plan = partitioning.plan
    for name, call in _exchange_ops():
        outs = []
        for ds, parts in variants():
            # an explicit num_parts wins over the plan, as a caller's would
            with monkeypatch.context() as m:
                for mod in (dedup, events, graph, join, sample, sketch,
                            text):
                    m.setattr(mod, "plan", lambda n, r, num_parts=None,
                              p=parts: plan(n, r, num_parts or p))
                outs.append(canon(call(ds)))
        if isinstance(outs[0], str):
            assert len(set(outs)) == 1, name
            continue
        assert len(outs[0]) > 0, name
        for o in outs[1:]:
            pd.testing.assert_frame_equal(outs[0], o, obj=name)
    exact = canon(dedup.exact_dedup(rd.read_parquet(str(f))))
    assert exact["n_dups"].sum() == 120 and exact["n_dups"].max() >= 2


def test_best_passage(ray_session):
    """Window covering the most distinct query terms wins; ties break to
    the smallest start; starts align to hit positions (1-based)."""
    import ray.data as rd

    from search_engines_ray.functions.text import best_passage

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            # 'a ... b c' cluster at the end beats the lone 'a' up front
            "a x x x x x x x x x x a b c",
            # two equal 1-term windows -> earliest start wins
            "x a x x x x x x x x x a x",
            "no query terms here at all",
        ],
    })
    out = best_passage(rd.from_pandas(docs), ["a", "b", "c"], window=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]          # doc 3: no hits, no row
    assert out.loc[0, "n_match"] == 3
    assert out.loc[0, "start"] == 12                 # the 2nd 'a', 1-based
    assert out.loc[0, "snippet"] == "a b c"          # window clipped at end
    assert out.loc[1, "n_match"] == 1
    assert out.loc[1, "start"] == 2                  # earliest hit
    assert out.loc[1, "snippet"] == "a x x x"


def test_select_canonical(ray_session):
    """Each cluster keeps its best-scoring member; score ties break to
    the smallest id."""
    import ray.data as rd

    from search_engines_ray.functions.dedup import select_canonical

    clusters = pd.DataFrame({
        "doc_id": [1, 2, 3, 10, 11, 12],
        "canonical_id": [1, 1, 1, 10, 10, 10],
    })
    scores = pd.DataFrame({
        "doc_id": [1, 2, 3, 10, 11, 12, 99],       # 99: not clustered
        "score": [5, 9, 9, 4, 4, 4, 100],
    })
    out = select_canonical(rd.from_pandas(clusters),
                           rd.from_pandas(scores)) \
        .to_pandas().sort_values("canonical_id").reset_index(drop=True)
    assert out["canonical_id"].tolist() == [1, 10]
    assert out["keep_id"].tolist() == [2, 10]       # 2 beats 3 on id tie
    assert out["keep_score"].tolist() == [9, 4]


def test_percolate(ray_session):
    """Counting-algorithm percolator: conjunctive stored queries match
    iff every analyzed term is present; empty/analyzed-away queries
    match nothing; duplicate terms in a query count once."""
    import ray.data as rd
    from search_engines_ray.functions.percolate import percolate
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["fast sort merge", "fast fast fast", "sort", ""]}))
    out = percolate(ds, [("a", "fast sort"), ("b", "fast"),
                         ("c", "fast fast"), ("d", ""),
                         ("e", "zebra sort")]).to_pandas()
    got = sorted(map(tuple, out[["qid", "doc_id"]].values.tolist()))
    assert got == [("a", 1), ("b", 1), ("b", 2), ("c", 1), ("c", 2)]


def test_bpe_train_matches_stream_reference(ray_session):
    """Histogram-weighted BPE == BPE over the raw token stream (the
    textbook Sennrich formulation) — validates that the one-pass word
    histogram loses nothing. Independent naive reference counts pairs
    per occurrence, not per word type."""
    from collections import Counter

    import ray.data as rd
    from search_engines_ray.analysis.tokenizer import simple_tokenize
    from search_engines_ray.functions.bpe import END, bpe_train

    texts = ["the quick brown fox jumps over the lazy dog",
             "the lazy dog sleeps all day the dog dreams",
             "quick quick brown foxes jump, lazily dogged!",
             "low lower lowest newer newest wide wider widest",
             ""] * 3
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)])

    def naive(num):
        corpus = [list(w) + [END] for t in texts for w in simple_tokenize(t)]
        merges = []
        for _ in range(num):
            pairs = Counter()
            for syms in corpus:
                for i in range(len(syms) - 1):
                    pairs[(syms[i], syms[i + 1])] += 1
            if not pairs:
                break
            (a, b), c = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
            merges.append((a, b, c))
            for syms in corpus:
                i = 0
                while i < len(syms) - 1:
                    if syms[i] == a and syms[i + 1] == b:
                        syms[i:i + 2] = [a + b]
                    else:
                        i += 1
        return merges

    got = bpe_train(ds, num_merges=25)
    want = naive(25)
    assert list(zip(got["left"].to_pylist(), got["right"].to_pylist(),
                    got["freq"].to_pylist())) == want


def test_weighted_sample(ray_session):
    """A-Res keys: deterministic, weight-monotone inclusion (doubling
    every weight changes nothing — keys scale uniformly), and an
    all-rows k returns everything in key order."""
    import numpy as np
    import ray.data as rd
    from search_engines_ray.functions.sample import weighted_sample
    rows = [{"doc_id": i, "w": (i % 7) + 1} for i in range(200)]
    ds = rd.from_items(rows)
    a = weighted_sample(ds, "w", k=20).to_pandas()
    b = weighted_sample(rd.from_items(rows), "w", k=20).to_pandas()
    assert a.equals(b)
    assert a["sample_rank"].tolist() == list(range(20))
    # scale-invariance: key = ln(u)/w, so w -> 2w permutes nothing
    rows2 = [{"doc_id": r["doc_id"], "w": r["w"] * 2} for r in rows]
    c = weighted_sample(rd.from_items(rows2), "w", k=20).to_pandas()
    assert c["doc_id"].tolist() == a["doc_id"].tolist()
    # k >= n: every row appears exactly once
    full = weighted_sample(rd.from_items(rows), "w", k=500).to_pandas()
    assert sorted(full["doc_id"]) == list(range(200))
    # heavier rows are sampled more often (statistical sanity: the
    # mean weight of the top-20 beats the corpus mean)
    wmap = {r["doc_id"]: r["w"] for r in rows}
    assert np.mean([wmap[d] for d in a["doc_id"]]) > np.mean(list(wmap.values()))


def test_naive_bayes(ray_session):
    """NB train/predict: separable synthetic labels classify perfectly;
    unseen tokens fall back to the smoothed floor; empty docs omitted;
    integer-grid log-probs make repeat runs identical."""
    import ray.data as rd
    from search_engines_ray.functions.text import (
        naive_bayes_predict, naive_bayes_train)
    train = [{"doc_id": i, "text": "le chat est la", "lang": "fr"}
             for i in range(10)] + \
            [{"doc_id": 10 + i, "text": "the cat is here", "lang": "en"}
             for i in range(10)]
    m = naive_bayes_train(rd.from_items(train))
    assert m["labels"] == ["en", "fr"]
    test = [{"doc_id": 0, "text": "the cat"},
            {"doc_id": 1, "text": "le chat"},
            {"doc_id": 2, "text": "zzz unseen tokens"},
            {"doc_id": 3, "text": ""}]
    out = naive_bayes_predict(rd.from_items(test), m).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert out["doc_id"].tolist() == [0, 1, 2]   # empty doc omitted
    assert out["pred"].tolist()[:2] == ["en", "fr"]
    # all-unseen doc: same fallback in both classes -> prior+tie rule
    # decides deterministically (both priors equal -> label asc = 'en')
    assert out["pred"].tolist()[2] == "en"
    m2 = naive_bayes_train(rd.from_items(train))
    assert m2 == m


def test_paired_ttest():
    """Hand-checked t statistic; identical runs give t=0; short input
    rejected."""
    import numpy as np
    import pytest
    from search_engines_ray.query.metrics import paired_ttest
    a, b = [0.5, 0.7, 0.9], [0.4, 0.5, 0.6]
    r = paired_ttest(a, b)
    d = np.array(a) - np.array(b)
    want = d.mean() / (d.std(ddof=1) / np.sqrt(3))
    assert r["t_stat"] == pytest.approx(want)
    assert r["n"] == 3 and r["df"] == 2
    same = paired_ttest([0.3, 0.4], [0.3, 0.4])
    assert same["t_stat"] == 0.0 and same["mean_diff"] == 0.0
    with pytest.raises(ValueError):
        paired_ttest([0.1], [0.2])


def test_combsum_fusion_kernel():
    """CombSUM/CombMNZ hand-check: min-max per system, sum; MNZ
    multiplies by systems-retrieving; degenerate all-equal system
    normalizes to 1; ties break by id asc."""
    import numpy as np
    from search_engines_ray.query.fusion import combsum_fuse
    sysA = (np.array([1, 2, 3]), np.array([10.0, 5.0, 0.0]))   # → 1, .5, 0
    sysB = (np.array([2, 4]), np.array([3.0, 1.0]))            # → 1, 0
    f = combsum_fuse([sysA, sysB], k=10)
    d = dict(zip(f["doc_id"].to_pylist(), f["score"].to_pylist()))
    assert d == {1: 1.0, 2: 1.5, 3: 0.0, 4: 0.0}
    # MNZ: doc 2 hit by both systems → ×2
    m = combsum_fuse([sysA, sysB], k=10, mnz=True)
    dm = dict(zip(m["doc_id"].to_pylist(), m["score"].to_pylist()))
    assert dm == {1: 1.0, 2: 3.0, 3: 0.0, 4: 0.0}
    # tie (3 vs 4 at 0.0) breaks by id asc in the emitted order
    order = f["doc_id"].to_pylist()
    assert order.index(3) < order.index(4)
    # degenerate constant-score system → every doc contributes 1.0
    g = combsum_fuse([(np.array([7, 8]), np.array([2.0, 2.0]))], k=10)
    assert g["score"].to_pylist() == [1.0, 1.0]
    # k cut respected
    assert combsum_fuse([sysA, sysB], k=2).num_rows == 2


def test_phrase_did_you_mean(ray_session):
    """Bigram plausibility overrides per-term best: 'grn apple' must
    pick 'green apple' (frequent bigram) over a higher-df unigram
    correction; clean terms self-correct at distance 0; a 1-term query
    is rejected."""
    import ray.data as rd
    from search_engines_ray.functions.text import phrase_did_you_mean
    docs = (["green apple pie"] * 5 + ["grain silo store"] * 9
            + ["grain apple never"])  # 'grain' outranks 'green' by df
    ds = rd.from_items([{"text": t} for t in docs]).repartition(4)
    out = phrase_did_you_mean(ds, "grn apple").to_pandas()
    assert out.loc[0, "suggestion"] == "green apple"
    assert out.loc[0, "bigram_n"] == 5
    # exact phrase passes through at distance 0
    ok = phrase_did_you_mean(ds, "grain silo").to_pandas()
    assert ok.loc[0, "suggestion"] == "grain silo"
    assert ok.loc[0, "total_distance"] == 0
    import pytest
    with pytest.raises(ValueError, match="2-term"):
        phrase_did_you_mean(ds, "apple")


def test_mmr_demotes_near_duplicates(ray_session):
    """MMR picks the most relevant vector first, then prefers a diverse
    vector over a near-duplicate of the first even when the duplicate
    has higher relevance; lambda=1 reduces to plain relevance order."""
    import ray.data as rd
    import numpy as np
    from search_engines_ray.functions.similarity import mmr_rerank
    # query NOT collinear with any vector (else rel == sim-to-first and
    # every MMR score collapses to (2λ−1)·rel, a degenerate tie)
    q = np.array([1.0, 0.3])
    vecs = [
        {"vec_id": 0, "embedding": [1.0, 0.25]},     # closest to q
        {"vec_id": 1, "embedding": [1.0, 0.2]},      # near-dup of 0
        {"vec_id": 2, "embedding": [0.3, 1.0]},      # diverse, lower rel
    ]
    ds = rd.from_items(vecs)
    out = mmr_rerank(ds, q, k=3, lambda_=0.5, cand_k=3).to_pandas()
    assert list(out["vec_id"]) == [0, 2, 1]
    assert list(out["rank"]) == [1, 2, 3]
    plain = mmr_rerank(ds, q, k=3, lambda_=1.0, cand_k=3).to_pandas()
    assert list(plain["vec_id"]) == [0, 1, 2]


def test_group_significant_terms(ray_session):
    """A term concentrated in one group dominates that group's JLH
    ranking; a uniformly-distributed term is never positively
    significant; partitioning invariance holds."""
    import ray.data as rd
    import pandas as pd
    from search_engines_ray.functions.text import group_significant_terms
    docs = ([{"lang": "aa", "text": "common special"}] * 10
            + [{"lang": "aa", "text": "common"}] * 2
            + [{"lang": "bb", "text": "common plain"}] * 12)
    ds = rd.from_items(docs)
    out = group_significant_terms(ds, group_col="lang", k=3,
                                  min_fg_df=3).to_pandas()
    aa = out[out["lang"] == "aa"]
    assert list(aa["term"])[0] == "special"       # concentrated term wins
    assert "common" not in set(out["term"])       # uniform term filtered
    bb = out[out["lang"] == "bb"]
    assert list(bb["term"]) == ["plain"]
    out8 = group_significant_terms(ds.repartition(8), group_col="lang",
                                   k=3, min_fg_df=3).to_pandas()
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  out8.reset_index(drop=True))


def test_minhash_attach_routes_agree(ray_session):
    """r5: the two signature-attach routes — broadcast requests (the
    realistic-corpus fast path) and the id-keyed co-group (the
    dup-heavy fallback) — must produce identical canonical maps; the
    auto route guards on request bytes and an invalid route raises."""
    import ray.data as rd

    import pytest as _pytest

    from search_engines_ray.functions import minhash_lsh_dedup
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    rows = [{"doc_id": i, "text": f"unique doc {i} filler content "
                                  f"number w{i:05d} extra pad tokens"}
            for i in range(30)]
    rows += [
        {"doc_id": 100, "text": base},
        {"doc_id": 101, "text": base},                          # exact
        {"doc_id": 102, "text": base.replace("kappa", "lambda")},  # near
    ]
    ds = rd.from_items(rows)

    def canon(route):
        out = minhash_lsh_dedup(ds, jaccard_threshold=0.5,
                                attach_route=route).to_pandas()
        return dict(zip(out["doc_id"], out["canonical_id"]))

    a = canon("broadcast")
    b = canon("cogroup")
    c = canon("auto")
    assert a == b == c
    assert a.get(101) == 100 and a.get(102) == 100
    with _pytest.raises(ValueError):
        minhash_lsh_dedup(ds, attach_route="nope")


def test_minhash_dupfree_and_string_id_corpora(ray_session):
    """Review r5 regressions: (a) a duplicate-free corpus (every LSH
    bucket a singleton) must return an empty canonical map, not crash
    in the empty-request gather; (b) string id columns must work on
    BOTH attach routes (the cogroup hash key must be exactly 16
    bytes)."""
    import ray.data as rd

    from search_engines_ray.functions import minhash_lsh_dedup
    uniq = rd.from_items(
        [{"doc_id": i, "text": f"totally unique document {i} about "
                               f"topic w{i:05d} with filler tokens"}
         for i in range(25)])
    out = minhash_lsh_dedup(uniq, jaccard_threshold=0.5).to_pandas()
    assert len(out) == 0

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    rows = [{"doc_id": f"http://x.example.com/{i}",
             "text": f"unique doc {i} filler w{i:05d} pad tokens"}
            for i in range(10)]
    rows += [{"doc_id": "http://x.example.com/a", "text": base},
             {"doc_id": "http://x.example.com/b", "text": base},
             {"doc_id": "http://x.example.com/c",
              "text": base.replace("kappa", "lambda")}]
    ds = rd.from_items(rows)
    for route in ("broadcast", "cogroup"):
        out = minhash_lsh_dedup(ds, jaccard_threshold=0.5,
                                attach_route=route).to_pandas()
        m = dict(zip(out["doc_id"], out["canonical_id"]))
        assert m.get("http://x.example.com/b") == "http://x.example.com/a", route
        assert m.get("http://x.example.com/c") == "http://x.example.com/a", route


def test_samplers_fast_path_string_ids(ray_session):
    """Review r5 regression: the fast (default) hash must accept string
    id columns — URL ids are the norm for dataset_split and
    shuffle_to_shards."""
    import ray.data as rd

    from search_engines_ray.functions.sample import (
        dataset_split, hash_sample, shuffle_to_shards,
    )
    ds = rd.from_items([{"doc_id": f"http://e.com/{i}"}
                        for i in range(300)])
    sp = dataset_split(ds).to_pandas()
    assert len(sp) == 300 and set(sp["split"]) <= {"train", "val", "test"}
    sh = shuffle_to_shards(ds, num_shards=4).to_pandas()
    assert len(sh) == 300 and sh["shard"].between(0, 3).all()
    hs = hash_sample(rd.from_items([{"doc_id": i} for i in range(300)]),
                     k=10).to_pandas()
    assert len(hs) == 10


def test_lsh_broadcast_leaves_no_worker_cache_entry(ray_session):
    """ADVICE item 1: the broadcast attach route must not pin a run's
    request arrays in the worker process cache. The key was unique per
    run, so every run added an entry of up to 256 MiB per worker."""
    import os
    import time

    import ray
    import ray.data as rd

    from search_engines_ray.functions import minhash_lsh_dedup

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    rows = [{"doc_id": i, "text": f"unique doc {i} filler w{i:05d} pad"}
            for i in range(20)]
    rows += [{"doc_id": 100, "text": base},
             {"doc_id": 101, "text": base.replace("kappa", "lambda")}]
    for _ in range(2):
        out = minhash_lsh_dedup(rd.from_items(rows), jaccard_threshold=0.5,
                                attach_route="broadcast").to_pandas()
        assert dict(zip(out["doc_id"], out["canonical_id"]))[101] == 100

    @ray.remote
    def probe():
        from search_engines_ray import util
        time.sleep(0.05)
        return os.getpid(), [k for k in util._PROC_CACHE
                             if isinstance(k, tuple) and k
                             and k[0] == "lsh_req_bcast"]

    seen = {}
    for _ in range(4):
        seen.update(ray.get([probe.remote() for _ in range(16)]))
    assert not any(seen.values()), seen


@pytest.mark.parametrize("sampler", ["hash", "stratified", "weighted"])
def test_samplers_string_ids(ray_session, sampler):
    """ADVICE item 4: the three samplers accept string ids (they coerced
    ids to int64 and crashed) with the same contract as integer ids —
    keyed-hash order, ties by id, independent of partitioning — and
    name the supported id types for any other id column."""
    import pyarrow as pa
    import ray.data as rd

    from search_engines_ray.functions.sample import (
        _id_hash64, hash_sample, stratified_sample, weighted_sample,
    )
    ids = [f"http://e.com/{i}" for i in range(200)]
    t = pa.table({"doc_id": ids, "s": [i % 3 for i in range(200)],
                  "w": [1.0 + i % 5 for i in range(200)]})
    h = _id_hash64(ids)
    if sampler == "hash":
        run = lambda ds: hash_sample(ds, k=10)
        want = [ids[i] for i in np.lexsort((np.asarray(ids, object), h))[:10]]
    elif sampler == "stratified":
        run = lambda ds: stratified_sample(ds, "s", k=4)
        want = [ids[i] for s in range(3)
                for i in sorted((i for i in range(200) if i % 3 == s),
                                key=lambda i: (h[i], ids[i]))[:4]]
    else:
        run = lambda ds: weighted_sample(ds, "w", k=10)
        key = (np.log((h.astype(np.float64) + 1.0) / 18446744073709551616.0)
               / t["w"].to_numpy())
        want = [ids[i] for i in
                np.lexsort((np.asarray(ids, object), -key))[:10]]
    one = run(rd.from_arrow(t)).to_pandas()
    many = run(rd.from_arrow(t).repartition(5)).to_pandas()
    if sampler == "stratified":
        one = one.sort_values(["s", "sample_rank"], ignore_index=True)
        many = many.sort_values(["s", "sample_rank"], ignore_index=True)
    assert list(one["doc_id"]) == want
    pd.testing.assert_frame_equal(one, many)
    floats = rd.from_arrow(t.set_column(0, "doc_id",
                                        pa.array(np.arange(200) + 0.5)))
    with pytest.raises(Exception, match="integer or string"):
        run(floats).to_pandas()


def test_exchange_decision_lives_in_partitioning():
    """Only functions/partitioning.py routes rows to parts and runs the
    part exchange: no other functions/ module hashes with crc32 or
    groups by the part column itself."""
    import pathlib

    import search_engines_ray.functions as fns
    root = pathlib.Path(fns.__file__).parent
    bad = [(p.name, pat) for p in sorted(root.glob("*.py"))
           if p.name != "partitioning.py"
           for pat in ("crc32(", 'groupby("part")', "groupby('part')")
           if pat in p.read_text()]
    assert not bad, bad


def test_broadcast_cache_keeps_latest_per_operator(ray_session):
    """An operator that broadcasts a fresh ray.put per call keeps only
    its latest broadcast in a worker's process cache: repeated calls
    must not pin every earlier broadcast for the worker's lifetime.
    The scoring UDFs run in this process so its cache can be read."""
    import pyarrow as pa
    import ray.data as rd

    from search_engines_ray import util
    from search_engines_ray.functions.text import (
        naive_bayes_predict, unigram_lm_surprisal,
    )

    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": ["a b c", "b c d", "c d e"]})
    model = {"labels": ["x"], "prior": {"x": 0}, "lp": {}, "unseen": {"x": -1}}
    for _ in range(3):
        for out in (unigram_lm_surprisal(rd.from_arrow(t)),
                    naive_bayes_predict(rd.from_arrow(t), model)):
            out._logical_plan.dag._fn(t)
    for ns in ("unigram_lm", "nb_model"):
        assert not [k for k in util._PROC_CACHE if k[0] == ns], ns
        assert len(util._BOUNDED[ns]) == 1, ns
