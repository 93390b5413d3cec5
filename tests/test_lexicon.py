"""The per-build term lexicon (index/reader.py ``runs`` / ``read_runs``)
and the distributed paths that read through it: rank identity across
index layouts (several files per bucket, several row groups per file),
rebuilds at the same path, the per-(query, pid) tie cut of the salt
kernels, and ``cmd_verify``'s lexicon-vs-blob audit."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engines_ray.query import distributed as D
from search_engines_ray.query.models import BM25Model, IndriModel

BOW = [("1", "fast sort merge"), ("2", "hash join"), ("3", "dup line"),
       ("4", "nosuchterm window scan"), ("5", "dup dup key")]
STRUCT = [("1", "#sum(#near/1(dup line) sort)"),
          ("2", "#sum(#window/8(hash join) #syn(fast slow))"),
          ("3", "merge key")]
INDRI_STRUCT = [("1", "#wand( 0.7 #and( dup line ) 0.3 #and( #near/1( dup "
                      "line ) ) )"),
                ("2", "#and(#syn(hash join) scan)")]


def _split_layout(src: str, dst: str) -> None:
    """Copy an index with each bucket's postings rows spread, in the same
    order, over two files of 3-row row groups."""
    shutil.copytree(src, dst)
    base = os.path.join(dst, "postings")
    for b in sorted(os.listdir(base)):
        d = os.path.join(base, b)
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        t = pa.concat_tables([pq.read_table(os.path.join(d, f))
                              for f in files])
        for f in files:
            os.remove(os.path.join(d, f))
        half = t.num_rows // 2
        for i, part in enumerate((t.slice(0, half), t.slice(half))):
            pq.write_table(part, os.path.join(d, f"part-{i}.parquet"),
                           row_group_size=3)


@pytest.fixture(scope="module")
def split_index(docs_index, tmp_path_factory):
    from search_engines_ray.index import IndexReader
    dst = str(tmp_path_factory.mktemp("split") / "docs")
    _split_layout(docs_index.index_dir, dst)
    r = IndexReader(dst)
    assert any(len(r._bucket(b).paths) > 1 for b in range(r.num_buckets))
    assert any(m.num_row_groups > 1 for b in range(r.num_buckets)
               for m in r._bucket(b).metas)
    return r


def _searches(r):
    """Every distributed entry point, the driver engine, MaxScore and a
    federated search over ``r`` → {name: DataFrame}."""
    from search_engines_ray.index import IndexReader
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.federated import FederatedEngine
    from search_engines_ray.query.maxscore import bm25_maxscore_search
    d, out = r.index_dir, {}
    out["bm25"] = D.bm25_batch_search(d, BOW, BM25Model(), k=20)
    out["msm"] = D.bm25_msm_batch_search(
        d, [(q, t, 2) for q, t in BOW], BM25Model(), k=20)
    out["bm25f"] = D.bm25f_batch_search(d, BOW, weights={"body": 1.0}, k=20)
    out["grid"] = D.bm25_grid_search(d, BOW, [(1.2, 0.75), (0.9, 0.3)], k=20)
    out["champion"] = D.bm25_champion_search(d, BOW, m=8, k=20)
    out["indri"] = D.indri_batch_search(d, BOW, IndriModel(), k=20)
    out["structured"] = D.bm25_structured_batch_search(d, STRUCT,
                                                       BM25Model(), k=20)
    out["indri_structured"] = D.indri_structured_batch_search(
        d, INDRI_STRUCT, IndriModel(), k=20)
    for name, model, qs in (("engine_bm25", BM25Model(), BOW + STRUCT),
                            ("engine_indri", IndriModel(),
                             BOW + INDRI_STRUCT)):
        eng = QueryEngine(IndexReader(d), model)
        for qid, q in qs:
            out[f"{name}_{qid}_{q}"] = eng.search(q, k=20)
    for qid, q in BOW:
        out[f"maxscore_{qid}"] = bm25_maxscore_search(IndexReader(d), q, k=20)
    fed = FederatedEngine([IndexReader(d)], BM25Model())
    for qid, q in BOW + STRUCT:
        out[f"federated_{qid}"] = fed.search(q, k=20)
    return {k: v.to_pandas() for k, v in out.items()}


def test_split_layout_is_rank_identical(docs_index, split_index):
    """Several files per bucket and several row groups per file: the
    lexicon's (file, row group, row) map reads the same runs in the same
    order, so every search path returns identical frames."""
    terms = ["fast", "sort", "merge", "dup", "line", "hash", "join"]
    for salt in (None, 0, 3):
        a = docs_index.runs(terms, ["body"], salt)
        b = split_index.runs(terms, ["body"], salt)
        assert a.term.tolist() == b.term.tolist()
        assert a.salt.tolist() == b.salt.tolist()
        for (da, ta, pa_), (db, tb, pb) in zip(
                docs_index.read_runs(a, positions=True),
                split_index.read_runs(b, positions=True)):
            assert da.tolist() == db.tolist() and ta.tolist() == tb.tolist()
            assert pa_.tolist() == pb.tolist()
    want, got = _searches(docs_index), _searches(split_index)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].equals(want[name]), name
    assert all(len(want[n]) for n in ("bm25", "msm", "bm25f", "grid",
                                      "champion", "indri", "structured",
                                      "indri_structured"))


def test_kth_score_ties_cut_per_pid(tmp_path, ray_session, monkeypatch):
    """Ties at the kth score straddle pids and salts, and docid order is
    not external-id order across pids: the per-(query, pid) cut keeps the
    global top k exact (score desc, external id asc) while shipping at
    most k candidates per (query, pid)."""
    import ray.data as rd

    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index,
    )
    from search_engines_ray.query.eval import QueryEngine
    rng = np.random.default_rng(5)
    n = 120
    # identical docs score identically; a few carry an extra "alpha".
    # alpha/beta match 80 of 120 docs, so their BM25 idf clamps to 0 and
    # every match ties; delta's 40 docs tie at one positive score
    texts = ["alpha beta" if i % 10 else "alpha alpha beta"
             for i in range(n)]
    texts[:40] = ["gamma delta"] * 40
    urls = [f"http://tie.example.com/{x:06d}"
            for x in rng.permutation(10**6)[:n]]
    idx = str(tmp_path / "ties")
    build_index(rd.from_pandas(pd.DataFrame({"url": urls, "text": texts})),
                idx, IndexBuildConfig(num_buckets=4, docid_partitions=8,
                                      merge_salts=4),
                input_token="ties", resume=False)
    r = IndexReader(idx)
    ext = r.external_ids()
    assert list(ext) != sorted(ext)             # pid order ≠ url order
    shipped = []
    run = D._run_salt_tasks

    def counting(kernel, spec, reader):
        out = run(kernel, spec, reader)
        shipped.append(out.num_rows)
        return out

    monkeypatch.setattr(D, "_run_salt_tasks", counting)
    queries = [("a", "alpha"), ("b", "beta"), ("c", "alpha beta"),
               ("d", "delta")]
    k = 3
    n_pids = len(r.pid_offsets) - 1
    for fn, model in ((D.bm25_batch_search, BM25Model()),
                      (D.indri_batch_search, IndriModel())):
        shipped.clear()
        got = fn(idx, queries, model, k=k).to_pandas()
        assert shipped[-1] <= len(queries) * n_pids * k
        eng = QueryEngine(IndexReader(idx), model)
        for qid, q in queries:
            want = eng.search(q, k=k).to_pandas()
            sub = got[got["qid"] == qid].reset_index(drop=True)
            assert list(sub["external_id"]) == list(want["external_id"]), q
            np.testing.assert_allclose(sub["score"], want["score"],
                                       rtol=1e-12)
    # every matched doc of "alpha" is one of two scores: the tie group
    # at the kth score spans pids and salts
    post = r.postings("alpha", "body")
    assert len(set(np.searchsorted(r.pid_offsets, post.docids,
                                   side="right"))) > 2


def test_rebuild_at_same_path_serves_new_lexicon(tmp_path, ray_session):
    """A lineage build names its postings files by (bucket, salt), so a
    rebuild at the same path reuses every file name. Neither the driver's
    reader nor a worker's may then answer from the old build's lexicon
    or cached runs: results match a fresh engine after each build."""
    import ray.data as rd

    from search_engines_ray.index import (
        IndexBuildConfig, IndexReader, build_index,
    )
    from search_engines_ray.query.eval import QueryEngine
    idx = str(tmp_path / "rb")
    cfg = IndexBuildConfig(num_buckets=2, docid_partitions=4, merge_salts=2,
                           lineage=True)
    builds = [["quick fox", "lazy dog", "fox dog", "quick cat", "dog"],
              ["dog dog fox", "quick", "cat fox fox", "lazy lazy fox",
               "brown dog", "fox"]]
    queries = [("1", "quick fox"), ("2", "dog"), ("3", "fox lazy cat")]
    names = []
    for i, texts in enumerate(builds):
        pages = pd.DataFrame({"url": [f"http://rb.example.com/{j}"
                                      for j in range(len(texts))],
                              "text": texts})
        build_index(rd.from_pandas(pages), idx, cfg, input_token=str(i),
                    resume=False)
        names.append(sorted(os.listdir(os.path.join(idx, "postings",
                                                    "bucket=0"))))
        fresh = IndexReader(idx)
        assert D._index_reader(idx).stats_token == fresh.stats_token
        eng = QueryEngine(fresh, BM25Model())
        for _ in range(3):
            got = D.bm25_batch_search(idx, queries, BM25Model(),
                                      k=10).to_pandas()
            for qid, q in queries:
                want = eng.search(q, k=10).to_pandas()
                sub = got[got["qid"] == qid].reset_index(drop=True)
                assert list(sub["external_id"]) == list(want["external_id"])
                np.testing.assert_allclose(sub["score"], want["score"],
                                           rtol=1e-12)
        assert D._index_reader(idx).term_stats(["fox"], "body") == {
            "fox": (fresh.postings("fox", "body").df,
                    fresh.postings("fox", "body").ctf)}
    assert names[0] == names[1]


def test_verify_names_a_corrupted_run(split_index, tmp_path, ray_session):
    """``cmd_verify`` checks every lexicon run against the blobs it points
    at: a run whose blob no longer matches its df/ctf/min_docid/max_tf —
    here inside the second row group of a multi-row-group file — is
    reported by term, salt, file, row group and row."""
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.inspect import cmd_verify
    from search_engines_ray.index.varbyte import decode_postings, vb_encode
    dst = str(tmp_path / "corrupt")
    shutil.copytree(split_index.index_dir, dst)
    r = IndexReader(dst)
    for b in range(r.num_buckets):
        lex = r._bucket(b)
        hit = np.flatnonzero((lex.runs.rg == 1) & (lex.runs.df > 1))
        if hit.size:
            break
    i = int(hit[0])
    path = lex.paths[int(lex.runs.file[i])]
    t = pq.read_table(path)
    row = 3 + int(lex.runs.row[i])              # row group 1 starts at 3
    assert t["term"][row].as_py() == lex.runs.term[i]
    tfs = t["tf_blob"].to_pylist()
    _, tf, _ = decode_postings(t["docid_blob"][row].as_py(), tfs[row], None)
    tfs[row] = vb_encode((tf + 1).astype(np.uint64))      # ctf, max_tf off
    t = t.set_column(t.schema.get_field_index("tf_blob"), "tf_blob",
                     pa.array(tfs, t.schema.field("tf_blob").type))
    pq.write_table(t, path, row_group_size=3)
    out = cmd_verify(IndexReader(dst))
    assert not out["ok"] and out["postings"]["bad_runs"] == 1
    (bad,) = out["postings"]["first_bad"]
    assert bad.startswith(f"{lex.runs.term[i]!r}/{lex.runs.field[i]} "
                          f"salt {lex.runs.salt[i]} ")
    assert f"row group 1, row {lex.runs.row[i]})" in bad
    assert cmd_verify(split_index)["ok"]


def _memory_reader(blobs: list[tuple]):
    """An ``IndexReader`` whose process cache already holds ``blobs``
    (docid, tf, pos) as the runs of bucket 0, file 0, row group 0, and
    the ``Runs`` that point at them: ``read_runs`` then touches no
    file."""
    from search_engines_ray.index.reader import IndexReader, Runs
    from search_engines_ray.util import ByteLRU
    r = IndexReader.__new__(IndexReader)
    r.stats, r.cache, r._ck = {"positions": True}, ByteLRU(1 << 30), ("mem",)
    ints = np.zeros((len(blobs), len(Runs.INT_COLS)), np.int64)
    ints[:, Runs.INT_COLS.index("row")] = np.arange(len(blobs))
    for i, v in enumerate(blobs):
        r.cache.put((r._ck, 0, 0, 0, i), v, 1)
    names = np.asarray([f"t{i}" for i in range(len(blobs))], dtype=object)
    return r, Runs(names, np.full(len(blobs), "body", dtype=object), ints)


@pytest.mark.parametrize("seed", range(40))
def test_read_runs_matches_per_run_decode(seed):
    """``read_runs`` decodes all its runs in one pass over their joined
    blobs; each run must come back as its own ``decode_postings`` call
    gives it, in values and dtypes: 1–8 runs, df 1–300, docids up to
    2^44 with gaps of one to six varbyte bytes, with and without
    positions."""
    from search_engines_ray.index.varbyte import (
        decode_postings, encode_postings,
    )
    rng = np.random.default_rng(seed)
    blobs = []
    for _ in range(rng.integers(1, 9)):
        df = int(rng.integers(1, 301))
        gaps = rng.integers(1, 1 << int(rng.integers(1, 36)), df)
        docids = np.cumsum(gaps) + int(rng.integers(0, 1 << 43))
        docids = docids[docids < 1 << 44]
        docids = docids if docids.size else np.asarray([(1 << 44) - 1])
        tfs = rng.integers(1, 200 if rng.random() < 0.2 else 5, docids.size)
        pos = np.concatenate([np.sort(rng.choice(1 << 15, t, replace=False))
                              for t in tfs])
        blobs.append(encode_postings(docids, tfs, pos))
    r, runs = _memory_reader(blobs)
    for positions in (False, True):
        got = r.read_runs(runs, positions)
        assert len(got) == len(blobs)
        for (d, tf, p), (db, tb, pb) in zip(got, blobs):
            want = decode_postings(db, tb, pb if positions else None)
            for a, b in zip((d, tf), want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            if positions:
                assert p.dtype == want[2].dtype
                assert np.array_equal(p, want[2])
            else:
                assert p is None and want[2] is None


def test_read_runs_decodes_once(docs_index, monkeypatch):
    """One ``decode_postings`` call per ``read_runs`` call, whatever the
    number of runs it returns. The counter goes into the module globals
    this reader's ``read_runs`` reads."""
    calls = []
    module = type(docs_index).read_runs.__globals__
    real = module["decode_postings"]

    def counting(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setitem(module, "decode_postings", counting)
    runs = docs_index.runs(["fast", "sort", "merge", "dup", "line"],
                           ["body"])
    assert len(runs) > 4
    for positions in (False, True):
        calls.clear()
        got = docs_index.read_runs(runs, positions)
        assert len(got) == len(runs) and len(calls) == 1
