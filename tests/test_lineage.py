"""Per-partition lineage (IndexBuildConfig.lineage=True): pid-grain
forward checkpoints — north rule "resumable from checkpoint with
per-partition lineage + metrics". The lineage path must be bit-identical
to the streaming forward path, resume from the last finished pid, and
sweep anything a crashed run left behind."""

import json
import os

import pytest


def _build(ds, idx, *, lineage, token, resume=False, P=4,
           fields=None, **kw):
    from search_engines_ray.index import IndexBuildConfig, build_index
    cfg = IndexBuildConfig(fields=fields or {"body": "text",
                                             "title": "title"},
                           num_buckets=4, docid_partitions=P,
                           merge_salts=2, lineage=lineage, **kw)
    return cfg, build_index(ds, idx, cfg, input_token=token, resume=resume)


def _forward_table(idx):
    import pyarrow.dataset as pads
    t = (pads.dataset(os.path.join(idx, "forward"), format="parquet")
         .to_table().sort_by([("pid", "ascending"),
                              ("docid_local", "ascending")]))
    return t.select(sorted(t.column_names))


def test_lineage_build_bit_identical(ray_session, tmp_path, toy_pages):
    import ray.data as rd
    ds = rd.from_pandas(toy_pages)
    a, b = str(tmp_path / "plain"), str(tmp_path / "lin")
    _build(ds, a, lineage=False, token="t")
    _build(ds, b, lineage=True, token="t")
    assert _forward_table(a).equals(_forward_table(b))
    sa = json.load(open(os.path.join(a, "stats.json")))
    sb = json.load(open(os.path.join(b, "stats.json")))
    assert sa == sb
    from search_engines_ray.index import IndexReader
    pa_, pb_ = (IndexReader(p).postings("fox", "body") for p in (a, b))
    assert pa_.docids.tolist() == pb_.docids.tolist()
    assert pa_.tfs.tolist() == pb_.tfs.tolist()


def test_lineage_partial_resume(ray_session, tmp_path):
    """Kill two partitions of a finished lineage build (what a crash
    mid-stage leaves): resume rebuilds exactly those, keeps the rest."""
    import ray.data as rd
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.build import (
        FORWARD_DIR, LINEAGE_DIR, _fwd_file, forward_lineage,
    )
    from search_engines_ray.pipelines.corpus import pages_from_documents

    ds = pages_from_documents("/root/testdata/sf0.001")
    idx = str(tmp_path / "lidx")
    _, m0 = _build(ds, idx, lineage=True, token="sf", P=8,
                   fields={"body": "text"})
    assert m0["forward_pids_built"] == 8 and m0["forward_pids_resumed"] == 0
    lin0 = forward_lineage(idx)
    assert set(lin0) == set(range(8))
    assert sum(e["n_docs"] for e in lin0.values()) == 500
    assert all(e["sum_len_body"] > 0 for e in lin0.values())

    fwd = os.path.join(idx, FORWARD_DIR)
    for pid in (2, 5):
        os.remove(os.path.join(fwd, _fwd_file(pid)))
        os.remove(os.path.join(fwd, LINEAGE_DIR, f"pid-{pid:06d}.json"))
    os.remove(os.path.join(idx, FORWARD_DIR + "_SUCCESS.json"))

    _, m1 = _build(ds, idx, lineage=True, token="sf", P=8,
                   fields={"body": "text"}, resume=True)
    assert m1["forward_pids_built"] == 2
    assert m1["forward_pids_resumed"] == 6
    lin1 = forward_lineage(idx)
    for pid in set(range(8)) - {2, 5}:        # untouched checkpoints kept
        assert lin1[pid]["completed_at"] == lin0[pid]["completed_at"]
    for pid in (2, 5):                        # rebuilt
        assert lin1[pid]["completed_at"] > lin0[pid]["completed_at"]
        assert lin1[pid]["n_docs"] == lin0[pid]["n_docs"]
    assert IndexReader(idx).n_docs == 500

    # ...and the resumed index equals a fresh one
    fresh = str(tmp_path / "fresh")
    _build(ds, fresh, lineage=True, token="sf", P=8,
           fields={"body": "text"})
    assert _forward_table(idx).equals(_forward_table(fresh))


def test_lineage_sweeps_crash_debris(ray_session, tmp_path, toy_pages):
    """Data files without a valid sidecar (crashed atomic writes, stale
    foreign output, tmp leftovers) are removed before the rebuild — a
    resumed run can never double-count a partition."""
    import pyarrow.dataset as pads
    import ray.data as rd
    ds = rd.from_pandas(toy_pages)
    idx = str(tmp_path / "sweep")
    _build(ds, idx, lineage=True, token="t")
    n_docs = _forward_table(idx).num_rows

    fwd = os.path.join(idx, "forward")
    # orphan parquet (no sidecar) + tmp leftover + sidecar without data
    import shutil
    shutil.copy(os.path.join(fwd, "part-pid-000000.parquet"),
                os.path.join(fwd, "part-pid-000099.parquet"))
    open(os.path.join(fwd, "part-pid-000001.parquet.tmp"), "w").close()
    json.dump({"pid": 98, "fingerprint": "bogus"},
              open(os.path.join(fwd, "_lineage", "pid-000098.json"), "w"))
    os.remove(os.path.join(idx, "forward_SUCCESS.json"))

    _, m = _build(ds, idx, lineage=True, token="t", resume=True)
    assert m["forward_pids_built"] == 0      # all real pids checkpointed
    names = set(os.listdir(fwd))
    assert "part-pid-000099.parquet" not in names
    assert "part-pid-000001.parquet.tmp" not in names
    assert "pid-000098.json" not in os.listdir(os.path.join(fwd, "_lineage"))
    assert _forward_table(idx).num_rows == n_docs


def test_postings_lineage_partial_resume(ray_session, tmp_path):
    """Kill two (bucket, salt) cells of a finished lineage build: the
    postings merge resumes exactly those and keeps the rest untouched."""
    import ray.data as rd
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.build import (
        POSTINGS_DIR, _salt_file, postings_lineage,
    )
    from search_engines_ray.pipelines.corpus import pages_from_documents

    ds = pages_from_documents("/root/testdata/sf0.001")
    idx = str(tmp_path / "pidx")
    _, m0 = _build(ds, idx, lineage=True, token="sf", P=8,
                   fields={"body": "text"})
    lin0 = postings_lineage(idx)
    assert m0["postings_cells_built"] == len(lin0) > 0
    assert m0["postings_cells_resumed"] == 0

    victims = sorted(lin0)[:2]
    pdir = os.path.join(idx, POSTINGS_DIR)
    for b, s in victims:
        os.remove(os.path.join(pdir, f"bucket={b}", _salt_file(s)))
        os.remove(os.path.join(pdir, "_lineage", f"b{b:05d}-s{s:05d}.json"))
    os.remove(os.path.join(idx, POSTINGS_DIR + "_SUCCESS.json"))

    _, m1 = _build(ds, idx, lineage=True, token="sf", P=8,
                   fields={"body": "text"}, resume=True)
    assert m1["postings_cells_built"] == 2
    assert m1["postings_cells_resumed"] == len(lin0) - 2
    assert m1["forward_s"] < 0.5              # forward stage untouched
    lin1 = postings_lineage(idx)
    assert set(lin1) == set(lin0)
    for key in set(lin0) - set(victims):
        assert lin1[key]["completed_at"] == lin0[key]["completed_at"]
    for key in victims:
        assert lin1[key]["completed_at"] > lin0[key]["completed_at"]
        assert lin1[key]["n_terms"] == lin0[key]["n_terms"]

    # resumed postings equal a fresh non-lineage build's, term for term
    fresh = str(tmp_path / "pfresh")
    _build(ds, fresh, lineage=False, token="sf", P=8,
           fields={"body": "text"})
    ra, rb = IndexReader(idx), IndexReader(fresh)
    for term in ("fast", "the", "data", "zebra"):
        a, b = ra.postings(term, "body"), rb.postings(term, "body")
        if a is None or b is None:
            assert a is None and b is None, term
            continue
        assert a.docids.tolist() == b.docids.tolist(), term
        assert a.tfs.tolist() == b.tfs.tolist(), term


def test_lineage_invalidates_on_config_change(ray_session, tmp_path,
                                              toy_pages):
    import ray.data as rd
    ds = rd.from_pandas(toy_pages)
    idx = str(tmp_path / "inval")
    _build(ds, idx, lineage=True, token="a")
    os.remove(os.path.join(idx, "forward_SUCCESS.json"))
    _, m = _build(ds, idx, lineage=True, token="b", resume=True)
    assert m["forward_pids_resumed"] == 0    # fingerprint changed → full


def test_lineage_inspect_cmd(ray_session, tmp_path, toy_pages):
    import ray.data as rd
    from search_engines_ray.index import IndexReader
    from search_engines_ray.index.inspect import cmd_lineage
    ds = rd.from_pandas(toy_pages)
    idx = str(tmp_path / "icmd")
    _build(ds, idx, lineage=True, token="t")
    out = cmd_lineage(IndexReader(idx))
    assert out["n_docs"] == 7               # 8 rows, 1 duplicate url
    assert out["n_partitions"] == len(out["partitions"]) >= 1
    assert all("wall_s" in e for e in out["partitions"])


def test_lineage_multi_fragment_postings_equal_plain(ray_session, tmp_path,
                                                    docs_pages):
    """With partial batches of 16 docs every frequent term has several
    fragments per salt: the plain build's sorted-block merge and the
    lineage build's per-cell merge write the same postings rows (two
    fields, no positions, index-time synonyms), and the same stats."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    ds = rd.from_pandas(docs_pages)
    kw = dict(P=8, postings_batch_size=16, store_positions=False,
              fields={"body": "text", "url": "url"},
              index_synonyms={"fast": ["quick"], "data": ["info"]})
    a, b = str(tmp_path / "plain"), str(tmp_path / "lin")
    _build(ds, a, lineage=False, token="m", **kw)
    _build(ds, b, lineage=True, token="m", **kw)

    def rows(idx):
        t = pa.concat_tables(
            pq.read_table(os.path.join(d, f)).append_column(
                "bucket", pa.array([int(d.rsplit("=", 1)[1])]
                                   * pq.read_metadata(os.path.join(d, f)).num_rows,
                                   pa.int32()))
            for d in (os.path.join(idx, "postings", x)
                      for x in os.listdir(os.path.join(idx, "postings"))
                      if x.startswith("bucket="))
            for f in os.listdir(d) if f.endswith(".parquet"))
        t = t.replace_schema_metadata(None)
        return t.sort_by([(k, "ascending")
                          for k in ("bucket", "salt", "field", "term")])

    ra, rb = rows(a), rows(b)
    assert ra.num_rows > 100 and ra.equals(rb)
    assert max(ra["df"].to_pylist()) > 16       # runs merged many fragments
    assert json.load(open(os.path.join(a, "stats.json"))) == \
        json.load(open(os.path.join(b, "stats.json")))
    assert _forward_table(a).equals(_forward_table(b))
