"""The build's bulk kernels: ``varbyte.encode_runs`` against per-run
``encode_postings``, the ``_merge_bucket`` fan-in against a per-run
reference merge, the merges' docid rebase and compaction's
``_refragment`` against per-blob and per-term references, stats from the
forward writer's per-pid rows, and the format bump's forward rebuild.
The kernel tests run Ray-free."""

import ast
import inspect
import json
import os
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings, strategies as st

from search_engines_ray.index import build, merge
from search_engines_ray.index.varbyte import (
    decode_joined, decode_postings, encode_postings, encode_runs, vb_encode,
)

# ---------------------------------------------------------------- encode_runs

# docids up to 2^40; positions are int32 in the forward table
_doc = st.tuples(st.integers(0, 2**40),
                 st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=4,
                          unique=True))
_run = st.lists(_doc, min_size=1, max_size=5, unique_by=lambda d: d[0])


@given(st.lists(_run, max_size=6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_encode_runs_equals_per_run_encode_postings(runs, positions):
    """Every run's blobs equal ``encode_postings`` of that run byte for
    byte (values past one byte, docids up to 2^40, one-doc runs, runs with
    and without positions, zero runs), and ``decode_joined`` inverts
    the joined form."""
    runs = [sorted(r) for r in runs]
    cols = [[np.array(x, np.int64) for x in c] for c in (
        [[d for d, _ in r] for r in runs],
        [[len(p) for _, p in r] for r in runs],
        [[q for _, p in r for q in sorted(p)] for r in runs])]
    joined = [np.concatenate(c) if c else np.empty(0, np.int64)
              for c in cols]
    run_off = np.zeros(len(runs) + 1, np.int64)
    np.cumsum([len(r) for r in runs], out=run_off[1:])
    got = encode_runs(joined[0], joined[1],
                      joined[2] if positions else None, run_off)
    for i, (d, tf, p) in enumerate(zip(*cols)):
        want = encode_postings(d, tf, p if positions else np.empty(0))
        for (data, offs), w in zip(got, want):
            assert data[offs[i]:offs[i + 1]].tobytes() == w
    for data, offs in got:
        assert offs[0] == 0 and offs[-1] == data.size
    d, tf, p = decode_joined(*(data for data, _ in got), run_off)
    assert d.tolist() == joined[0].tolist()
    assert tf.tolist() == joined[1].tolist()
    assert p.tolist() == (joined[2].tolist() if positions else [])


# ------------------------------------------------------------- merge kernel

def _pages(n=40):
    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "the", "of", "eps", "zeta"]
    text = lambda k: " ".join(rng.choice(words, k))
    return pa.table({"url": [f"http://m.example/{i:03d}" for i in range(n)],
                     "text": [text(rng.integers(0, 30)) for _ in range(n)],
                     "title": [text(rng.integers(0, 4)) for _ in range(n)]})


def _forward(tmp_path, cfg):
    """The forward writer called Ray-free on every pid group."""
    pages = _pages()
    pid = [build.url_pid(u, cfg.docid_partitions)
           for u in pages["url"].to_pylist()]
    pages = pages.append_column("pid", pa.array(pid, pa.int32()))
    writer = build._Tokenize(cfg, str(tmp_path), "fp")
    rows = [writer(pages.filter(pa.array(np.array(pid) == p)))
            for p in sorted(set(pid))]
    fwd = pq.read_table(str(tmp_path)).sort_by([("pid", "ascending"),
                                                 ("docid_local", "ascending")])
    return fwd, pa.concat_tables(rows).to_pylist()


def _partials(cfg, fwd, batch):
    n = np.bincount(fwd["pid"].to_numpy(), minlength=cfg.docid_partitions)
    offs = np.concatenate(([0], np.cumsum(n)))
    P = cfg.docid_partitions
    salt_of_pid = (np.arange(P) * 3 // P).astype(np.int32)
    fn = build._partial_postings_fn(list(cfg.fields), cfg.num_buckets,
                                    salt_of_pid, offs, cfg.store_positions)
    return pa.concat_tables(fn(fwd.slice(i, batch))
                            for i in range(0, fwd.num_rows, batch))


def _reference_merge(t: pa.Table) -> pa.Table:
    """Per-run merge (the kernel's specification): runs in order of first
    appearance, fragments decoded one by one and re-encoded."""
    rows, order = {}, []
    for r in t.to_pylist():
        key = (r["bucket"], r["salt"], r["term"], r["field"])
        if key not in rows:
            rows[key] = []
            order.append(key)
        rows[key].append(r)
    out = []
    for key in order:
        frags = rows[key]
        dec = [decode_postings(f["docid_blob"], f["tf_blob"], f["pos_blob"])
               for f in frags]
        d = np.concatenate([x[0] for x in dec])
        tf = np.concatenate([x[1] for x in dec])
        segs = [np.split(x[2], np.cumsum(x[1])[:-1]) if x[2].size else
                [np.empty(0, np.int64)] * x[0].size for x in dec]
        segs = [s for seg in segs for s in seg]
        o = np.argsort(d, kind="stable")
        p = np.concatenate([segs[i] for i in o]) if o.size else []
        db, tb, pb = encode_postings(d[o], tf[o], np.asarray(p, np.int64))
        out.append({"term": key[2], "field": key[3], "bucket": key[0],
                    "salt": key[1], "df": int(d.size),
                    "ctf": int(tf.sum()), "min_docid": int(d.min()),
                    "max_tf": int(tf.max()), "docid_blob": db,
                    "tf_blob": tb, "pos_blob": pb})
    return pa.Table.from_pylist(out, schema=build._POSTINGS_SCHEMA)


@pytest.mark.parametrize("store_positions", [True, False])
def test_merge_bucket_matches_per_run_merge(tmp_path, store_positions):
    """Fragments of 3-doc partial batches (two fields, index-time
    synonyms): every term has several fragments per salt. The kernel's
    output equals the per-run reference merge row for row, and the
    merged runs equal those of one partial batch over every doc."""
    cfg = build.IndexBuildConfig(
        fields={"body": "text", "title": "title"}, num_buckets=3,
        docid_partitions=6, store_positions=store_positions,
        index_synonyms={"alpha": ["first"], "the": ["thee", "ye"]})
    fwd, _ = _forward(tmp_path, cfg)
    part = _partials(cfg, fwd, 3)
    key = ["bucket", "salt", "term", "field"]
    n_frag = part.group_by(key).aggregate([("df", "count")])
    assert max(n_frag["df_count"].to_pylist()) >= 3
    assert min(n_frag["df_count"].to_pylist()) == 1
    # a sorted block, as the build's sort hands it over
    block = part.take(np.lexsort((np.arange(part.num_rows),
                                  part["salt"].to_numpy(),
                                  part["bucket"].to_numpy())))
    got = build._merge_bucket(block)
    assert got.equals(_reference_merge(block))
    whole = _partials(cfg, fwd, fwd.num_rows)
    order = [(k, "ascending") for k in key]
    assert got.sort_by(order).equals(whole.sort_by(order))
    assert build._merge_bucket(block.slice(0, 0)).num_rows == 0


# ------------------------------------------------------------- docid rebase

def _rebase_blob(blob: bytes, offset: int) -> bytes:
    """Per-blob reference: shift the leading ABSOLUTE varbyte value of a
    delta-coded docid blob by ``offset``; the other bytes stay verbatim."""
    i = 0
    while blob[i] & 0x80:
        i += 1
    first = 0
    for k in range(i + 1):
        first |= (blob[k] & 0x7F) << (7 * k)
    return vb_encode(np.array([first + offset], np.uint64)) + blob[i + 1:]


# first docids and offsets that carry a first value across the varint
# length boundaries 127 -> 128 and 16,383 -> 16,384
_first = st.one_of(st.integers(0, 2**40),
                   st.sampled_from([0, 126, 127, 16_382, 16_383]))
_rebase_run = st.tuples(_first, st.lists(st.integers(1, 2**20), max_size=4))


@given(st.lists(_rebase_run, max_size=6),
       st.one_of(st.integers(0, 2**40), st.sampled_from([1, 2, 16_257])),
       st.integers(0, 6))
@example([(127, [1]), (16_383, []), (5, [200, 3])], 1, 1)
@example([(126, []), (0, [127])], 16_257, 0)
@settings(max_examples=150, deadline=None)
def test_rebase_docids_equals_per_blob_reference(runs, base, cut):
    """Each rebased blob equals the per-blob reference byte for byte, on
    a column split into two chunks."""
    docids = [np.cumsum([first, *gaps]) for first, gaps in runs]
    blobs = [encode_postings(d, np.ones(d.size), np.empty(0))[0]
             for d in docids]
    col = pa.array(blobs, pa.binary())
    cut = min(cut, len(blobs))
    got = merge._rebase_docids(
        pa.chunked_array([col.slice(0, cut), col.slice(cut)]),
        np.array([d.size for d in docids], np.int64), base)
    assert got.to_pylist() == [_rebase_blob(b, base) for b in blobs]


# --------------------------------------------------------------- compaction

def _reference_compact(t: pa.Table, dels: np.ndarray, salts: int,
                       n_live: int) -> pa.Table:
    """Per-term compaction (the kernels' specification): a term's runs
    decoded in ``min_docid`` order, tombstoned docs dropped, survivors
    renumbered, split at ``docid * salts // n_live`` and re-encoded."""
    terms = {}
    for r in t.to_pylist():
        terms.setdefault((r["term"], r["field"]), []).append(r)
    out = []
    for (term, fld), rows in terms.items():
        rows.sort(key=lambda r: r["min_docid"])
        dec = [decode_postings(r["docid_blob"], r["tf_blob"], r["pos_blob"])
               for r in rows]
        d = np.concatenate([x[0] for x in dec])
        tf = np.concatenate([x[1] for x in dec])
        segs = [s for x in dec for s in (
            np.split(x[2], np.cumsum(x[1])[:-1]) if x[2].size
            else [np.empty(0, np.int32)] * x[0].size)]
        keep = np.flatnonzero(~np.isin(d, dels))
        d = d[keep] - np.searchsorted(dels, d[keep])
        tf = tf[keep]
        salt = d * salts // n_live
        for s in np.unique(salt):
            i = np.flatnonzero(salt == s)
            p = np.concatenate([segs[keep[j]] for j in i])
            db, tb, pb = encode_postings(d[i], tf[i], p)
            out.append({"term": term, "field": fld,
                        "bucket": rows[0]["bucket"], "salt": int(s),
                        "df": int(i.size), "ctf": int(tf[i].sum()),
                        "min_docid": int(d[i[0]]),
                        "max_tf": int(tf[i].max()), "docid_blob": db,
                        "tf_blob": tb, "pos_blob": pb})
    return pa.Table.from_pylist(out, schema=build._POSTINGS_SCHEMA)


@pytest.mark.parametrize("store_positions", [True, False])
@pytest.mark.parametrize("salts", [2, 5])
@pytest.mark.parametrize("deletes", [True, False])
def test_refragment_and_merge_equal_per_term_compaction(
        tmp_path, store_positions, salts, deletes):
    """Compaction's kernels (``_refragment`` per 7-row block, the build's
    (bucket, salt) sort, ``_merge_bucket``) equal the per-term reference
    row for row: input of 3-doc partial fragments over 3 salts (several
    fragments per term), with and without tombstones (one fragment
    wholly deleted), positions on and off, fewer and more new salts."""
    cfg = build.IndexBuildConfig(
        fields={"body": "text", "title": "title"}, num_buckets=3,
        docid_partitions=6, store_positions=store_positions)
    fwd, _ = _forward(tmp_path, cfg)
    part = _partials(cfg, fwd, 3)
    n_frag = part.group_by(["term", "field"]).aggregate([("df", "count")])
    assert max(n_frag["df_count"].to_pylist()) >= 3
    dels = np.empty(0, np.int64)
    if deletes:
        small = part.filter(pa.compute.less_equal(part["df"], 2)).slice(0, 1)
        gone = decode_postings(small["docid_blob"][0].as_py(),
                               small["tf_blob"][0].as_py())[0]
        dels = np.union1d(np.arange(1, fwd.num_rows, 4), gone)
    n_live = fwd.num_rows - dels.size
    frags = pa.concat_tables(
        merge._refragment(part.slice(i, 7), dels, salts, n_live)
        for i in range(0, part.num_rows, 7))
    got = build._merge_bucket(frags.take(np.lexsort((
        np.arange(frags.num_rows), frags["salt"].to_numpy(),
        frags["bucket"].to_numpy()))))
    order = [(k, "ascending") for k in ("bucket", "term", "field", "salt")]
    want = _reference_compact(part, dels, salts, n_live)
    assert got.sort_by(order).equals(want.sort_by(order))
    assert set(got["salt"].to_pylist()) == set(range(salts))
    assert merge._refragment(part.slice(0, 0), dels, salts,
                             n_live).num_rows == 0


def test_forward_writer_returns_its_pid_stats(tmp_path):
    """Each pid's row (doc count, per-field length sums and non-zero
    counts) equals a scan of the forward file it wrote, written in
    ``tokenize_batch_size`` chunks."""
    cfg = build.IndexBuildConfig(fields={"body": "text", "title": "title"},
                                 docid_partitions=3, tokenize_batch_size=4)
    fwd, rows = _forward(tmp_path, cfg)
    for r in rows:
        t = fwd.filter(pa.compute.equal(fwd["pid"], r["pid"]))
        assert r["n_docs"] == t.num_rows
        assert t["docid_local"].to_pylist() == list(range(t.num_rows))
        f = pq.ParquetFile(os.path.join(tmp_path, build._fwd_file(r["pid"])))
        assert f.metadata.num_row_groups == -(-t.num_rows // 4)
        for fld in cfg.fields:
            lens = t[f"len_{fld}"].to_numpy()
            assert r[f"sum_len_{fld}"] == lens.sum()
            assert r[f"nz_{fld}"] == np.count_nonzero(lens)


def _loop_iterables(fn) -> set[str]:
    """Source of what each loop and comprehension in ``fn`` iterates."""
    src = textwrap.dedent(inspect.getsource(fn))
    kinds = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return {ast.unparse(getattr(g, "iter", g.test if isinstance(g, ast.While)
                                else g))
            for n in ast.walk(ast.parse(src)) if isinstance(n, kinds)
            for g in getattr(n, "generators", [n])}


def test_bulk_kernels_have_no_per_run_loop():
    """The write-side kernels (build, merge rebase, compaction) loop over
    the fields or the three blob columns only — never over runs, terms
    or postings."""
    assert _loop_iterables(encode_runs) == set()
    per_column = {"_BLOB_COLS", "zip(_BLOB_COLS, blobs)", "zip(blobs, merged)"}
    assert _loop_iterables(build._partial_postings_fn) <= {"fields"} | per_column
    assert _loop_iterables(build._merge_bucket) <= per_column
    assert _loop_iterables(merge._refragment) <= per_column
    assert _loop_iterables(merge._rebase_docids) == set()


# ---------------------------------------------------------- stats + resume

def _scan_stats(idx, fields):
    t = pq.read_table(os.path.join(idx, "forward"))
    with open(os.path.join(idx, "stats.json")) as fh:
        st = json.load(fh)
    n = np.bincount(t["pid"].to_numpy(), minlength=st["docid_partitions"])
    want = {"n_docs": t.num_rows,
            "pid_offsets": np.concatenate(([0], np.cumsum(n))).tolist(),
            "fields": {f: {"doc_count": int(np.count_nonzero(
                               t[f"len_{f}"].to_numpy())),
                           "sum_len": int(t[f"len_{f}"].to_numpy().sum())}
                       for f in fields}}
    return st, want


def test_stats_from_forward_manifest_match_a_scan(ray_session, tmp_path,
                                                  toy_pages):
    """stats.json comes from the forward writer's per-pid rows; it equals
    a scan of the forward table, also after a resume where only
    ``num_buckets`` changed (forward skipped, stats + postings rerun)."""
    import ray.data as rd
    from search_engines_ray.index import IndexReader
    idx = str(tmp_path / "st")
    fields = {"body": "text", "title": "title"}
    ds = rd.from_pandas(toy_pages)
    for nb in (4, 3):
        m = build.build_index(ds, idx, build.IndexBuildConfig(
            fields=fields, num_buckets=nb, docid_partitions=4),
            input_token="st", resume=True)
        st, want = _scan_stats(idx, fields)
        assert {k: st[k] for k in want} == want
        assert st["num_buckets"] == nb
        assert IndexReader(idx).postings("fox", "body").df == 2
    assert m["forward_s"] < 0.1 and "forward_pids_built" not in m
    assert m["docmeta_s"] < 0.1          # no Ray job


def test_forward_manifest_before_format_bump_rebuilds(ray_session, tmp_path,
                                                      toy_pages, monkeypatch):
    """A forward manifest stamped by the previous format version (no
    per-pid rows) does not resume: the forward stage rebuilds."""
    import ray.data as rd
    idx = str(tmp_path / "old")
    cfg = build.IndexBuildConfig(num_buckets=4, docid_partitions=4)
    ds = rd.from_pandas(toy_pages)
    build.build_index(ds, idx, cfg, input_token="o", resume=False)
    with monkeypatch.context() as mp:
        mp.setattr(build, "FORMAT_VERSION", build.FORMAT_VERSION - 1)
        old_fp = cfg.fingerprint("o", build.FORWARD_DIR)
    manifest = os.path.join(idx, "forward_SUCCESS.json")
    with open(manifest, "w") as fh:
        json.dump({"fingerprint": old_fp, "completed_at": 0.0}, fh)
    m = build.build_index(ds, idx, cfg, input_token="o", resume=True)
    with open(manifest) as fh:
        rec = json.load(fh)
    assert rec["completed_at"] > 0
    assert m["forward_pids_built"] == len(rec["pids"]) > 0
    assert sum(r["n_docs"] for r in rec["pids"]) == 7
    st, want = _scan_stats(idx, {"body": "text"})
    assert {k: st[k] for k in want} == want
