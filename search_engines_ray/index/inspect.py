"""Index inspection utility — the reference's ``InspectIndex``
(``/root/reference/QryEval/InspectIndex.java:46-441``): stats, posting
lists, term vectors, docid lookups, through the reader's lexicon and
pyarrow scans of the Parquet index (no Ray session needed, except for
``verify``).

CLI:  python -m search_engines_ray.index.inspect <index_dir> <cmd> [...]
  stats
  postings <term> [field]
  termvector <external_id> [field]
  doc <external_id>
  vocab [field] [limit]
  lineage
"""

from __future__ import annotations

import json
import os
import sys

from .reader import IndexReader


def cmd_stats(reader: IndexReader) -> dict:
    return dict(reader.stats)


def cmd_postings(reader: IndexReader, term: str, field: str = "body") -> dict:
    p = reader.postings(term, field)
    if p is None:
        return {"term": term, "field": field, "df": 0, "ctf": 0}
    b = p.pos_bounds()
    sample = [
        {"docid": int(d), "tf": int(t),
         "positions": p.positions[b[i]:b[i + 1]].tolist()
         if p.positions is not None else None}
        for i, (d, t) in enumerate(zip(p.docids[:10], p.tfs[:10]))]
    return {"term": term, "field": field, "df": p.df, "ctf": p.ctf,
            "first_postings": sample}


def cmd_termvector(reader: IndexReader, external_id: str,
                   field: str = "body") -> dict:
    d = reader.internal_docid(external_id)
    if d < 0:
        return {"external_id": external_id, "error": "not found"}
    tv = reader.term_vectors([d], field)
    terms, pos, flen = tv.get(d, ([], [], 0))
    return {"external_id": external_id, "docid": d, "field": field,
            "field_length": flen, "terms": terms, "positions": pos}


def cmd_doc(reader: IndexReader, external_id: str) -> dict:
    d = reader.internal_docid(external_id)
    if d < 0:
        return {"external_id": external_id, "error": "not found"}
    out = {"external_id": external_id, "docid": d}
    import numpy as np
    lens = reader.doclens_for(np.asarray([d], dtype=np.int64), reader.fields)
    for f in reader.fields:
        out[f"len_{f}"] = int(lens[f][0])
    return out


def cmd_vocab(reader: IndexReader, field: str = "body", limit: int = 20) -> dict:
    import numpy as np
    import pandas as pd
    runs = [reader._bucket(b).runs for b in range(reader.num_buckets)]
    df = pd.DataFrame({c: np.concatenate([getattr(r, c) for r in runs])
                       for c in ("term", "field", "df", "ctf")})
    df = df[df["field"] == field].groupby("term", as_index=False).sum(
        numeric_only=True)
    n_terms = int(df["term"].nunique())
    df = df.sort_values(["ctf", "term"], ascending=[False, True]).head(limit)
    return {"field": field, "n_terms": n_terms,
            "top_terms": df.to_dict("records")}


def cmd_lineage(reader: IndexReader) -> dict:
    """Per-partition lineage record of a ``lineage=True`` build: one entry
    per pid with n_docs, per-field token sums, wall_s and fingerprint —
    the checkpoint inventory a resumed 100-TB run skips from."""
    from .build import forward_lineage, postings_lineage
    entries = forward_lineage(reader.index_dir)
    cells = postings_lineage(reader.index_dir)
    return {"n_partitions": len(entries),
            "n_docs": sum(e.get("n_docs", 0) for e in entries.values()),
            "n_postings_cells": len(cells),
            "n_terms": sum(e.get("n_terms", 0) for e in cells.values()),
            "partitions": [entries[p] for p in sorted(entries)],
            "postings_cells": [cells[k] for k in sorted(cells)]}


def cmd_verify(reader: IndexReader) -> dict:
    """Index integrity audit — the post-crash/resume sanity an operator
    runs before serving a 100-TB index. Checks the cross-file
    invariants the build guarantees:

    - stats vs docmeta: n_docs == forward row count; per-field sum_len
      / doc_count re-aggregate to stats.json; pid_offsets are monotone
      and end at n_docs.
    - postings self-consistency (distributed map over the term
      buckets): every run of the reader's lexicon against the blobs its
      (file, row group, row) points at — df == decoded docid count,
      ctf == Σtf, docids strictly ascending, min_docid == first docid,
      max_tf == max tf, bucket == term_bucket(term). ``first_bad``
      names up to ten failing runs.
    - cross-plane: per-field Σctf over postings == the forward plane's
      indexed-token count (Σ len(terms_<field>) — NOT sum_len, which is
      stopword-inclusive under the lucene analyzer).

    → dict of check name → {"ok": bool, ...detail}; "ok" overall key.
    Runs as ONE Ray Data pass over the buckets (per-batch failing runs
    and ctf partials) + the stats pass the reader already has.
    """
    import numpy as np
    import pyarrow as pa
    import ray.data

    from .build import term_bucket
    checks: dict = {}
    st = reader.stats
    off = reader.pid_offsets
    checks["pid_offsets"] = {
        "ok": bool((np.diff(off) >= 0).all() and off[0] == 0
                   and off[-1] == st["n_docs"])}
    # forward/docmeta vs stats
    fwd = reader._forward_dataset()
    n_fwd = fwd.count_rows()
    ok_fields = {}
    for f in reader.fields:
        t = fwd.to_table(columns=[f"len_{f}"])
        lens = t[f"len_{f}"].to_numpy()
        ok_fields[f] = (int(lens.sum()) == st["fields"][f]["sum_len"]
                        and int((lens > 0).sum())
                        == st["fields"][f]["doc_count"])
    checks["docmeta"] = {"ok": bool(n_fwd == st["n_docs"]
                                    and all(ok_fields.values())),
                         "n_forward": int(n_fwd), "fields": ok_fields}
    # postings plane: the lexicon of each bucket against its decoded
    # blobs, one file at a time, in a distributed map over the buckets
    index_dir = reader.index_dir
    num_buckets = int(st["num_buckets"])

    def audit(batch: pa.Table) -> pa.Table:
        r = IndexReader(index_dir)
        bad: list[str] = []
        ctf_by_field: dict = {}
        for b in batch["bucket"].to_pylist():
            lex = r._bucket(b)
            for f in range(len(lex.paths)):
                runs = lex.runs.take(np.flatnonzero(lex.runs.file == f))
                for i, (d, tf, _p) in enumerate(r.read_runs(runs)):
                    term, fld = runs.term[i], runs.field[i]
                    ok = (int(runs.df[i]) == d.size
                          and int(runs.ctf[i]) == int(tf.sum())
                          and (d.size == 0 or (np.diff(d) > 0).all())
                          and (d.size == 0
                               or int(runs.min_docid[i]) == int(d[0]))
                          and (tf.size == 0
                               or int(runs.max_tf[i]) == int(tf.max()))
                          and term_bucket(term, num_buckets) == b)
                    if not ok:
                        bad.append(f"{term!r}/{fld} salt {runs.salt[i]} "
                                   f"({os.path.basename(lex.paths[f])}, "
                                   f"row group {runs.rg[i]}, "
                                   f"row {runs.row[i]})")
                    ctf_by_field[fld] = ctf_by_field.get(fld, 0) + int(
                        tf.sum())
        # one row per bad run (field "") + one ctf row per field
        flds = sorted(ctf_by_field)
        return pa.table({
            "bad": pa.array(bad + [""] * len(flds), pa.string()),
            "field": pa.array([""] * len(bad) + flds, pa.string()),
            "ctf": pa.array([0] * len(bad)
                            + [ctf_by_field[f] for f in flds], pa.int64())})

    if reader._postings_paths():
        parts = pa.concat_tables(
            ray.data.from_items([{"bucket": b} for b in range(num_buckets)])
            .map_batches(audit, batch_format="pyarrow")
            .iter_batches(batch_size=None, batch_format="pyarrow"))
        seen_rows = parts.to_pydict()
        bad_runs = [x for x in seen_rows["bad"] if x]
        ctf_sums: dict = {}
        for f, c in zip(seen_rows["field"], seen_rows["ctf"]):
            if f:
                ctf_sums[f] = ctf_sums.get(f, 0) + int(c)
        fwd_tok: dict = {}
        for f in reader.fields:
            import pyarrow.compute as _pc
            t = fwd.to_table(columns=[f"terms_{f}"])
            fwd_tok[f] = int(_pc.sum(_pc.list_value_length(
                t[f"terms_{f}"])).as_py() or 0)
        cross_ok = all(ctf_sums.get(f, 0) == fwd_tok[f]
                       for f in reader.fields)
        checks["postings"] = {"ok": not bad_runs,
                              "bad_runs": len(bad_runs),
                              "first_bad": sorted(bad_runs)[:10]}
        checks["cross_plane_ctf"] = {"ok": bool(cross_ok),
                                     "ctf_sums": ctf_sums}
    else:
        checks["postings"] = {"ok": st["n_docs"] == 0}
        checks["cross_plane_ctf"] = {"ok": st["n_docs"] == 0}
    checks["ok"] = all(v["ok"] for k, v in checks.items()
                       if isinstance(v, dict))
    return checks


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 1
    reader = IndexReader(argv[0])
    cmd, args = argv[1], argv[2:]
    fn = {"stats": cmd_stats, "postings": cmd_postings,
          "termvector": cmd_termvector, "doc": cmd_doc, "vocab": cmd_vocab,
          "lineage": cmd_lineage, "verify": cmd_verify}[cmd]
    out = fn(reader, *args)
    print(json.dumps(out, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))


def attribute_histogram(index_dir: str, attr: str = "ts",
                        bucket_us: int = 60_000_000):
    """Elasticsearch ``date_histogram`` over the index's doc-values
    plane: fixed-width buckets of a timestamp attribute → doc counts.
    One column-pruned distributed pass over the forward table (ONLY
    ``attr_<name>`` leaves storage), per-batch ``np.unique`` partials,
    then a bucket-keyed groupby of the tiny partial table — the
    pre-aggregate-then-shuffle shape, never rows. → Arrow
    (bucket, n_docs) sorted by bucket; bucket = ts_us // bucket_us."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from .build import FORWARD_DIR

    col = f"attr_{attr}"
    ds = rd.read_parquet(os.path.join(index_dir, FORWARD_DIR),
                         columns=[col])

    def partial(b: pa.Table) -> pa.Table:
        us = b[col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        uniq, cnt = np.unique(us // bucket_us, return_counts=True)
        return pa.table({"bucket": pa.array(uniq, pa.int64()),
                         "n_docs": pa.array(cnt.astype(np.int64))})

    t = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").sum("n_docs").to_pandas()
    t = t.sort_values("bucket", ignore_index=True)
    return pa.table({"bucket": pa.array(t["bucket"].to_numpy(), pa.int64()),
                     "n_docs": pa.array(t["sum(n_docs)"].to_numpy()
                                        .astype(np.int64))})


def attribute_value_counts(index_dir: str, attr: str):
    """Elasticsearch ``terms`` aggregation over a doc-values column:
    value → doc count, computed like ``attribute_histogram`` — one
    column-pruned pass over the forward plane, per-batch ``np.unique``
    partials, one groupby of the tiny partial table. → Arrow
    (value, n_docs) sorted by value asc."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from .build import FORWARD_DIR

    col = f"attr_{attr}"
    ds = rd.read_parquet(os.path.join(index_dir, FORWARD_DIR),
                         columns=[col])

    def partial(b: pa.Table) -> pa.Table:
        vals = np.asarray(b[col].to_pylist(), dtype=object)
        uniq, cnt = np.unique(vals, return_counts=True)
        return pa.table({"value": pa.array(uniq.tolist(), pa.string()),
                         "n_docs": pa.array(cnt.astype(np.int64))})

    t = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("value").sum("n_docs").to_pandas()
    t = t.sort_values("value", ignore_index=True)
    return pa.table({"value": pa.array(t["value"], pa.string()),
                     "n_docs": pa.array(t["sum(n_docs)"].to_numpy()
                                        .astype(np.int64))})
