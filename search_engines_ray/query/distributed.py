"""Distributed batch query evaluation over the Parquet index with plain
Ray tasks.

The driver-side ``QueryEngine`` fetches a handful of posting lists per
query — right for interactive use. This module is the *batch* path: score
a whole query set against a huge index as one ZERO-SHUFFLE Ray job:

  one task per contiguous range of salts, at most one per cluster CPU
  (a salt = contiguous docid range; every term's postings for that
  range live in one parquet row, so the runs the task reads hold the
  COMPLETE inputs for its docs)
    → per salt: vectorized leaf math per posting row, dense group-sum on
      packed int64 keys ``qcode << 44 | docid`` (never string keys)
    → exact per-salt top-k cut (salt ranges are disjoint; a tie group
      keeps at most k docs per pid)
    → driver merge of the tiny candidate tables: attach external ids,
      exact (score desc, external_id asc) top-k per qid.

Execution: each entry point plans on the driver, then ``_run_salt_tasks``
splits the salts into ``min(n_salts, cluster CPUs)`` contiguous ranges
and submits one ``score_salts`` task per range. That task fetches the
batch maps once and calls a plain kernel ``(spec, salt) -> pa.Table``
once per salt of its range; the partial tables concatenate in salt
order, in the task and then on the driver, so every later step sees
what one task per salt would give. ``spec`` is plain data (index dir,
build token, model parameters, k) plus ObjectRefs to the batch-sized
maps, and the kernel travels by name, so Ray exports the runner once
per session and a batch ships no code. Three kernels score:

- ``score_salt_bm25``: #SUM of BM25 or classic TF-IDF leaves — bag of
  words (its term-only case), grid, #MSM, champion phase B and
  structured BM25;
- ``score_salt_indri``: any #AND/#WAND/#WSUM tree over one field. Each
  query's candidates are the docs its leaves match in the salt; every
  leaf scores every candidate (tf = 0 where it does not match) and
  ``kernels.indri_tree`` combines them, the driver engine's own
  expression, so a batch score has the driver's bits;
- ``score_salt_bm25f``: BM25F's pooled saturation.

The first two read their leaves through ``_salt_leaves``: the salt's
parked derived rows (``i:<field>:<repr>``, phase A = ``_derive_lists``)
then its plain runs (``t:<field>:<term>``), with doc lengths gathered
once per field. Plain runs come from ``_scan`` (the worker reader's
lexicon picks the salt's runs; their blobs come from the process cache
or an exact row-group read, then one varbyte decode for all of them).
Every kernel ends in ``_cut`` (exact per-salt top-k, packed keys); the
BM25 kernels feed it a dense group-sum. The leaf formulas come from
``kernels``, the same functions the driver engine scores with. Global
df/ctf and every "no postings" guard on the driver are lexicon lookups
too (``IndexReader.runs`` / ``term_stats``), so no path scans a
postings dataset.

Tombstones (``merge.delete_docs``) ride in the spec as a sorted docid
array (``dels``, absent when there are none); ``_cut`` drops them after
the group-sum and before the per-salt top-k, so a deleted document
never takes a top-k slot. Corpus statistics (df, doclens, avglen) stay
as-built until compaction, as on every other search path.

Scale notes: doclens come from the worker's reader (``_doclens``), whose
byte-budgeted cache loads only the docid blocks the posting runs touch
— no O(n_docs) broadcast anywhere. Per-process state (the reader with
its lexicon) sits in ``util``'s process cache behind a real import,
keyed by the build token, and the process's one byte-budgeted cache of
forward shards and posting runs keys every entry by (index dir, build
token), so both outlive a task and a rebuilt index never serves stale
entries. The driver takes its reader from the same cache, so the
external ids of the final candidate set come from shards warmed by
earlier batches. The packed key leaves 44 bits for docids and 19 for
queries per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray

from ..analysis.tokenizer import analyzer_for_mode
from ..index.build import STATS_FILE
from ..index.reader import IndexReader, decode_runs
from ..util import pool_size
from .eval import expand_wildcards
from .kernels import (
    INDRI_OPS, bm25, bm25_idf, bm25_prior, bm25f_saturate, dirichlet,
    indri_tree, tfidf,
)
from .models import BM25Model
from .trec import drop_deleted

_DOC_BITS = 44
_DOC_MASK = (1 << _DOC_BITS) - 1

# index builds (reader + lexicon) a long-lived process keeps open
_MAX_INDEXES = 8


# ------------------------------------------------------- worker state

def _index_reader(index_dir: str, token: float | None = None) -> IndexReader:
    """The process's reader for one index build (``token`` = stats.json
    mtime; None reads the current one): its lexicon serves every later
    task or batch on this process, and the process's one cache keeps
    its forward shards and posting runs under keys carrying the
    token."""
    from ..util import proc_cached
    if token is None:
        token = os.path.getmtime(os.path.join(index_dir, STATS_FILE))
    return proc_cached(("index_reader", index_dir, token),
                       lambda: IndexReader(index_dir), cap=_MAX_INDEXES)


def _doclens(spec: dict, field: str, docids: np.ndarray) -> np.ndarray:
    """Lengths of ``docids`` from this worker's reader: a posting run's
    docids map to a handful of contiguous pid ranges (the build's salt
    layout keeps runs docid-range-local), so each worker loads and keeps
    few forward shards. Replaces a dense ``ray.put(doclens)`` broadcast,
    which is O(n_docs) memory per node — 4 TB at the 10^12-doc design
    point."""
    return _index_reader(spec["index_dir"], spec["token"]).doclens_for(
        docids, [field])[field]


def _scan(spec: dict, salt: int, terms: list[str], fields: list[str],
          positions: bool = False):
    """Decoded ``(term, field, docids, tfs, positions)`` runs of ``terms``
    × ``fields`` inside one salt, in index order (bucket, file, row): the
    worker reader's lexicon picks the runs, its cache or an exact
    row-group read supplies the blobs. ``positions`` is None unless asked
    for."""
    reader = _index_reader(spec["index_dir"], spec["token"])
    runs = reader.runs(terms, fields, salt)
    for term, fld, (d, tf, p) in zip(runs.term.tolist(), runs.field.tolist(),
                                     reader.read_runs(runs, positions)):
        yield term, fld, d, tf, p


# ------------------------------------------------------ salt kernels

# dense-accumulate cap for _group_sum_entries: nq_present × docid-span
# cells per salt; two float64 arrays at the cap ≈ 512 MB, inside a
# worker's heap. Past it (very wide docid ranges × many queries) the
# sort-based fallback runs in O(n log n) of the posting count instead.
_DENSE_CAP = 1 << 25


def _group_sum_entries(entries, need_zero_candidates: bool = False):
    """Sum per-(query, docid) contributions of ONE salt.

    ``entries``: list of ``(qcode, ascending docid array, float64 vals)``.
    Returns ``(qc, docid, sums)`` sorted by ``(qc, docid)``.

    Fast path exploits the salt contract — every entry's docids fall in
    one contiguous range — with a dense ``np.bincount`` over
    ``qslot*span + (docid-base)``: ~20× faster than sorting packed
    int64 keys (``np.unique``/``argsort`` on millions of keys dominated
    the r2 per-salt profile). ``need_zero_candidates`` keeps docs whose
    summed value is exactly 0.0 (BM25 idf-clamped terms) at the cost of
    a second bincount, preserving the reference's candidate semantics
    (a matched doc is a candidate regardless of score)."""
    entries = [(qc, d, v) for qc, d, v in entries if d.size]
    if not entries:
        e = np.empty(0, np.int64)
        return e, e.copy(), np.empty(0, np.float64)
    qs = sorted({qc for qc, _, _ in entries})
    qslot = {q: i for i, q in enumerate(qs)}
    base = min(int(d[0]) for _, d, _ in entries)
    span = max(int(d[-1]) for _, d, _ in entries) + 1 - base
    ncells = len(qs) * span
    vals = np.concatenate([v for _, _, v in entries])
    if ncells <= _DENSE_CAP:
        lk = np.concatenate([
            np.int64(qslot[qc] * span - base) + d.astype(np.int64)
            for qc, d, _ in entries])
        dense = np.bincount(lk, weights=vals, minlength=ncells)
        if need_zero_candidates:
            nzi = np.flatnonzero(np.bincount(lk, minlength=ncells))
        else:
            nzi = np.flatnonzero(dense)
        slot, docid = np.divmod(nzi, span)
        return (np.asarray(qs, dtype=np.int64)[slot], docid + base,
                dense[nzi])
    gk = np.concatenate([
        (np.int64(qc) << _DOC_BITS) | d.astype(np.int64)
        for qc, d, _ in entries])
    order = np.argsort(gk)
    gs, vs = gk[order], vals[order]
    flag = np.empty(gs.size, np.bool_)
    flag[0] = True
    np.not_equal(gs[1:], gs[:-1], out=flag[1:])
    idx = np.flatnonzero(flag)
    uniq = gs[idx]
    return (uniq >> _DOC_BITS), (uniq & _DOC_MASK), np.add.reduceat(vs, idx)


def _query_slices(qc: np.ndarray):
    """(start, end) runs of equal qcode; ``qc`` must be ascending (both
    ``_group_sum_entries`` paths return it sorted)."""
    bounds = np.flatnonzero(np.diff(qc)) + 1
    return zip(np.concatenate(([0], bounds)),
               np.concatenate((bounds, [qc.size])))


def _rank_in_runs(new: np.ndarray) -> np.ndarray:
    """0-based position of each row inside its run of rows, where
    ``new`` flags the first row of every run."""
    starts = np.flatnonzero(new)
    return np.arange(new.size) - np.repeat(
        starts, np.diff(np.append(starts, new.size)))


def _topk_cut_sorted(qc: np.ndarray, sums: np.ndarray, k: int,
                     docid: np.ndarray | None = None,
                     pid_offsets: np.ndarray | None = None) -> np.ndarray:
    """Exact per-query top-k keep mask over one salt's disjoint docid
    range, sorted by ``(qc, docid)``. Ties at the kth score survive the
    score cut (the global cut in ``_emit_ranked`` orders them by external
    id). Given the docids and the pid ranges, a tie group is also cut to
    the first k of each (query, pid) by (score desc, docid asc): within
    one pid, docid order is external-id order (the build url-sorts a
    pid's docs before numbering them, and merge and compaction move
    whole pids), so a doc with k better-or-tied docs ahead of it in its
    own pid can never make the global top k. Without that cut, an
    all-tied query (BM25 idf clamped to 0) ships every matched doc to
    the driver."""
    keep = np.ones(qc.size, np.bool_)
    for lo, hi in _query_slices(qc):
        if hi - lo > k:
            sq = sums[lo:hi]
            kth = np.partition(sq, -k)[-k]
            keep[lo:hi] = sq >= kth
    idx = np.flatnonzero(keep)
    if docid is not None and idx.size > k:
        pid = np.searchsorted(pid_offsets, docid[idx], side="right") - 1
        order = np.lexsort((docid[idx], -sums[idx], pid, qc[idx]))
        q, p = qc[idx][order], pid[order]
        new = np.ones(order.size, np.bool_)
        new[1:] = (q[1:] != q[:-1]) | (p[1:] != p[:-1])
        keep[idx[order[_rank_in_runs(new) >= k]]] = False
    return keep


def _route(entries: list, targets, docids: np.ndarray, vals: np.ndarray,
           offset: int = 0) -> None:
    """Add one scored run to every ``(qcode, multiplicity)`` target."""
    for qc, mult in targets:
        entries.append((offset + qc, docids,
                        vals if mult == 1 else vals * mult))


def _cut(spec: dict, qc: np.ndarray, docid: np.ndarray,
         sums: np.ndarray) -> pa.Table:
    """One salt's scores, sorted by ``(qc, docid)``: drop the spec's
    tombstoned docids, cut each query to its exact top ``spec["k"]``
    (ties bounded per pid) and pack the keys."""
    docid, qc, sums = drop_deleted(spec.get("dels"), docid, qc, sums)
    if not qc.size:
        return _partial_empty()
    keep = _topk_cut_sorted(qc, sums, spec["k"], docid, _index_reader(
        spec["index_dir"], spec["token"]).pid_offsets)
    return pa.table({"gkey": pa.array((qc[keep] << _DOC_BITS) | docid[keep]),
                     "score": pa.array(sums[keep])})


def _derived_rows(spec: dict, salt: int):
    """``(leaf, field, docids, tfs)`` of the salt's derived positional
    lists: its table in the task's salt → table map (phase A output,
    fetched whole from the object store by ``_task_spec``), decoded in
    one pass."""
    t = spec["derived"].get(salt)
    if t is None:
        return
    for lf, fld, (d, tf, _) in zip(
            t["leaf"].to_pylist(), t["field"].to_pylist(),
            decode_runs(t["docid_blob"].to_pylist(),
                        t["tf_blob"].to_pylist())):
        yield lf, fld, d, tf


def _doclen_lookup(spec: dict, runs):
    """``lengths(field, docids)`` over ``runs`` = [(field, docids)]: ONE
    ``_doclens`` gather per field over the union of that field's docids,
    then a searchsorted into it for each run or candidate set (which
    must fall inside that union)."""
    by_field: dict[str, list[np.ndarray]] = {}
    for fld, d in runs:
        by_field.setdefault(fld, []).append(d)
    gathered = {}
    for fld, ds in by_field.items():
        u = ds[0] if len(ds) == 1 else np.unique(np.concatenate(ds))
        gathered[fld] = (u, _doclens(spec, fld, u).astype(np.float64))

    def lengths(fld: str, docids: np.ndarray) -> np.ndarray:
        u, dl = gathered[fld]
        return dl[np.searchsorted(u, docids)]
    return lengths


def _salt_leaves(spec: dict, salt: int, allowed: np.ndarray | None = None):
    """One salt's scored leaves → ``([(key, field, docids, tfs, dl)],
    lengths)``, read the same way by both scoring kernels.

    Order: the salt's parked derived rows (``i:<field>:<repr>``) first,
    then each field's plain runs of ``spec["plain"]`` (field → terms;
    ``t:<field>:<term>``) in index order — the entry order the
    group-sum's float sums follow. ``allowed`` (sorted docids) masks every
    leaf first; emptied leaves drop out. ``dl`` and ``lengths`` (for the
    candidates, a subset of the leaves' docids) come from
    ``_doclen_lookup``: one doclen gather per field."""
    rows = list(_derived_rows(spec, salt))
    for fld, terms in sorted(spec["plain"].items()):
        rows += [(f"t:{fld}:{trm}", fld, d, tf)
                 for trm, _, d, tf, _ in _scan(spec, salt, terms, [fld])]
    if allowed is not None:
        for i, (lf, fld, d, tf) in enumerate(rows):
            pos = np.minimum(np.searchsorted(allowed, d), allowed.size - 1)
            keep = allowed[pos] == d
            rows[i] = (lf, fld, d[keep], tf[keep])
    rows = [r for r in rows if r[2].size]
    lengths = _doclen_lookup(spec, [(fld, d) for _, fld, d, _ in rows])
    return [(lf, fld, d, tf, lengths(fld, d)) for lf, fld, d, tf in rows], \
        lengths


def score_salt_bm25(spec: dict, salt: int) -> pa.Table:
    """#SUM of BM25 (or Lucene classic TF-IDF when ``classic``) leaves
    over one salt — the kernel of ``bm25_batch_search`` (a bag of words
    is the term-only case), ``bm25_grid_search``,
    ``bm25_msm_batch_search``, ``bm25_champion_search``'s phase B and
    ``bm25_structured_batch_search``. Each leaf scores with its field's
    df, doclen and avglen; BM25 runs once per ``(k1, b)`` in ``grid``
    (grid point g scores query slot ``g·nq + qcode``). Batch maps:
    ``tq`` (leaf → [(qcode, mult)]), ``df`` (leaf → global df), optional
    ``allowed`` (sorted candidate docids the leaves are masked to) and
    ``nreq`` (per-qcode clause minimum: a second group-sum of clause
    indicators over the same keys filters before the cut; docs live in
    one salt, so local counts are complete)."""
    bt = spec["batch"]
    tq, dfs, nreq = bt["tq"], bt["df"], bt.get("nreq")
    N = spec["N"]
    entries, counts = [], []
    leaves, _ = _salt_leaves(spec, salt, bt.get("allowed"))
    for lf, fld, docids, tfs, dl in leaves:
        df, tf = dfs[lf], tfs.astype(np.float64)
        if spec["classic"]:
            scores = [tfidf(N, df, tf, dl)]
        else:
            idf = bm25_idf(N, df)
            scores = [bm25(idf, tf, dl, k1, b, spec["avglen"][fld])
                      for k1, b in spec["grid"]]
        for g, sc in enumerate(scores):
            _route(entries, tq[lf], docids, sc, g * spec["nq"])
        if nreq is not None:
            _route(counts, tq[lf], docids, np.ones(docids.size, np.float64))

    qc, docid, sums = _group_sum_entries(entries, spec["need_zero"])
    if nreq is not None and qc.size:
        cnts = _group_sum_entries(counts, need_zero_candidates=True)[2]
        ok = cnts >= nreq[qc]
        qc, docid, sums = qc[ok], docid[ok], sums[ok]
    return _cut(spec, qc, docid, sums)


def champions_salt(spec: dict, salt: int) -> pa.Table:
    """Champion-list phase A: each term's local top-``m`` postings in one
    salt by (tf desc, docid asc) → (term, docid, tf) rows."""
    m = spec["m"]
    terms_o, docs_o, tfs_o = [], [], []
    for term, _, docids, tfs, _ in _scan(spec, salt, spec["terms"],
                                         [spec["field"]]):
        if docids.size > m:
            sel = np.lexsort((docids, -tfs))[:m]
            docids, tfs = docids[sel], tfs[sel]
        terms_o.extend([term] * docids.size)
        docs_o.append(docids)
        tfs_o.append(tfs.astype(np.int64))
    return pa.table({
        "term": pa.array(terms_o, pa.string()),
        "docid": pa.array(np.concatenate(docs_o) if docs_o
                          else np.empty(0, np.int64)),
        "tf": pa.array(np.concatenate(tfs_o) if tfs_o
                       else np.empty(0, np.int64))})


def union_df_salt(spec: dict, salt: int) -> pa.Table:
    """BM25F phase A: ``|∪_f docids(t, f, salt)|`` per term — salt ranges
    are disjoint, so the global union df is the plain sum over salts."""
    per_term: dict[str, list[np.ndarray]] = {}
    for term, _, docids, _, _ in _scan(spec, salt, spec["terms"],
                                       spec["fields"]):
        per_term.setdefault(term, []).append(docids)
    ts = sorted(per_term)
    return pa.table({
        "term": pa.array(ts, pa.string()),
        "cnt": pa.array([int(np.unique(np.concatenate(per_term[t])).size)
                         if len(per_term[t]) > 1 else per_term[t][0].size
                         for t in ts], pa.int64())})


def score_salt_bm25f(spec: dict, salt: int) -> pa.Table:
    """BM25F phase B: pool ``w_f·tf/B_f`` across fields per doc, then
    saturate once with the union-df idf."""
    bt = spec["batch"]
    tq, gdf = bt["tq"], bt["df"]
    contribs: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    runs = list(_scan(spec, salt, spec["terms"], spec["fields"]))
    lengths = _doclen_lookup(spec, [(fld, d) for _, fld, d, _, _ in runs])
    for term, fld, docids, tfs, _ in runs:
        B = bm25_prior(lengths(fld, docids), spec["b"][fld],
                       spec["avglen"][fld])
        contribs.setdefault(term, []).append(
            (docids, spec["w"][fld] * tfs.astype(np.float64) / B))
    entries, need_zero = [], False
    for term, parts in contribs.items():
        if len(parts) == 1:
            docids, tft = parts[0]
        else:   # pool w_f·tf/B_f across fields per doc
            dc = np.concatenate([p[0] for p in parts])
            cc = np.concatenate([p[1] for p in parts])
            order = np.argsort(dc, kind="stable")
            dc, cc = dc[order], cc[order]
            starts = np.flatnonzero(
                np.concatenate(([True], dc[1:] != dc[:-1])))
            docids = dc[starts]
            tft = np.add.reduceat(cc, starts)
        idf = bm25_idf(spec["N"], gdf[term])
        need_zero |= idf == 0.0
        _route(entries, tq[term], docids,
               bm25f_saturate(idf, tft, spec["k1"]))
    return _cut(spec, *_group_sum_entries(entries, need_zero))


def score_salt_indri(spec: dict, salt: int) -> pa.Table:
    """Indri over one salt — the kernel of ``indri_batch_search`` and
    ``indri_structured_batch_search``. Batch map ``groups``: one
    ``(tree, [(qcode, leaf keys)])`` per distinct tree shape, the tree's
    leaves being positions into each query's keys. A query's candidates
    are the docs its leaves match in the salt; each leaf scores every
    candidate (``tf = 0`` where it does not match, ``dl`` from the
    leaves' one gather) and ``indri_tree`` combines them. The
    expression is elementwise, so each shape's queries go through it
    together, on packed ``qcode << 44 | docid`` keys."""
    bt = spec["batch"]
    mle, mu, lam = bt["mle"], spec["mu"], spec["lam"]
    leaves, lengths = _salt_leaves(spec, salt)
    runs = {lf: (d.astype(np.int64), tf) for lf, _, d, tf, _ in leaves}
    gkeys, scores = [], []
    for tree, qs in bt["groups"]:
        packed, tfs = [], []
        for i in range(len(qs[0][1])):
            hit = [(qc, runs[keys[i]]) for qc, keys in qs if keys[i] in runs]
            packed.append(np.concatenate([np.empty(0, np.int64)] + [
                (np.int64(qc) << _DOC_BITS) | d for qc, (d, _) in hit]))
            tfs.append(np.concatenate([np.empty(0, np.int64)] + [
                t for _, (_, t) in hit]))
        gk = np.unique(np.concatenate(packed))
        if not gk.size:
            continue
        slot = np.searchsorted([qc for qc, _ in qs], gk >> _DOC_BITS)
        dl = lengths(spec["field"], gk & _DOC_MASK)

        def leaf_scores(i):
            tf = np.zeros(gk.size, dtype=np.float64)
            tf[np.searchsorted(gk, packed[i])] = tfs[i]
            m = np.array([mle[keys[i]] for _, keys in qs])[slot]
            return dirichlet(tf, dl, m, mu, lam)
        gkeys.append(gk)
        scores.append(indri_tree(tree, leaf_scores))
    if not gkeys:
        return _partial_empty()
    gk = np.concatenate(gkeys)
    order = np.argsort(gk)
    gk = gk[order]
    return _cut(spec, gk >> _DOC_BITS, gk & _DOC_MASK,
                np.concatenate(scores)[order])


def _plan_terms(node, terms: set) -> None:
    """Add the terms of the Iop subtree ``node`` to ``terms``."""
    from .plan import TermNode
    if isinstance(node, TermNode):
        terms.add(node.term)
    else:
        for a in node.args:
            _plan_terms(a, terms)


def derive_salt(spec: dict, salt: int):
    """→ (stats_table, derived_table) for ONE salt: the tiny (leaf, df,
    ctf) side the driver sums for global stats, and the blob side (leaf,
    field, docid_blob, tf_blob) that stays in the object store until the
    phase-B task of that salt's range fetches it."""
    from ..index.varbyte import encode_postings
    from .eval import InvList, eval_iop_tree
    types = dict(leaf=pa.string(), field=pa.string(), df=pa.int64(),
                 ctf=pa.int64(), docid_blob=pa.binary(), tf_blob=pa.binary())
    rows = {c: [] for c in types}
    for fld, items in spec["plans"]:
        cache = {}
        for trm, _, d, tf, p in _scan(spec, salt, spec["terms"][fld], [fld],
                                      positions=True):
            cache[(trm, fld)] = InvList(
                d, tf, p if p is not None else np.empty(0, np.int32),
                int(d.size), int(tf.sum()), fld)
        for key, node in items:
            inv = eval_iop_tree(node, cache)
            if inv.df == 0:
                continue
            db2, tb2, _ = encode_postings(
                inv.docids, inv.tfs, np.empty(0, np.int64))
            for c, v in zip(types, (key, fld, int(inv.df), int(inv.ctf),
                                    db2, tb2)):
                rows[c].append(v)
    t = pa.table({c: pa.array(rows[c], ty) for c, ty in types.items()})
    return (t.select(["leaf", "df", "ctf"]),
            t.select(["leaf", "field", "docid_blob", "tf_blob"]))


# ------------------------------------------------------ range runners

_KERNELS = {f.__name__: f for f in (score_salt_bm25, score_salt_indri,
                                     score_salt_bm25f, champions_salt,
                                     union_df_salt)}


def _task_spec(spec: dict, lo: int, hi: int) -> dict:
    """``spec`` as the kernels of salts ``[lo, hi)`` read it: the batch
    maps fetched once for the task, and ``derived`` as one salt → table
    map from the phase-A ranges that overlap it."""
    out = dict(spec, derived={})
    if "batch" in spec:
        out["batch"] = ray.get(spec["batch"])
    refs = [ref for a, b, ref in spec.get("derived", ()) if a < hi and lo < b]
    for m in ray.get(refs):
        out["derived"].update(m)
    return out


def _concat(tables: list[pa.Table]) -> pa.Table:
    """Partial tables in order; the first (empty) one if all are empty."""
    full = [t for t in tables if t.num_rows]
    return pa.concat_tables(full) if full else tables[0]


@ray.remote
def score_salts(kernel: str, spec: dict, lo: int, hi: int) -> pa.Table:
    """Kernel ``kernel`` (by name) over salts ``[lo, hi)``, one call per
    salt, its partial tables concatenated in salt order."""
    spec = _task_spec(spec, lo, hi)
    return _concat([_KERNELS[kernel](spec, s) for s in range(lo, hi)])


@ray.remote(num_returns=2)
def derive_salts(spec: dict, lo: int, hi: int):
    """Phase A over salts ``[lo, hi)`` → (their stats tables concatenated,
    salt → derived table)."""
    parts = [derive_salt(spec, s) for s in range(lo, hi)]
    return (pa.concat_tables([st for st, _ in parts]),
            {s: d for s, (_, d) in zip(range(lo, hi), parts)})


# -------------------------------------------------------------- driver

def _n_salts(reader: IndexReader) -> int:
    return int(reader.stats.get("merge_salts", 4))


def _spec(reader: IndexReader, k: int, **kw) -> dict:
    """Plain-data task spec every kernel reads: where the index is, which
    build (``token`` keys the worker caches), its size and its sorted
    tombstones (``dels``, absent when there are none)."""
    spec = dict(index_dir=reader.index_dir, token=reader.stats_token,
                N=reader.n_docs, k=k, **kw)
    dels = reader.deleted_docids()
    if dels.size:
        spec["dels"] = dels
    return spec


def _salt_ranges(reader: IndexReader) -> list[tuple[int, int]]:
    """The salts split into ``min(n_salts, cluster CPUs)`` contiguous
    ``[lo, hi)`` ranges, one task each: a task per salt beyond the
    cluster's width only adds per-task cost."""
    n = _n_salts(reader)
    r = min(n, pool_size(floor=1))
    return [(i * n // r, (i + 1) * n // r) for i in range(r)]


def _run_salt_tasks(kernel, spec: dict, reader: IndexReader) -> pa.Table:
    """One stateless ``score_salts`` task per salt range running
    ``kernel``; the tiny partial tables (≤ salts × queries × k rows for
    the scoring kernels) concat on the driver in salt order."""
    return _concat(ray.get([
        score_salts.remote(kernel.__name__, spec, lo, hi)
        for lo, hi in _salt_ranges(reader)]))


def _emit_ranked(cands: pa.Table, qids: list[str], k: int,
                 reader: IndexReader) -> pa.Table:
    """Unpack packed keys, attach external ids (the reader's cache),
    apply the reference ordering (score desc, externalId asc) per qid."""
    if cands.num_rows == 0:
        return _empty()
    gk = cands["gkey"].to_numpy()
    sc = cands["score"].to_numpy()
    qc = (gk >> _DOC_BITS).astype(np.int64)
    eids = reader.external_ids_for((gk & _DOC_MASK).astype(np.int64))
    # one stable sort by (qc, score desc, external id): each qid's block
    # is the order the per-qid sort gave, then its first k rows
    order = np.lexsort((eids, -sc, qc))
    qs = qc[order]
    new = np.ones(qs.size, np.bool_)
    new[1:] = qs[1:] != qs[:-1]
    rank = _rank_in_runs(new)
    top = rank < k
    sel = order[top]
    return pa.table({
        "qid": pa.array(np.asarray(qids, dtype=object)[qc[sel]].tolist(),
                        pa.string()),
        "external_id": pa.array(eids[sel].tolist(), pa.string()),
        "rank": pa.array((rank[top] + 1).astype(np.int32)),
        "score": pa.array(sc[sel], pa.float64()),
    })


def _term_queries(reader: IndexReader, queries: list[tuple],
                  prefix: str = ""):
    """Analyze a bag-of-words batch ``[(qid, text, ...)]`` →
    ``(qids, prefix + term → [(qcode, multiplicity)], analyzed terms per
    qcode)``. A repeated query term scores per occurrence, as #SUM over
    duplicate args does; ``prefix`` ``t:<field>:`` keys the terms as the
    scoring kernels' leaves."""
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    qids = _check_unique_qids(queries)
    term_queries: dict[str, list[tuple[int, int]]] = {}
    q_terms: list[list[str]] = []
    for qc, q in enumerate(queries):
        terms = [t for tok in q[1].split() for t in an.analyze_query_token(tok)]
        q_terms.append(terms)
        for t in set(terms):
            term_queries.setdefault(prefix + t, []).append(
                (qc, terms.count(t)))
    return qids, term_queries, q_terms


def _term_dfs(reader: IndexReader, leaves) -> tuple[dict, dict]:
    """Global dfs of the ``t:<field>:<term>`` leaves, from the lexicon →
    ``(leaf → df, field → indexed terms to scan)``."""
    by_field: dict[str, list[str]] = {}
    for lf in leaves:
        if lf.startswith("t:"):
            _, fld, trm = lf.split(":", 2)
            by_field.setdefault(fld, []).append(trm)
    df, plain = {}, {}
    for fld, terms in sorted(by_field.items()):
        stats = reader.term_stats(terms, fld)
        if stats:
            plain[fld] = sorted(stats)
            df.update({f"t:{fld}:{t}": d for t, (d, _) in stats.items()})
    return df, plain


def _bm25_spec(reader: IndexReader, leaves: dict, df: dict, plain: dict,
               k: int, nq: int, grid, classic: bool = False,
               derived=(), **batch) -> dict:
    """Spec of ``score_salt_bm25``: ``leaves`` (key → [(qcode, mult)]),
    ``df`` (key → global df), ``plain`` (field → terms to scan),
    ``derived`` (phase A's parked tables). Idf-clamped leaves score 0 but
    still create candidates; only then (or under a clause minimum) does
    the group-sum need its zero-candidate bincount."""
    need_zero = "nreq" in batch or (not classic and any(
        bm25_idf(reader.n_docs, d) == 0.0 for d in df.values() if d > 0))
    fields = {lf.split(":", 2)[1] for lf in leaves}
    return _spec(reader, k, plain=plain, derived=derived,
                 avglen={f: reader.avg_len(f) for f in fields},
                 grid=list(grid), classic=classic, nq=nq,
                 need_zero=need_zero,
                 batch=ray.put(dict(tq=leaves, df=df, **batch)))


def bm25_batch_search(index_dir: str, queries: list[tuple[str, str]],
                      model=None, k: int = 100,
                      field: str = "body") -> pa.Table:
    """Score a bag-of-words query batch — BM25 by default, or Lucene
    ClassicSimilarity when ``model`` is a ``TFIDFModel`` — as the
    term-only case of ``score_salt_bm25``; → (qid, external_id, rank,
    score), reference ordering per qid.

    Salt is the SAME contiguous docid range for every term (build.py
    salt_of_pid), so the kernel call on one salt holds the complete
    postings of every query term for its range — (query, doc) scores
    are FINAL there and the per-salt top-k cut is exact."""
    from .models import TFIDFModel
    model = model or BM25Model()
    classic = isinstance(model, TFIDFModel)
    reader = _index_reader(index_dir)
    qids, leaves, _ = _term_queries(reader, queries, f"t:{field}:")
    df, plain = _term_dfs(reader, leaves)
    if not df:
        return _empty()
    spec = _bm25_spec(reader, leaves, df, plain, k, len(qids),
                      [(0.0, 0.0) if classic else (model.k1, model.b)],
                      classic)
    return _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                        qids, k, reader)


def bm25_msm_batch_search(index_dir: str,
                          queries: list[tuple[str, str, int]],
                          model: BM25Model | None = None, k: int = 100,
                          field: str = "body") -> pa.Table:
    """Distributed #MSM/n (minimum-should-match) — ``queries`` =
    [(qid, bag-of-words, n)]: BM25 #SUM restricted to docs matching
    ≥ n clauses (repeated terms count per clause, like the engine).

    Same zero-shuffle per-salt shape as ``bm25_batch_search`` plus a
    SECOND bincount group-sum of clause-indicator entries over the
    identical key set (``need_zero_candidates=True`` on both, so the
    two groupings align element-wise); the cnt ≥ n mask applies before
    the per-salt top-k cut. Docs live in exactly one salt, so local
    clause counts are complete — the filter is exact with no extra
    exchange."""
    model = model or BM25Model()
    reader = _index_reader(index_dir)
    qids, leaves, q_terms = _term_queries(reader, queries, f"t:{field}:")
    n_req = np.asarray([max(1, min(int(q[2]), len(ts))) if ts else 1
                        for q, ts in zip(queries, q_terms)], np.int64)
    df, plain = _term_dfs(reader, leaves)
    if not df:
        return _empty()
    spec = _bm25_spec(reader, leaves, df, plain, k, len(qids),
                      [(model.k1, model.b)], nreq=n_req)
    return _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                        qids, k, reader)


def bm25f_batch_search(index_dir: str, queries: list[tuple[str, str]],
                       weights: dict[str, float],
                       field_b: dict[str, float] | float = 0.75,
                       k1: float = 1.2, k: int = 100) -> pa.Table:
    """Distributed BM25F (query/bm25f.py math at batch scale): → (qid,
    external_id, rank, score), reference ordering per qid. BM25F's idf
    uses the UNION df (docs holding the term in ANY scored field), which
    no per-field sum gives, so phase A counts ``|∪_f docids(t, f, salt)|``
    per term and salt (salts are disjoint: the global union df is the
    sum) and phase B re-reads the same runs, cache-warm, to
    pool ``w_f·tf/B_f`` across fields per doc and saturate once."""
    reader = _index_reader(index_dir)
    fields = sorted(weights)
    if not isinstance(field_b, dict):
        field_b = {f: float(field_b) for f in fields}
    qids, term_queries, _ = _term_queries(reader, queries)
    terms = sorted(term_queries)
    if not len(reader.runs(terms, fields)):
        return _empty()
    spec = _spec(reader, k, terms=terms, fields=fields, k1=k1,
                 avglen={f: reader.avg_len(f) for f in fields},
                 b={f: field_b[f] for f in fields},
                 w={f: float(weights[f]) for f in fields})

    union_df: dict[str, int] = {}
    st = _run_salt_tasks(union_df_salt, spec, reader)
    for t, c in zip(st["term"].to_pylist(), st["cnt"].to_pylist()):
        union_df[t] = union_df.get(t, 0) + int(c)
    spec["batch"] = ray.put(dict(tq=term_queries, df=union_df))
    return _emit_ranked(_run_salt_tasks(score_salt_bm25f, spec, reader),
                        qids, k, reader)


def bm25_grid_search(index_dir: str, queries: list[tuple[str, str]],
                     grid: list[tuple[float, float]], k: int = 100,
                     field: str = "body") -> pa.Table:
    """BM25 (k1, b) hyper-parameter sweep in ONE pass over the postings:
    parameter tuning re-reads nothing — each salt's kernel decodes every
    query term's (docids, tf) run once, then every grid point re-weights
    the SAME arrays (idf and doclen are parameter-independent), so the
    sweep costs one batch search plus G cheap vectorized re-weightings
    instead of G full scans. Slots pack (grid × query) into the existing
    ``gkey = slot<<44 | docid`` keys; the per-slot top-k cut stays exact
    (disjoint salt docid ranges). → (k1, b, qid, external_id, rank,
    score), reference ordering per (grid point, qid)."""
    reader = _index_reader(index_dir)
    qids, leaves, _ = _term_queries(reader, queries, f"t:{field}:")
    empty = pa.table({"k1": pa.array([], pa.float64()),
                      "b": pa.array([], pa.float64()),
                      "qid": pa.array([], pa.string()),
                      "external_id": pa.array([], pa.string()),
                      "rank": pa.array([], pa.int32()),
                      "score": pa.array([], pa.float64())})
    df, plain = _term_dfs(reader, leaves)
    if not grid or not df:
        return empty
    grid_t = [(float(g[0]), float(g[1])) for g in grid]
    spec = _bm25_spec(reader, leaves, df, plain, k, len(qids), grid_t)
    slot_labels = [f"{g}\x00{qid}" for g in range(len(grid_t))
                   for qid in qids]
    ranked = _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                          slot_labels, k, reader)
    gi = [int(lbl.split("\x00", 1)[0]) for lbl in ranked["qid"].to_pylist()]
    return pa.table({
        "k1": pa.array([grid_t[i][0] for i in gi], pa.float64()),
        "b": pa.array([grid_t[i][1] for i in gi], pa.float64()),
        "qid": pa.array([lbl.split("\x00", 1)[1]
                         for lbl in ranked["qid"].to_pylist()], pa.string()),
        "external_id": ranked["external_id"],
        "rank": ranked["rank"],
        "score": ranked["score"],
    })


def bm25_champion_search(index_dir: str, queries: list[tuple[str, str]],
                         m: int = 128, k: int = 100,
                         field: str = "body") -> pa.Table:
    """Champion-list approximate top-k (Manning IIR §7.1.3): candidates
    are the union of each query term's GLOBAL top-``m`` postings by
    (tf desc, docid asc); candidates then score EXACTLY (full tf of
    every query term, corpus-wide df/doclens), so only the candidate-
    generation step is approximate. Two rounds of salt-range tasks: phase A
    returns each salt's local top-m (term, docid, tf) triples — the
    global top-m per term is a subset of the locals' union, so the
    driver merge is exact over ≤ salts × terms × m tiny rows; phase B
    re-scans with the merged candidate set and masks each term's
    decoded postings to it. At the 10^12-doc design point phase A's
    output is the CHAMPION SUBLIST you would persist next to the index
    (it never changes between queries for fixed m) — the second scan
    then prices like ``bm25_batch_search`` over lists shrunk to ≤ m
    entries. → (qid, external_id, rank, score)."""
    model = BM25Model()
    reader = _index_reader(index_dir)
    qids, leaves, _ = _term_queries(reader, queries, f"t:{field}:")
    df, plain = _term_dfs(reader, leaves)
    if not df:
        return _empty()

    # ---- phase A: per-salt local champions (tf desc, docid asc), then
    # each term's first m of their union in one sort ----
    locs = _run_salt_tasks(
        champions_salt, _spec(reader, k, field=field, terms=plain[field],
                              m=m), reader)
    if locs.num_rows == 0:
        return _empty()
    tc = locs["term"].combine_chunks().dictionary_encode().indices.to_numpy()
    ld = locs["docid"].to_numpy()
    order = np.lexsort((ld, -locs["tf"].to_numpy(), tc))
    tc = tc[order]
    new = np.ones(tc.size, np.bool_)
    new[1:] = tc[1:] != tc[:-1]
    cand_set = np.unique(ld[order[_rank_in_runs(new) < m]])

    # ---- phase B: exact scoring of the candidate set ----
    spec = _bm25_spec(reader, leaves, df, plain, k, len(qids),
                      [(model.k1, model.b)], allowed=cand_set)
    return _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                        qids, k, reader)


def indri_batch_search(index_dir: str, queries: list[tuple[str, str]],
                       model=None, k: int = 100,
                       field: str = "body") -> pa.Table:
    """Distributed Indri query-likelihood (Dirichlet + Jelinek-Mercer mix,
    ``QrySopScore.java:140-161``) for bag-of-words batches. Each query
    parses as ``QueryEngine.search`` parses it (``#and`` around the text,
    wildcards expanded), so a bag of words is one ``#AND`` tree and runs
    through ``indri_structured_batch_search``'s planner. Candidates are
    the docs with ≥1 matched term, as in the reference's DAAT loop."""
    return _indri_search(index_dir, queries, model, k, field)


def _parser(reader: IndexReader, field: str):
    from .parser import QueryParser
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    return QueryParser(an, default_field=field)


def _check_unique_qids(queries: list[tuple]) -> list[str]:
    """Batch qids key the packed qcode space — a repeated qid would
    silently merge two queries' term sets under one code (ADVICE r1),
    and a qcode must fit the 19 bits above ``_DOC_BITS``."""
    from collections import Counter
    if len(queries) >= 1 << (63 - _DOC_BITS):
        raise ValueError("query batch overflows the packed key space — "
                         "split the batch")
    qids = [q[0] for q in queries]
    dups = sorted(q for q, c in Counter(qids).items() if c > 1)
    if dups:
        raise ValueError(f"duplicate qids in query batch: {dups}")
    return qids


def _partial_empty() -> pa.Table:
    return pa.table({"gkey": pa.array([], pa.int64()),
                     "score": pa.array([], pa.float64())})


def _empty() -> pa.Table:
    return pa.table({"qid": pa.array([], pa.string()),
                     "external_id": pa.array([], pa.string()),
                     "rank": pa.array([], pa.int32()),
                     "score": pa.array([], pa.float64())})


# ---------------------------------------------------------- structured

def _leaf_key(leaf, iop_plans: dict) -> tuple[str, str]:
    """A ``TermNode`` / ``IopNode`` leaf → ``(field, key)``, keyed
    ``t:<field>:<term>`` or ``i:<field>:<repr>`` as the scoring kernels
    read it. A positional leaf is also filed in ``iop_plans`` (field →
    key → node) for phase A."""
    from .plan import TermNode
    if isinstance(leaf, TermNode):
        return leaf.field, f"t:{leaf.field}:{leaf.term}"
    fld = leaf.field_name
    key = f"i:{fld}:{leaf!r}"
    iop_plans.setdefault(fld, {})[key] = leaf
    return fld, key


def _derive_lists(reader: IndexReader, iop_plans_by_field: dict):
    """Phase A of the distributed structured paths: evaluate every Iop
    subtree (#NEAR/#WINDOW/#SYN/#FIRST) per salt and return
    ``([(lo, hi, ObjectRef[{salt: pa.Table}]) per salt range],
    {leaf: (df, ctf)})``.

    A salt is a contiguous docid range with one postings row per (term,
    salt), so ``derive_salt`` on one salt holds every argument term's
    postings for its docids and runs the driver's positional kernels
    (``eval_iop_tree``) unchanged — zero shuffle. One ``derive_salts``
    task per salt range (``_salt_ranges``) calls it on each of its
    salts. A derived list's global df/ctf (``QryIop.java:139-151``) is
    the sum over its salt runs; only that (leaf, df, ctf) side reaches
    the driver. A range's derived rows stay in the object store as one
    salt → table map (``num_returns=2``) that the phase-B tasks whose
    ranges overlap it fetch whole."""
    terms_by_field: dict[str, list[str]] = {}
    plans = []
    for fld, by_key in sorted(iop_plans_by_field.items()):
        if not by_key:
            continue
        acc: set[str] = set()
        for p in by_key.values():
            _plan_terms(p, acc)
        plans.append((fld, sorted(by_key.items())))
        terms_by_field[fld] = sorted(acc)
    if not any(len(reader.runs(ts, [fld]))
               for fld, ts in terms_by_field.items()):
        return [], {}
    spec = _spec(reader, 0, plans=plans, terms=terms_by_field)
    ranges = _salt_ranges(reader)
    pairs = [derive_salts.remote(spec, lo, hi) for lo, hi in ranges]
    stats: dict[str, tuple[int, int]] = {}
    for st in ray.get([p[0] for p in pairs]):
        for lf, dfv, ctfv in zip(st["leaf"].to_pylist(),
                                 st["df"].to_pylist(),
                                 st["ctf"].to_pylist()):
            d0, c0 = stats.get(lf, (0, 0))
            stats[lf] = (d0 + dfv, c0 + ctfv)
    return [(lo, hi, p[1]) for (lo, hi), p in zip(ranges, pairs)], stats


def bm25_structured_batch_search(index_dir: str,
                                 queries: list[tuple[str, str]],
                                 model: BM25Model | None = None,
                                 k: int = 100,
                                 field: str = "body") -> pa.Table:
    """Distributed structured BM25: ``#SUM`` over TERM and positional
    (``#NEAR/n`` / ``#WINDOW/n`` / ``#SYN``) leaves — the reference's
    BoW + SDM-shaped query set (``queries2.txt``), batch-scored in two
    rounds of one task per salt range.

    A positional operator is docid-local and a salt is a contiguous
    docid range, so phase A (``_derive_lists``) evaluates every
    positional leaf per salt with zero shuffle; a derived list's df/ctf
    (what the reference scores with, ``QryIop.java:139-151``) is the sum
    over its salt runs. Phase B is ``score_salt_bm25`` over the salt's
    parked derived rows plus its plain-term runs, each leaf scored with
    its own field's df/doclen/avglen, with an exact per-salt top-k cut.
    Rank- and score-identical to ``QueryEngine.search`` per query
    (tests/test_query_engine.py)."""
    from .plan import IopNode, ScoreNode, SopNode, TermNode

    model = model or BM25Model()
    reader = _index_reader(index_dir)
    parser = _parser(reader, field)
    qids = _check_unique_qids(queries)

    def leaves_of(plan):
        """Flatten a parsed plan to #SUM leaves (TermNode | IopNode)."""
        if plan is None:
            return []
        if isinstance(plan, ScoreNode):
            return [plan.child]
        if isinstance(plan, (TermNode, IopNode)):
            return [plan]
        if isinstance(plan, SopNode) and plan.op == "sum":
            out = []
            for a in plan.args:
                out.extend(leaves_of(a))
            return out
        raise ValueError(
            "distributed structured path supports #SUM over term/"
            f"positional leaves only; got #{getattr(plan, 'op', plan)} "
            "(deeper trees stay on the driver path)")

    # leaf key → [(qcode, mult)]; term key = "t:<field>:<term>", iop key
    # = "i:<field>:<repr>" — per-field keys let one batch mix fields
    # (each field scores with its OWN df/doclen/avglen stats, matching
    # the reference's per-field model — QryParser.java:156-158)
    leaves: dict[str, list[tuple[int, int]]] = {}
    iop_plans: dict[str, dict[str, IopNode]] = {}
    for qc, (qid, q) in enumerate(queries):
        # same plan-time wildcard/fuzzy/regexp -> #SYN rewrite as the
        # driver engine, so wildcards mean the same thing on this path
        plan = expand_wildcards(parser.parse(q, "#sum"), reader)
        counts: dict[str, int] = {}
        for leaf in leaves_of(plan):
            key = _leaf_key(leaf, iop_plans)[1]
            counts[key] = counts.get(key, 0) + 1
        for key, m in counts.items():
            leaves.setdefault(key, []).append((qc, m))
    if not leaves:
        return _empty()

    # ---- phase A: derived lists per salt, zero shuffle ----
    derived_refs, dstats = _derive_lists(reader, iop_plans)
    df = {lf: d for lf, (d, _) in dstats.items()}

    tdf, plain = _term_dfs(reader, leaves)
    df.update(tdf)
    spec = _bm25_spec(reader, leaves, df, plain, k, len(qids),
                      [(model.k1, model.b)], derived=derived_refs)
    return _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                        qids, k, reader)


def indri_structured_batch_search(index_dir: str,
                                  queries: list[tuple[str, str]],
                                  model=None, k: int = 100,
                                  field: str = "body") -> pa.Table:
    """Distributed structured Indri: any tree of ``#AND`` / ``#WAND`` /
    ``#WSUM`` over TERM and positional leaves of one field — the
    reference's SDM query class (``dm.pl``; e.g. ``#wand(0.7 #and(a b)
    0.2 #and(#near/1(a b)) 0.1 #and(#window/8(a b)))``) and ``#WSUM``
    at any depth.

    Phase A (``_derive_lists``) evaluates the positional leaves per
    salt; a derived leaf's mle uses its DERIVED ctf
    (``QryIop.java:139-151``). Phase B is ``score_salt_indri``: a salt
    is a disjoint docid range holding every leaf's postings for its
    docs, so each candidate's score is complete there and is the
    driver's own ``indri_tree`` expression over the same leaf scores.
    Rank- and bit-identical to ``QueryEngine.search``."""
    return _indri_search(index_dir, queries, model, k, field)


def _indri_search(index_dir: str, queries: list[tuple[str, str]], model,
                  k: int, field: str) -> pa.Table:
    """Plan and run ``score_salt_indri``: parse each query as the driver
    engine does, key its leaves (``_leaf_key``; positional leaves go to
    phase A), group the queries by tree shape and give every key its
    mle = ctf / collection length (0 for a leaf with no postings)."""
    from .models import IndriModel
    from .plan import ScoreNode, SopNode
    model = model or IndriModel()
    reader = _index_reader(index_dir)
    parser = _parser(reader, field)
    qids = _check_unique_qids(queries)
    iop_plans: dict = {}

    def shape(node, keys: list):
        """``node`` with each leaf replaced by its position in ``keys``,
        where its key goes."""
        if isinstance(node, SopNode):
            if node.op not in INDRI_OPS:
                raise ValueError(
                    "distributed Indri supports #AND/#WAND/#WSUM trees "
                    f"over term/positional leaves; got #{node.op}")
            return SopNode(op=node.op, weights=node.weights,
                           args=[shape(a, keys) for a in node.args])
        fld, key = _leaf_key(
            node.child if isinstance(node, ScoreNode) else node, iop_plans)
        if fld != field:
            raise ValueError(
                f"distributed Indri scores field {field!r} only; "
                f"leaf uses {fld!r} — use the driver path")
        keys.append(key)
        return len(keys) - 1

    groups: dict[str, tuple] = {}       # repr(tree) → (tree, [(qc, keys)])
    for qc, (_, q) in enumerate(queries):
        plan = expand_wildcards(parser.parse(q, "#and"), reader)
        if plan is not None:
            keys: list = []
            tree = shape(plan, keys)
            groups.setdefault(repr(tree), (tree, []))[1].append((qc, keys))
    leaves = sorted({lf for _, qs in groups.values() for _, keys in qs
                     for lf in keys})
    if not leaves:
        return _empty()

    # ---- phase A: derived lists + their (df, ctf), per salt ----
    derived_refs, dstats = _derive_lists(reader, iop_plans)
    pre = f"t:{field}:"
    tstats = reader.term_stats(
        [lf[len(pre):] for lf in leaves if lf.startswith(pre)], field)
    if not tstats and not dstats:
        return _empty()
    clen = max(reader.sum_field_lengths(field), 1)
    mle = dict.fromkeys(leaves, 0.0)
    mle.update({pre + t: c / clen for t, (_, c) in tstats.items()})
    mle.update({lf: c / clen for lf, (_, c) in dstats.items()})

    spec = _spec(reader, k, field=field, mu=model.mu, lam=model.lambda_,
                 derived=derived_refs,
                 plain={field: sorted(tstats)} if tstats else {},
                 batch=ray.put(dict(groups=list(groups.values()),
                                    mle=mle)))
    return _emit_ranked(_run_salt_tasks(score_salt_indri, spec, reader),
                        qids, k, reader)
