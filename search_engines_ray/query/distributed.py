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
- ``score_salt_indri``: #WSUM spines over log-linear #AND/#WAND
  subtrees — a bag of words is one #AND subtree;
- ``score_salt_bm25f``: BM25F's pooled saturation.

The first two read their leaves through ``_salt_leaves``: the salt's
parked derived rows (``i:<field>:<repr>``, phase A = ``_derive_lists``)
then its plain runs (``t:<field>:<term>``), with doc lengths gathered
once per field. Plain runs come from ``_scan`` (the worker reader's
lexicon picks the salt's runs; their blobs come from the process cache
or an exact row-group read, then one varbyte decode for all of them).
Every kernel ends in ``_cut`` (dense group-sum, exact per-salt top-k,
packed keys); the leaf formulas come from ``kernels``, the same
functions the driver engine scores with. Global df/ctf and every "no
postings" guard on the driver are lexicon lookups too
(``IndexReader.runs`` / ``term_stats``), so no path scans a postings
dataset.

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
    bm25, bm25_idf, bm25_prior, bm25f_saturate, dirichlet, tfidf,
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


def _cut(spec: dict, entries: list, need_zero_candidates: bool = False,
         finish=None) -> pa.Table:
    """Group-sum one salt's entries, apply ``finish(qc, docid, sums)``
    (score transforms, filters), drop the spec's tombstoned docids, cut
    each query to its exact top ``spec["k"]`` (ties bounded per pid) and
    pack the keys."""
    qc, docid, sums = _group_sum_entries(entries, need_zero_candidates)
    if qc.size and finish is not None:
        qc, docid, sums = finish(qc, docid, sums)
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

    def min_match(qc, docid, sums):
        cnts = _group_sum_entries(counts, need_zero_candidates=True)[2]
        ok = cnts >= nreq[qc]
        return qc[ok], docid[ok], sums[ok]

    return _cut(spec, entries, spec["need_zero"],
                min_match if nreq is not None else None)


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
    return _cut(spec, entries, need_zero)


def score_salt_indri(spec: dict, salt: int) -> pa.Table:
    """Indri over one salt — the kernel of ``indri_batch_search`` (a bag
    of words is one ``#AND`` subtree) and
    ``indri_structured_batch_search``. Matched log-partials
    ``c·(log s(tf,dl) − log s(0,dl))`` of derived and plain leaves are
    group-summed per (query, #WSUM subtree j); each candidate then adds
    subtree j's all-leaves default correction ``corr_j`` and scores
    ``Σ_j W_j·exp((S_j + corr_j)/k_j)``. ``k_j`` is a bag-of-words
    query's term count (its geometric-mean divisor) and 1.0 for a
    structured subtree, whose coefficients already fold it. Matched
    partials are strictly > 0 (s is monotone in tf), so the dense
    group-sum's nonzero set is the match-min candidate set."""
    bt = spec["batch"]
    lt, mles, qinfo = bt["lt"], bt["mle"], bt["qinfo"]
    field, mu, lam, n_sub = spec["field"], spec["mu"], spec["lam"], \
        spec["n_sub"]
    entries = []
    leaves, lengths = _salt_leaves(spec, salt)

    def default_corr(dlq, mlv_arr, coefs):
        corr = np.zeros(dlq.size, dtype=np.float64)
        for mlv, cv in zip(mlv_arr, coefs):
            corr += cv * np.log(dirichlet(0.0, dlq, mlv, mu, lam))
        return corr

    def wsum_mix(gq_a, docid, agg):
        qc_a = gq_a // n_sub
        j_a = gq_a % n_sub
        out_q, out_d, out_s = [], [], []
        for lo, hi in _query_slices(qc_a):
            subs = qinfo[int(qc_a[lo])]
            if len(subs) == 1 and subs[0][0] == 1.0:
                # pure log-linear tree: rows are already unique per
                # candidate — final = exp((S + corr)/k)
                _, mlv_arr, coefs, kq = subs[0]
                cand = docid[lo:hi]
                corr = default_corr(lengths(field, cand), mlv_arr, coefs)
                final = np.exp((agg[lo:hi] + corr) / kq)
            else:
                # #WSUM spine: candidates = docs with ≥1 subtree row;
                # start from the all-defaults baseline
                # Σ_j W_j·exp(corr_j/k_j), then swap in
                # exp((S_j + corr_j)/k_j) for each matched row
                cand, cidx = np.unique(docid[lo:hi], return_inverse=True)
                dlq = lengths(field, cand)
                final = np.zeros(cand.size, dtype=np.float64)
                aggq, jq = agg[lo:hi], j_a[lo:hi]
                for j, (w, mlv_arr, coefs, kq) in enumerate(subs):
                    corr = default_corr(dlq, mlv_arr, coefs)
                    base = w * np.exp(corr / kq)
                    final += base
                    rmsk = jq == j
                    ridx = cidx[rmsk]
                    final[ridx] += (w * np.exp((aggq[rmsk] + corr[ridx]) / kq)
                                    - base[ridx])
            out_q.append(np.full(cand.size, qc_a[lo], np.int64))
            out_d.append(cand)
            out_s.append(final)
        return (np.concatenate(out_q), np.concatenate(out_d),
                np.concatenate(out_s))

    with np.errstate(divide="ignore", invalid="ignore"):
        for lf, _, d, tf, dl in leaves:
            m = mles[lf]
            part = (np.log(dirichlet(tf.astype(np.float64), dl, m, mu, lam))
                    - np.log(dirichlet(0.0, dl, m, mu, lam)))
            _route(entries, lt[lf], d, part)
        return _cut(spec, entries, finish=wsum_mix)


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
    ``QrySopScore.java:140-161``) for bag-of-words ``#AND`` batches: each
    query is the one-subtree case of ``indri_structured_batch_search``'s
    plan. Indri's geometric mean needs a default score for every query
    term a candidate lacks (``QrySopAnd.java:97-107``); in log space that
    factors into a group-sum plus a per-candidate correction:

        log score(d) = (1/k_q) · [ Σ_matched m_t·(log s_t(tf,dl) − log s_t(0,dl))
                                   + Σ_all-terms m_t·log s_t(0,dl) ]

    so the subtree's leaves carry the multiplicities ``m_t`` and the
    subtree carries the divisor ``k_q`` (its arg count). Candidates are
    the match-min set (docs with ≥1 matched term), as in the reference's
    DAAT loop."""
    reader = _index_reader(index_dir)
    qids, _, q_terms = _term_queries(reader, queries)
    key = f"t:{field}:"
    # each query is one #AND subtree: weight 1, leaf coefficient = the
    # term's multiplicity, divisor k_q = its total arg count
    q_subtrees = [[(1.0, {key + t: float(ts.count(t)) for t in set(ts)},
                    float(len(ts)))] if ts else [] for ts in q_terms]
    return _indri_search(reader, qids, q_subtrees, {}, field, model, k)


def _parser(reader: IndexReader, field: str):
    from .parser import QueryParser
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    return QueryParser(an, default_field=field)


def _check_unique_qids(queries: list[tuple]) -> list[str]:
    """Batch qids key the packed qcode space — a repeated qid would
    silently merge two queries' term sets under one code (ADVICE r1)."""
    from collections import Counter
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
    """Distributed structured Indri: trees of ``#AND`` / ``#WAND`` over
    TERM and positional leaves — the reference's SDM query class
    (``dm.pl``; e.g. ``#wand(0.7 #and(a b) 0.2 #and(#near/1(a b)) 0.1
    #and(#window/8(a b)))``).

    Geometric-mean trees are log-linear: flattening the tree multiplies
    weights along the path, so

        log score(d) = Σ_leaves c_l · log s_l(d)
                     = Σ_matched c_l·(log s_l(tf,dl) − log s_l(0,dl))
                       + Σ_all-leaves c_l·log s_l(0,dl)

    where ``c_l`` is the folded coefficient (1/k per #AND level, w/Σw
    per #WAND level). The first sum is the dense per-salt group-sum
    over posting rows (terms + the salt's derived positional lists,
    phase A = ``_derive_lists``); the second is the per-candidate
    default-score correction computed from sharded doclens in the same
    salt's kernel call, using each leaf's mle = ctf/collection_len
    (DERIVED ctf for positional leaves — ``QryIop.java:139-151``).

    ``#WSUM`` (arithmetic mean, ``QrySopWsum``) is not log-linear, but
    it factors per SUBTREE: a #WSUM spine (nested #WSUM flattens
    linearly: outer weights multiply) over J log-linear subtrees gives

        score(d) = Σ_j W_j · exp( S_j(d) + corr_j(dl) )

    with ``S_j`` the subtree's matched-leaf group-sum and ``corr_j``
    its all-leaves default correction; a doc that matches no leaf of
    subtree j contributes its pure default ``W_j·exp(corr_j)``. The
    packed key carries ``(qcode·J + j)`` in the high bits, and because
    a salt is a disjoint docid range, every subtree sum for a doc is
    complete inside its salt's kernel call — the arithmetic mix and the
    exact per-query cut run there too, zero shuffle. #WSUM below a
    #AND/#WAND (log of a sum — not factorizable) still raises to the
    driver path. Rank- and score-identical to ``QueryEngine.search``."""
    from .plan import IopNode, ScoreNode, SopNode, TermNode

    reader = _index_reader(index_dir)
    parser = _parser(reader, field)
    qids = _check_unique_qids(queries)
    iop_plans: dict = {}

    def flatten(plan, coef, acc):
        if isinstance(plan, ScoreNode):
            flatten(plan.child, coef, acc)
        elif isinstance(plan, (TermNode, IopNode)):
            fld, key = _leaf_key(plan, iop_plans)
            if fld != field:
                raise ValueError(
                    f"distributed Indri scores field {field!r} only; "
                    f"leaf uses {fld!r} — use the driver path")
            acc[key] = acc.get(key, 0.0) + coef
        elif isinstance(plan, SopNode) and plan.op == "and":
            for a in plan.args:
                flatten(a, coef / len(plan.args), acc)
        elif isinstance(plan, SopNode) and plan.op == "wand":
            sw = plan.sum_weight
            for a, w in zip(plan.args, plan.weights):
                flatten(a, coef * w / sw, acc)
        else:
            raise ValueError(
                "distributed Indri supports #WSUM spines over #AND/#WAND "
                f"trees over term/positional leaves; got "
                f"#{getattr(plan, 'op', plan)}")

    def spine(plan, w, out):
        """Split the top-level #WSUM spine (nested #WSUM multiplies the
        normalized outer weight) into (W_j, log-linear subtree) pairs."""
        if isinstance(plan, ScoreNode):
            spine(plan.child, w, out)
        elif isinstance(plan, SopNode) and plan.op == "wsum":
            sw = plan.sum_weight
            for a, aw in zip(plan.args, plan.weights):
                spine(a, w * aw / sw, out)
        else:
            out.append((w, plan))

    # per qcode: [(W_j, leaf key → coefficient, divisor 1.0)]
    q_subtrees: list[list[tuple[float, dict, float]]] = []
    for qid, q in queries:
        subs: list[tuple[float, dict, float]] = []
        plan = expand_wildcards(parser.parse(q, "#and"), reader)
        if plan is not None:
            parts: list = []
            spine(plan, 1.0, parts)
            for w, sub in parts:
                acc: dict = {}
                flatten(sub, 1.0, acc)
                subs.append((w, acc, 1.0))
        q_subtrees.append(subs)
    return _indri_search(reader, qids, q_subtrees, iop_plans, field, model,
                         k)


def _indri_search(reader: IndexReader, qids: list[str], q_subtrees: list,
                  iop_plans: dict, field: str, model, k: int) -> pa.Table:
    """Plan and run ``score_salt_indri``: ``q_subtrees`` holds per qcode
    the #WSUM spine's ``[(W_j, leaf key → coefficient, divisor k_j)]``,
    ``iop_plans`` (field → key → node) the positional leaves phase A
    derives."""
    from .models import IndriModel
    model = model or IndriModel()
    all_leaves = sorted({lf for subs in q_subtrees
                         for _, acc, _ in subs for lf in acc})
    if not all_leaves:
        return _empty()
    # subtree index j packs into the key's high bits next to qcode
    n_sub = max((len(s) for s in q_subtrees), default=1) or 1
    # gq = qc·n_sub + j must stay within the 19 bits above _DOC_BITS
    if len(qids) * n_sub >= (1 << (63 - _DOC_BITS)):
        raise ValueError("query batch × #WSUM subtree count overflows "
                         "the packed key space — split the batch")
    # leaf → [(gq, coef)] routing for the partial stage
    leaf_targets: dict[str, list[tuple[int, float]]] = {}
    for qc, subs in enumerate(q_subtrees):
        for j, (_, acc, _) in enumerate(subs):
            for lf, c in acc.items():
                leaf_targets.setdefault(lf, []).append((qc * n_sub + j, c))

    key = f"t:{field}:"
    plain_terms = sorted({lf[len(key):] for lf in all_leaves
                          if lf.startswith(key)})

    # ---- phase A: derived lists + their (df, ctf), per salt ----
    derived_refs, dstats = (_derive_lists(reader, iop_plans) if iop_plans
                            else ([], {}))
    tstats = reader.term_stats(plain_terms, field)
    if not tstats and not dstats:
        return _empty()

    clen = max(reader.sum_field_lengths(field), 1)
    mle_of = {key + t: tstats.get(t, (0, 0))[1] / clen for t in plain_terms}
    mle_of.update({lf: c / clen for lf, (_, c) in dstats.items()})
    # leaves absent from the index entirely (no postings): mle = 0
    for lf in all_leaves:
        mle_of.setdefault(lf, 0.0)

    # per qcode: [(W_j, mle array, coef array, k_j)] over each subtree's
    # leaves (the default-score correction inputs)
    q_info = [[(w,
                np.array([mle_of[lf] for lf in sorted(acc)], dtype=np.float64),
                np.array([acc[lf] for lf in sorted(acc)], dtype=np.float64),
                kq)
               for w, acc, kq in subs]
              for subs in q_subtrees]

    # ---- phase B: one task per salt range (_run_salt_tasks), one
    # kernel call per salt: the salt's derived rows come whole from the
    # object store, plain-term postings for its docid range are read
    # LOCALLY, the matched log-partials are summed by the dense
    # group-sum, and the #WSUM default-score mix + exact per-query cut
    # run inside the task.
    spec = _spec(reader, k, field=field, mu=model.mu, lam=model.lambda_,
                 n_sub=n_sub, derived=derived_refs,
                 plain={field: plain_terms} if tstats else {},
                 batch=ray.put(dict(lt=leaf_targets, mle=mle_of,
                                    qinfo=q_info)))
    return _emit_ranked(_run_salt_tasks(score_salt_indri, spec, reader),
                        qids, k, reader)
