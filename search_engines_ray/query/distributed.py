"""Distributed batch query evaluation over the Parquet index with plain
Ray tasks.

The driver-side ``QueryEngine`` fetches a handful of posting lists per
query — right for interactive use. This module is the *batch* path: score
a whole query set against a huge index as one ZERO-SHUFFLE Ray job:

  one task per salt (= contiguous docid range; every term's postings
  for that range live in one parquet row, so the task's local
  bucket/row-group-pruned scan holds the COMPLETE inputs for its docs)
    → vectorized leaf math per posting row, dense per-salt group-sum on
      packed int64 keys ``qcode << 44 | docid`` (never string keys)
    → exact per-salt top-k cut (salt ranges are disjoint)
    → driver merge of the tiny candidate tables: attach external ids,
      exact (score desc, external_id asc) top-k per qid.

Execution: each entry point plans on the driver, then ``_run_salt_tasks``
submits one task per salt of a module-level ``@ray.remote`` kernel
``(spec, salt) -> pa.Table`` and gathers the partial tables. ``spec`` is
plain data (index dir, build token, docid-range layout, model
parameters, k) plus ObjectRefs to the batch-sized maps, so Ray exports
each kernel once per session and a batch ships no code. The kernels
share one body: ``_scan`` (bucket-, term-, field- and salt-pruned read
plus varbyte decode), a leaf formula, ``_route`` to the queries and
``_cut`` (dense group-sum, exact per-salt top-k, packed keys). Leaf
formulas come from ``kernels``, the same functions the driver engine
scores with.

Tombstones (``merge.delete_docs``) ride in the spec as a sorted docid
array (``dels``, absent when there are none); ``_cut`` drops them after
the group-sum and before the per-salt top-k, so a deleted document
never takes a top-k slot. Corpus statistics (df, doclens, avglen) stay
as-built until compaction, as on every other search path.

Scale notes: doclens are docid-range-sharded (``_doclens``): workers load
only the pid ranges their posting runs touch — no O(n_docs) broadcast
anywhere. Worker state (doclen shards, the postings dataset handle, an
index reader) sits in ``util``'s process cache behind a real import,
keyed by the build token, so it outlives a task and a rebuilt index
never serves stale entries. External ids are fetched for the final
candidate set via a filtered forward scan. The packed key leaves 44 bits
for docids and 19 for queries per batch.

Entry points: ``bm25_batch_search`` (bag-of-words #SUM; BM25 or classic
TF-IDF), ``bm25_msm_batch_search``, ``bm25_grid_search``,
``bm25_champion_search``, ``bm25f_batch_search``,
``bm25_structured_batch_search`` (#SUM over term + positional leaves,
multi-field — each field scores with its own df/doclen/avglen),
``indri_batch_search`` (bag-of-words #AND in log space) and
``indri_structured_batch_search`` (#WSUM spines over #AND/#WAND trees —
log-linear subtrees mixed arithmetically in the final stage).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray

from ..analysis.tokenizer import analyzer_for_mode
from ..index.build import POSTINGS_DIR, term_bucket
from ..index.reader import IndexReader
from ..index.varbyte import decode_postings
from .eval import expand_wildcards
from .kernels import bm25, bm25_idf, dirichlet, tfidf
from .models import BM25Model
from .trec import drop_deleted

_DOC_BITS = 44
_DOC_MASK = (1 << _DOC_BITS) - 1

# per-worker cache bounds: doclen shards (pid ranges) held resident, and
# index builds (reader + postings handle) a long-lived worker keeps open
_MAX_SHARDS = 128
_MAX_INDEXES = 8


# ------------------------------------------------------- worker state

def _index_reader(index_dir: str, token: float) -> IndexReader:
    """The process's reader for one index build; its forward-table
    handle serves every doclen shard load."""
    from ..util import proc_cached
    return proc_cached(("index_reader", index_dir, token),
                       lambda: IndexReader(index_dir), cap=_MAX_INDEXES)


def _postings_dataset(index_dir: str, token: float):
    """One hive-partitioned handle on every postings file per index build
    and process; scans prune buckets with a ``bucket`` partition filter,
    so every bucket set shares it. Files are listed in bucket order, the
    order the per-bucket reads used, so row order (and float summation
    order) is unchanged."""
    from ..util import proc_cached
    return proc_cached(
        ("postings_dset", index_dir, token),
        lambda: pads.dataset(
            _index_reader(index_dir, token)._bucket_paths(),
            format="parquet", partitioning="hive",
            partition_base_dir=os.path.join(index_dir, POSTINGS_DIR)),
        cap=_MAX_INDEXES)


def _doclen_shard(index_dir: str, field: str, pid: int,
                  token: float) -> np.ndarray:
    """Dense lengths of one pid's docid range, cached per process: Ray
    reuses worker processes, so a shard loaded for one batch serves every
    later batch on that worker. ``token`` = build identity (stats.json
    mtime): a rebuilt index at the same path misses instead of serving a
    surviving worker's stale shard."""
    from ..util import proc_cached
    return proc_cached(
        ("doclen_shard", index_dir, field, pid, token),
        lambda: _index_reader(index_dir, token).doclen_shard(field, pid),
        cap=_MAX_SHARDS)


def _doclens(spec: dict, field: str, docids: np.ndarray) -> np.ndarray:
    """Lengths of ``docids`` from docid-range shards: a posting run's
    docids map to a handful of contiguous pid ranges (the build's salt
    layout keeps runs docid-range-local), so each worker touches few
    shards. Replaces a dense ``ray.put(doclens)`` broadcast, which is
    O(n_docs) memory per node — 4 TB at the 10^12-doc design point."""
    off = spec["pid_offsets"]
    out = np.empty(docids.size, dtype=np.int32)
    pids = np.searchsorted(off, docids, side="right") - 1
    for p in np.unique(pids):
        m = pids == p
        shard = _doclen_shard(spec["index_dir"], field, int(p), spec["token"])
        out[m] = shard[docids[m] - off[p]]
    return out


def _rows(num_buckets: int, terms: list[str], fields: list[str]):
    """Postings filter for ``terms`` × ``fields``; the partition term
    skips every bucket the terms do not hash to before any read."""
    buckets = sorted({term_bucket(t, num_buckets) for t in terms})
    return (pc.field("bucket").isin(buckets) & pc.field("term").isin(terms)
            & pc.field("field").isin(fields))


def _scan(spec: dict, salt: int, terms: list[str], fields: list[str],
          positions: bool = False):
    """Decoded ``(term, field, docids, tfs, positions)`` runs of ``terms``
    × ``fields`` inside one salt, in file order (term/field/salt filters
    hit parquet row-group stats). ``positions`` is None unless asked for."""
    cols = ["term", "field", "docid_blob", "tf_blob"]
    if positions:
        cols.append("pos_blob")
    t = _postings_dataset(spec["index_dir"], spec["token"]).to_table(
        columns=cols,
        filter=(_rows(spec["num_buckets"], terms, fields)
                & (pc.field("salt") == salt)))
    pos = t["pos_blob"].to_pylist() if positions else [None] * t.num_rows
    for term, fld, db, tb, pb in zip(t["term"].to_pylist(),
                                     t["field"].to_pylist(),
                                     t["docid_blob"].to_pylist(),
                                     t["tf_blob"].to_pylist(), pos):
        yield (term, fld) + decode_postings(db, tb, pb)


# ------------------------------------------------------ salt kernels

# dense-accumulate cap for _group_sum_entries: nq_present × docid-span
# cells per salt task; two float64 arrays at the cap ≈ 512 MB, inside a
# worker's heap. Past it (very wide docid ranges × many queries) the
# sort-based fallback runs in O(n log n) of the posting count instead.
_DENSE_CAP = 1 << 25


def _group_sum_entries(entries, need_zero_candidates: bool = False):
    """Sum per-(query, docid) contributions inside ONE salt task.

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


def _topk_cut_sorted(qc: np.ndarray, sums: np.ndarray, k: int) -> np.ndarray:
    """Exact per-query top-k keep mask over one salt's disjoint docid
    range; ties at the kth score are kept (the global cut in
    ``_emit_ranked`` resolves them by external id)."""
    keep = np.ones(qc.size, np.bool_)
    for lo, hi in _query_slices(qc):
        if hi - lo > k:
            sq = sums[lo:hi]
            kth = np.partition(sq, -k)[-k]
            keep[lo:hi] = sq >= kth
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
    each query to its exact top ``spec["k"]`` and pack the keys."""
    qc, docid, sums = _group_sum_entries(entries, need_zero_candidates)
    if qc.size and finish is not None:
        qc, docid, sums = finish(qc, docid, sums)
    docid, qc, sums = drop_deleted(spec.get("dels"), docid, qc, sums)
    if not qc.size:
        return _partial_empty()
    keep = _topk_cut_sorted(qc, sums, spec["k"])
    return pa.table({"gkey": pa.array((qc[keep] << _DOC_BITS) | docid[keep]),
                     "score": pa.array(sums[keep])})


@ray.remote
def score_salt_bm25(spec: dict, salt: int) -> pa.Table:
    """Bag-of-words #SUM over one salt — the kernel of
    ``bm25_batch_search``, ``bm25_grid_search``, ``bm25_msm_batch_search``
    and ``bm25_champion_search``'s phase B. BM25 per ``(k1, b)`` in
    ``grid`` (grid point g scores query slot ``g·nq + qcode``), Lucene
    classic TF-IDF when ``classic``. Batch maps: ``tq`` (term →
    [(qcode, mult)]), ``df``, optional ``allowed`` (sorted candidate
    docids the postings are masked to) and ``nreq`` (per-qcode clause
    minimum: a second group-sum of clause indicators over the same keys
    filters before the cut; docs live in one salt, so local counts are
    complete)."""
    bt = ray.get(spec["batch"])
    tq, dfs = bt["tq"], bt["df"]
    allowed, nreq = bt.get("allowed"), bt.get("nreq")
    field, N, avglen = spec["field"], spec["N"], spec["avglen"]
    entries, counts = [], []
    need_zero = nreq is not None
    for term, _, docids, tfs, _ in _scan(spec, salt, spec["terms"], [field]):
        if allowed is not None:
            pos = np.minimum(np.searchsorted(allowed, docids),
                             allowed.size - 1)
            keep = allowed[pos] == docids
            docids, tfs = docids[keep], tfs[keep]
            if docids.size == 0:
                continue
        df = dfs[term]
        dl = _doclens(spec, field, docids).astype(np.float64)
        tf = tfs.astype(np.float64)
        if spec["classic"]:
            scores = [tfidf(N, df, tf, dl)]
        else:
            idf = bm25_idf(N, df)
            need_zero |= idf == 0.0
            scores = [bm25(idf, tf, dl, k1, b, avglen)
                      for k1, b in spec["grid"]]
        for g, sc in enumerate(scores):
            _route(entries, tq[term], docids, sc, g * spec["nq"])
        if nreq is not None:
            _route(counts, tq[term], docids, np.ones(docids.size, np.float64))

    def min_match(qc, docid, sums):
        cnts = _group_sum_entries(counts, need_zero_candidates=True)[2]
        ok = cnts >= nreq[qc]
        return qc[ok], docid[ok], sums[ok]

    return _cut(spec, entries, need_zero,
                min_match if nreq is not None else None)


@ray.remote
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


@ray.remote
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


@ray.remote
def score_salt_bm25f(spec: dict, salt: int) -> pa.Table:
    """BM25F phase B: pool ``w_f·tf/B_f`` across fields per doc, then
    saturate once with the union-df idf."""
    bt = ray.get(spec["batch"])
    tq, gdf = bt["tq"], bt["df"]
    contribs: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for term, fld, docids, tfs, _ in _scan(spec, salt, spec["terms"],
                                           spec["fields"]):
        dl = _doclens(spec, fld, docids).astype(np.float64)
        bf = spec["b"][fld]
        B = (1.0 - bf) + bf * dl / spec["avglen"][fld]
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
        _route(entries, tq[term], docids, idf * tft / (spec["k1"] + tft))
    return _cut(spec, entries, need_zero)


@ray.remote
def score_salt_indri(spec: dict, salt: int) -> pa.Table:
    """Bag-of-words Indri #AND in log space: matched partials
    ``m_t·(log s_t(tf,dl) − log s_t(0,dl))`` group-summed, then the
    per-candidate all-terms default correction and the geometric mean.
    Matched partials are strictly > 0 (s is monotone in tf), so the dense
    group-sum's nonzero set IS the match-min candidate set."""
    bt = ray.get(spec["batch"])
    tq, mle, qinfo = bt["tq"], bt["mle"], bt["qinfo"]
    field, mu, lam = spec["field"], spec["mu"], spec["lam"]
    entries = []
    with np.errstate(divide="ignore"):
        for term, _, docids, tfs, _ in _scan(spec, salt, spec["terms"],
                                             [field]):
            dl = _doclens(spec, field, docids).astype(np.float64)
            m = mle[term]
            part = (np.log(dirichlet(tfs.astype(np.float64), dl, m, mu, lam))
                    - np.log(dirichlet(0.0, dl, m, mu, lam)))
            _route(entries, tq[term], docids, part)

    def geometric_mean(qc, docid, agg):
        dl = _doclens(spec, field, docid).astype(np.float64)
        final = np.empty(qc.size, dtype=np.float64)
        with np.errstate(divide="ignore"):
            for lo, hi in _query_slices(qc):
                mles, mults, kq = qinfo[int(qc[lo])]
                corr = np.zeros(hi - lo, dtype=np.float64)
                for mlv, mv in zip(mles, mults):
                    corr += mv * np.log(dirichlet(0.0, dl[lo:hi], mlv,
                                                  mu, lam))
                final[lo:hi] = np.exp((agg[lo:hi] + corr) / kq)
        return qc, docid, final

    return _cut(spec, entries, finish=geometric_mean)


def _derived_rows(spec: dict, salt: int):
    """``(leaf, field, docids, tfs)`` of the salt's derived positional
    lists (phase A output, fetched whole from the object store)."""
    if not spec["derived"]:
        return
    t = ray.get(spec["derived"][salt])
    for lf, fld, db, tb in zip(t["leaf"].to_pylist(), t["field"].to_pylist(),
                               t["docid_blob"].to_pylist(),
                               t["tf_blob"].to_pylist()):
        d, tf, _ = decode_postings(db, tb, None)
        yield lf, fld, d, tf


@ray.remote
def score_salt_structured(spec: dict, salt: int) -> pa.Table:
    """Structured BM25 #SUM over one salt: the salt's derived positional
    runs plus its plain-term postings per field, each scored with its
    field's own df/doclen/avglen."""
    bt = ray.get(spec["batch"])
    il, ddf, tl, ts = bt["il"], bt["ddf"], bt["tl"], bt["ts"]
    N, k1, b = spec["N"], spec["k1"], spec["b"]

    def leaf(fld, df, docids, tfs):
        dl = _doclens(spec, fld, docids).astype(np.float64)
        return bm25(bm25_idf(N, df), tfs.astype(np.float64), dl, k1, b,
                    spec["avglen"][fld])

    entries = []
    for lf, fld, d, tf in _derived_rows(spec, salt):
        _route(entries, il[lf], d, leaf(fld, ddf[lf], d, tf))
    for fld, plain in sorted(spec["plain"].items()):
        for trm, _, d, tf, _ in _scan(spec, salt, plain, [fld]):
            _route(entries, tl[f"t:{fld}:{trm}"], d,
                   leaf(fld, ts[fld].get(trm, 0), d, tf))
    return _cut(spec, entries, spec["any_zero_idf"])


@ray.remote
def score_salt_indri_structured(spec: dict, salt: int) -> pa.Table:
    """Structured Indri over one salt: matched log-partials of derived
    and plain leaves group-summed per (query, #WSUM subtree), then the
    per-candidate default correction and the #WSUM arithmetic mix."""
    bt = ray.get(spec["batch"])
    lt, mles, qinfo = bt["lt"], bt["mle"], bt["qinfo"]
    field, mu, lam, n_sub = spec["field"], spec["mu"], spec["lam"], \
        spec["n_sub"]
    entries = []

    def add(lf, docids, tfs):
        if docids.size == 0:
            return
        dl = _doclens(spec, field, docids).astype(np.float64)
        m = mles[lf]
        part = (np.log(dirichlet(tfs.astype(np.float64), dl, m, mu, lam))
                - np.log(dirichlet(0.0, dl, m, mu, lam)))
        _route(entries, lt[lf], docids, part)

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
                # candidate — final = exp(S + corr)
                cand = docid[lo:hi]
                dlq = _doclens(spec, field, cand).astype(np.float64)
                final = np.exp(agg[lo:hi] + default_corr(dlq, *subs[0][1:]))
            else:
                # #WSUM spine: candidates = docs with ≥1 subtree row;
                # start from the all-defaults baseline Σ_j W_j·exp(corr_j),
                # then swap in exp(S_j + corr_j) for each matched row
                cand, cidx = np.unique(docid[lo:hi], return_inverse=True)
                dlq = _doclens(spec, field, cand).astype(np.float64)
                final = np.zeros(cand.size, dtype=np.float64)
                aggq, jq = agg[lo:hi], j_a[lo:hi]
                for j, (w, mlv_arr, coefs) in enumerate(subs):
                    corr = default_corr(dlq, mlv_arr, coefs)
                    base = w * np.exp(corr)
                    final += base
                    rmsk = jq == j
                    ridx = cidx[rmsk]
                    final[ridx] += (w * np.exp(aggq[rmsk] + corr[ridx])
                                    - base[ridx])
            out_q.append(np.full(cand.size, qc_a[lo], np.int64))
            out_d.append(cand)
            out_s.append(final)
        return (np.concatenate(out_q), np.concatenate(out_d),
                np.concatenate(out_s))

    with np.errstate(divide="ignore", invalid="ignore"):
        for lf, _, d, tf in _derived_rows(spec, salt):
            add(lf, d, tf)
        if spec["terms"]:
            for trm, _, d, tf, _ in _scan(spec, salt, spec["terms"], [field]):
                add("t:" + trm, d, tf)
        return _cut(spec, entries, finish=wsum_mix)


def _plan_data(node, terms: set) -> tuple:
    """An Iop subtree as nested plain tuples — ``(term, field)`` leaves,
    ``(op, dist, args)`` operators — collecting its terms."""
    from .plan import TermNode
    if isinstance(node, TermNode):
        terms.add(node.term)
        return (node.term, node.field)
    return (node.op, node.dist, tuple(_plan_data(a, terms) for a in node.args))


def _plan_node(data: tuple):
    """Inverse of ``_plan_data``, built from this process's own import of
    ``query.plan`` — the classes ``eval_iop_tree`` checks against."""
    from .plan import IopNode, TermNode
    if len(data) == 2:
        return TermNode(*data)
    op, dist, args = data
    return IopNode(op, [_plan_node(a) for a in args], dist)


@ray.remote(num_returns=2)
def derive_salt(spec: dict, salt: int):
    """→ (stats_table, derived_table) for ONE salt: the tiny (leaf, df,
    ctf) side the driver sums for global stats, and the blob side (leaf,
    field, docid_blob, tf_blob) that stays in the object store until the
    matching phase-B salt task fetches it."""
    from ..index.varbyte import encode_postings
    from .eval import InvList, eval_iop_tree
    rows = {c: [] for c in ("leaf", "field", "df", "ctf",
                            "docid_blob", "tf_blob")}
    for fld, items in spec["plans"]:
        cache = {}
        for trm, _, d, tf, p in _scan(spec, salt, spec["terms"][fld], [fld],
                                      positions=True):
            cache[(trm, fld)] = InvList(
                d, tf, p if p is not None else np.empty(0, np.int32),
                int(d.size), int(tf.sum()), fld)
        for key, data in items:
            inv = eval_iop_tree(_plan_node(data), cache)
            if inv.df == 0:
                continue
            db2, tb2, _ = encode_postings(
                inv.docids, inv.tfs, np.empty(0, np.int64))
            rows["leaf"].append(key)
            rows["field"].append(fld)
            rows["df"].append(int(inv.df))
            rows["ctf"].append(int(inv.ctf))
            rows["docid_blob"].append(db2)
            rows["tf_blob"].append(tb2)
    stats_tbl = pa.table({
        "leaf": pa.array(rows["leaf"], pa.string()),
        "df": pa.array(rows["df"], pa.int64()),
        "ctf": pa.array(rows["ctf"], pa.int64())})
    derived_tbl = pa.table({
        "leaf": pa.array(rows["leaf"], pa.string()),
        "field": pa.array(rows["field"], pa.string()),
        "docid_blob": pa.array(rows["docid_blob"], pa.binary()),
        "tf_blob": pa.array(rows["tf_blob"], pa.binary())})
    return stats_tbl, derived_tbl


# -------------------------------------------------------------- driver

def _n_salts(reader: IndexReader) -> int:
    return int(reader.stats.get("merge_salts", 4))


def _spec(reader: IndexReader, k: int, **kw) -> dict:
    """Plain-data task spec every kernel reads: where the index is, which
    build (``token`` keys the worker caches), its docid-range layout and
    its sorted tombstones (``dels``, absent when there are none)."""
    spec = dict(index_dir=reader.index_dir, token=reader.stats_token,
                num_buckets=reader.num_buckets,
                pid_offsets=reader.pid_offsets, N=reader.n_docs, k=k, **kw)
    dels = reader.deleted_docids()
    if dels.size:
        spec["dels"] = dels
    return spec


def _run_salt_tasks(kernel, spec: dict, reader: IndexReader) -> pa.Table:
    """One stateless task per salt (docid range); the tiny partial tables
    (≤ salts × queries × k rows for the scoring kernels) concat on the
    driver."""
    tables = ray.get([kernel.remote(spec, s) for s in range(_n_salts(reader))])
    full = [t for t in tables if t.num_rows]
    return pa.concat_tables(full) if full else tables[0]


def _emit_ranked(cands: pa.Table, qids: list[str], k: int,
                 reader: IndexReader) -> pa.Table:
    """Unpack packed keys, attach external ids (filtered forward scan),
    apply the reference ordering (score desc, externalId asc) per qid."""
    if cands.num_rows == 0:
        return _empty()
    gk = cands["gkey"].to_numpy()
    sc = cands["score"].to_numpy()
    qc = (gk >> _DOC_BITS).astype(np.int64)
    docid = (gk & _DOC_MASK).astype(np.int64)
    eids = reader.external_ids_for(docid)
    out_qid, out_eid, out_rank, out_score = [], [], [], []
    for q in range(len(qids)):
        m = qc == q
        if not m.any():
            continue
        order = np.lexsort((eids[m], -sc[m]))[:k]
        out_qid.extend([qids[q]] * order.size)
        out_eid.extend(eids[m][order].tolist())
        out_rank.extend(range(1, order.size + 1))
        out_score.extend(sc[m][order].tolist())
    return pa.table({
        "qid": pa.array(out_qid, pa.string()),
        "external_id": pa.array(out_eid, pa.string()),
        "rank": pa.array(np.asarray(out_rank, dtype=np.int32)),
        "score": pa.array(out_score, pa.float64()),
    })


def _term_queries(reader: IndexReader, queries: list[tuple]):
    """Analyze a bag-of-words batch ``[(qid, text, ...)]`` →
    ``(qids, term → [(qcode, multiplicity)], analyzed terms per qcode)``.
    A repeated query term scores per occurrence, as #SUM over duplicate
    args does."""
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    qids = _check_unique_qids(queries)
    term_queries: dict[str, list[tuple[int, int]]] = {}
    q_terms: list[list[str]] = []
    for qc, q in enumerate(queries):
        terms = [t for tok in q[1].split() for t in an.analyze_query_token(tok)]
        q_terms.append(terms)
        for t in set(terms):
            term_queries.setdefault(t, []).append((qc, terms.count(t)))
    return qids, term_queries, q_terms


def _global_term_stats(reader: IndexReader, terms: list[str],
                       field: str) -> dict[str, tuple[int, int]]:
    """Global (df, ctf) per term = sums over salt runs — a metadata-only
    parquet scan (no blob decode)."""
    if not terms or not reader._bucket_paths(terms):
        return {}
    t = _postings_dataset(reader.index_dir, reader.stats_token).to_table(
        columns=["term", "df", "ctf"],
        filter=_rows(reader.num_buckets, list(terms), [field]))
    out: dict[str, tuple[int, int]] = {}
    for term, df, ctf in zip(t["term"].to_pylist(), t["df"].to_pylist(),
                             t["ctf"].to_pylist()):
        d0, c0 = out.get(term, (0, 0))
        out[term] = (d0 + df, c0 + ctf)
    return out


def _global_dfs(reader: IndexReader, terms: list[str],
                field: str) -> dict[str, int]:
    return {t: df for t, (df, _) in
            _global_term_stats(reader, terms, field).items()}


def _bm25_spec(reader: IndexReader, term_queries: dict, field: str, k: int,
               nq: int, grid, classic: bool = False, **batch) -> dict:
    terms = sorted(term_queries)
    return _spec(reader, k, field=field, terms=terms,
                 avglen=reader.avg_len(field), grid=list(grid),
                 classic=classic, nq=nq,
                 batch=ray.put(dict(tq=term_queries,
                                    df=_global_dfs(reader, terms, field),
                                    **batch)))


def bm25_batch_search(index_dir: str, queries: list[tuple[str, str]],
                      model=None, k: int = 100,
                      field: str = "body") -> pa.Table:
    """Score a bag-of-words query batch — BM25 by default, or Lucene
    ClassicSimilarity when ``model`` is a ``TFIDFModel`` (same per-salt
    zero-shuffle plumbing, different per-term kernel; classic idf is
    strictly positive so the zero-idf candidate path never triggers);
    → (qid, external_id, rank, score), reference ordering per qid.

    Salt is the SAME contiguous docid range for every term (build.py
    salt_of_pid), so one task per salt holds the complete postings of
    every query term for its range — (query, doc) scores are FINAL
    inside the task and the per-query top-k cut is exact. Parallelism =
    merge_salts, which steps with corpus size."""
    from .models import TFIDFModel
    model = model or BM25Model()
    classic = isinstance(model, TFIDFModel)
    reader = IndexReader(index_dir)
    qids, term_queries, _ = _term_queries(reader, queries)
    if not term_queries or not reader._bucket_paths(list(term_queries)):
        return _empty()
    spec = _bm25_spec(reader, term_queries, field, k, len(qids),
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
    reader = IndexReader(index_dir)
    qids, term_queries, q_terms = _term_queries(reader, queries)
    n_req = np.asarray([max(1, min(int(q[2]), len(ts))) if ts else 1
                        for q, ts in zip(queries, q_terms)], np.int64)
    if not term_queries or not reader._bucket_paths(list(term_queries)):
        return _empty()
    spec = _bm25_spec(reader, term_queries, field, k, len(qids),
                      [(model.k1, model.b)], nreq=n_req)
    return _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                        qids, k, reader)


def bm25f_batch_search(index_dir: str, queries: list[tuple[str, str]],
                       weights: dict[str, float],
                       field_b: dict[str, float] | float = 0.75,
                       k1: float = 1.2, k: int = 100) -> pa.Table:
    """Distributed BM25F (query/bm25f.py math at batch scale): → (qid,
    external_id, rank, score), reference ordering per qid.

    Same zero-shuffle per-salt factorization as ``bm25_batch_search``,
    with one extra wrinkle: BM25F's idf uses the UNION document
    frequency (docs holding the term in ANY scored field), which no
    per-field metadata sum can produce — so phase A runs one tiny task
    per salt counting ``|∪_f docids(t, f, salt)|`` per term (salt
    ranges are disjoint, so the global union df is the plain sum) and
    phase B re-scans the same row-group-pruned postings (page-cache
    warm from A) to pool ``w_f·tf/B_f`` across fields per doc and
    score. Only (term, count) rows and the final per-salt top-k
    candidates ever reach the driver."""
    reader = IndexReader(index_dir)
    fields = sorted(weights)
    if not isinstance(field_b, dict):
        field_b = {f: float(field_b) for f in fields}
    qids, term_queries, _ = _term_queries(reader, queries)
    terms = sorted(term_queries)
    if not terms or not reader._bucket_paths(terms):
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
    parameter tuning re-reads nothing — each salt task decodes every
    query term's (docids, tf) run once, then every grid point re-weights
    the SAME arrays (idf and doclen are parameter-independent), so the
    sweep costs one batch search plus G cheap vectorized re-weightings
    instead of G full scans. Slots pack (grid × query) into the existing
    ``gkey = slot<<44 | docid`` keys; the per-slot top-k cut stays exact
    (disjoint salt docid ranges). → (k1, b, qid, external_id, rank,
    score), reference ordering per (grid point, qid)."""
    reader = IndexReader(index_dir)
    qids, term_queries, _ = _term_queries(reader, queries)
    empty = pa.table({"k1": pa.array([], pa.float64()),
                      "b": pa.array([], pa.float64()),
                      "qid": pa.array([], pa.string()),
                      "external_id": pa.array([], pa.string()),
                      "rank": pa.array([], pa.int32()),
                      "score": pa.array([], pa.float64())})
    if (not term_queries or not grid
            or not reader._bucket_paths(list(term_queries))):
        return empty
    grid_t = [(float(g[0]), float(g[1])) for g in grid]
    spec = _bm25_spec(reader, term_queries, field, k, len(qids), grid_t)
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
    generation step is approximate. Two salt-task rounds: phase A
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
    reader = IndexReader(index_dir)
    qids, term_queries, _ = _term_queries(reader, queries)
    terms_list = sorted(term_queries)
    if not terms_list or not reader._bucket_paths(terms_list):
        return _empty()

    # ---- phase A: per-salt local champions (tf desc, docid asc) ----
    locs = _run_salt_tasks(
        champions_salt, _spec(reader, k, field=field, terms=terms_list, m=m),
        reader)
    cands: list[np.ndarray] = []
    lt = locs["term"].to_pylist()
    ld = locs["docid"].to_numpy()
    lf = locs["tf"].to_numpy()
    for term in terms_list:
        mask = np.asarray([x == term for x in lt], bool)
        d, f = ld[mask], lf[mask]
        if d.size > m:
            sel = np.lexsort((d, -f))[:m]
            d = d[sel]
        cands.append(d)
    cand_set = np.unique(np.concatenate(cands))
    if cand_set.size == 0:
        return _empty()

    # ---- phase B: exact scoring of the candidate set ----
    spec = _bm25_spec(reader, term_queries, field, k, len(qids),
                      [(model.k1, model.b)], allowed=cand_set)
    return _emit_ranked(_run_salt_tasks(score_salt_bm25, spec, reader),
                        qids, k, reader)


def indri_batch_search(index_dir: str, queries: list[tuple[str, str]],
                       model=None, k: int = 100,
                       field: str = "body") -> pa.Table:
    """Distributed Indri query-likelihood (Dirichlet + Jelinek-Mercer mix,
    ``QrySopScore.java:140-161``) for bag-of-words ``#AND`` batches.

    Indri's geometric mean needs a *default score* for every query term a
    candidate doc lacks (``QrySopAnd.java:97-107``) — naively an outer
    join. In log space it factors into a groupby-sum:

        log score(d) = (1/k_q) · [ Σ_matched m_t·(log s_t(tf,dl) − log s_t(0,dl))
                                   + Σ_all-terms m_t·log s_t(0,dl) ]

    The first sum is a per-posting partial summed by the per-salt dense
    group-sum; the second depends only on (query, doclen), so the same
    salt task computes it per candidate from the sharded doclens before
    the exact per-query cut. Candidates are exactly the match-min set
    (docs with ≥1 matched term), as in the reference's DAAT loop."""
    from .models import IndriModel
    model = model or IndriModel()
    reader = IndexReader(index_dir)
    qids, term_queries, q_terms = _term_queries(reader, queries)
    if not term_queries or not reader._bucket_paths(list(term_queries)):
        return _empty()

    terms = sorted(term_queries)
    stats = _global_term_stats(reader, terms, field)
    clen = max(reader.sum_field_lengths(field), 1)
    mle = {t: stats.get(t, (0, 0))[1] / clen for t in term_queries}
    # per qcode: (mle array, mult array, k_q = total arg count)
    q_info = []
    for ts in q_terms:
        uniq = sorted(set(ts))
        q_info.append((np.array([mle[t] for t in uniq], dtype=np.float64),
                       np.array([ts.count(t) for t in uniq], dtype=np.float64),
                       float(len(ts))))
    spec = _spec(reader, k, field=field, terms=terms, mu=model.mu,
                 lam=model.lambda_,
                 batch=ray.put(dict(tq=term_queries, mle=mle, qinfo=q_info)))
    return _emit_ranked(_run_salt_tasks(score_salt_indri, spec, reader),
                        qids, k, reader)


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

def _derive_lists(reader: IndexReader, iop_plans_by_field: dict):
    """Phase A of the distributed structured paths: evaluate every Iop
    subtree (#NEAR/#WINDOW/#SYN/#FIRST) per salt and return
    ``([ObjectRef[pa.Table] per salt], {leaf: (df, ctf)})``.

    Partitioning contract: salt = contiguous docid range, one postings
    row per (term, salt), so ONE ``derive_salt`` TASK PER SALT holds ALL
    argument terms' postings for its docid range and runs the driver's
    positional kernels (``eval_iop_tree``: two-pointer #NEAR, min/max-head
    #WINDOW, #SYN union) unchanged. ZERO shuffle. A derived list's GLOBAL
    df/ctf (what the reference scores with, ``QryIop.java:139-151``) is
    the sum over its salt runs — the small (leaf, df, ctf) side is the
    only part that reaches the driver. Each salt's derived rows stay in
    the object store as ONE table (``num_returns=2``) that the phase-B
    task for that salt fetches whole, so every salt is scored exactly
    once.

    Plans travel as plain nested tuples (``_plan_data``) and are rebuilt
    inside the task (``_plan_node``) from the worker's own import of
    ``query.plan``: this package pickles by value, so a plan object
    shipped as an argument would carry its own copy of the node classes
    and fail ``eval_iop_tree``'s ``isinstance`` checks."""
    terms_by_field: dict[str, list[str]] = {}
    plans = []
    for fld, by_key in sorted(iop_plans_by_field.items()):
        if not by_key:
            continue
        acc: set[str] = set()
        plans.append((fld, [(key, _plan_data(p, acc))
                            for key, p in sorted(by_key.items())]))
        terms_by_field[fld] = sorted(acc)
    all_terms = sorted({t for ts in terms_by_field.values() for t in ts})
    if not all_terms or not reader._bucket_paths(all_terms):
        return [], {}
    spec = _spec(reader, 0, plans=plans, terms=terms_by_field)
    pairs = [derive_salt.remote(spec, s) for s in range(_n_salts(reader))]
    stats: dict[str, tuple[int, int]] = {}
    for st in ray.get([p[0] for p in pairs]):
        for lf, dfv, ctfv in zip(st["leaf"].to_pylist(),
                                 st["df"].to_pylist(),
                                 st["ctf"].to_pylist()):
            d0, c0 = stats.get(lf, (0, 0))
            stats[lf] = (d0 + dfv, c0 + ctfv)
    return [p[1] for p in pairs], stats


def bm25_structured_batch_search(index_dir: str,
                                 queries: list[tuple[str, str]],
                                 model: BM25Model | None = None,
                                 k: int = 100,
                                 field: str = "body") -> pa.Table:
    """Distributed structured BM25: ``#SUM`` over TERM and positional
    (``#NEAR/n`` / ``#WINDOW/n`` / ``#SYN``) leaves — the reference's
    BoW + SDM-shaped query set (``queries2.txt``), batch-scored in two
    rounds of one task per salt.

    Partitioning contract: a positional operator is docid-local, and the
    index stores each term's postings as ONE row per salt where salt =
    contiguous docid range (build.py step 5). ONE TASK PER SALT
    (phase A, ``_derive_lists``) therefore holds, for its docid range,
    ALL argument terms' postings — it runs the driver's own Iop kernels
    (``eval_iop_tree``) unchanged, emitting one derived-postings table
    per salt into the object store. Phase parallelism equals
    ``merge_salts``, which auto-sizes with the corpus (build.py
    ``docs_per_salt``; at cluster scale salts number in the thousands).
    A derived list's df/ctf (what the reference scores with,
    ``QryIop.java:139-151``) is the SUM over its salt runs — a tiny
    driver-side aggregation between the phases.

    Phase B is one task per salt again (``_run_salt_tasks``): it
    fetches the salt's derived table whole, reads the salt's plain-term
    postings locally (column/row-group-pruned scan), and finishes the
    (query, doc) #SUM with an exact per-salt top-k cut — zero shuffle
    end to end. Rank- and score-identical to ``QueryEngine.search``
    per query (tests/test_query_engine.py).
    """
    from .parser import QueryParser
    from .plan import IopNode, ScoreNode, SopNode, TermNode

    model = model or BM25Model()
    reader = IndexReader(index_dir)
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    parser = QueryParser(an, default_field=field)

    qids = _check_unique_qids(queries)
    qcode = {qid: i for i, qid in enumerate(qids)}

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
    term_leaves: dict[str, list[tuple[int, int]]] = {}
    iop_plans_by_field: dict[str, dict[str, "IopNode"]] = {}
    iop_leaves: dict[str, list[tuple[int, int]]] = {}
    for qid, q in queries:
        # same plan-time wildcard/fuzzy/regexp -> #SYN rewrite as the
        # driver engine, so wildcards mean the same thing on this path
        plan = expand_wildcards(parser.parse(q, "#sum"), reader)
        counts: dict[str, int] = {}
        for leaf in leaves_of(plan):
            if isinstance(leaf, TermNode):
                key = f"t:{leaf.field}:{leaf.term}"
            else:
                fld = leaf.field_name
                key = f"i:{fld}:{leaf!r}"
                iop_plans_by_field.setdefault(fld, {})[key] = leaf
            counts[key] = counts.get(key, 0) + 1
        for key, m in counts.items():
            dst = term_leaves if key.startswith("t:") else iop_leaves
            dst.setdefault(key, []).append((qcode[qid], m))
    # field → its plain terms
    terms_by_field: dict[str, list[str]] = {}
    for key in term_leaves:
        _, fld, trm = key.split(":", 2)
        terms_by_field.setdefault(fld, []).append(trm)
    if not term_leaves and not iop_leaves:
        return _empty()

    # ---- phase A: derived lists, one task per salt, zero shuffle ----
    derived_refs, dstats = _derive_lists(reader, iop_plans_by_field)
    ddf = {lf: d for lf, (d, _) in dstats.items()}

    # global plain-term stats (metadata-only scan) + per-field read sets
    tstats_by_field: dict[str, dict[str, int]] = {}
    plain_by_field: dict[str, list[str]] = {}
    for tfld, tlist in sorted(terms_by_field.items()):
        plain = sorted(set(tlist))
        if not reader._bucket_paths(plain):
            continue
        plain_by_field[tfld] = plain
        tstats_by_field[tfld] = _global_dfs(reader, plain, tfld)

    # idf-clamped leaves score 0 but still create candidates — only then
    # does the dense group-sum need its zero-candidate bincount
    any_zero_idf = any(
        bm25_idf(reader.n_docs, d) == 0.0
        for dmap in ([ddf] + list(tstats_by_field.values()))
        for d in dmap.values() if d > 0)

    spec = _spec(reader, k, k1=model.k1, b=model.b,
                 avglen={f: reader.avg_len(f) for f in
                         set(terms_by_field) | set(iop_plans_by_field)},
                 plain=plain_by_field, derived=derived_refs,
                 any_zero_idf=any_zero_idf,
                 batch=ray.put(dict(il=iop_leaves, ddf=ddf, tl=term_leaves,
                                    ts=tstats_by_field)))
    return _emit_ranked(_run_salt_tasks(score_salt_structured, spec, reader),
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
    default-score correction computed from sharded doclens inside the
    same salt task, using each leaf's mle = ctf/collection_len
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
    complete inside its salt task — the arithmetic mix and the exact
    per-query cut run there too, zero shuffle. #WSUM below a
    #AND/#WAND (log of a sum — not factorizable) still raises to the
    driver path. Rank- and score-identical to ``QueryEngine.search``."""
    from .models import IndriModel
    from .parser import QueryParser
    from .plan import IopNode, ScoreNode, SopNode, TermNode

    model = model or IndriModel()
    reader = IndexReader(index_dir)
    an = analyzer_for_mode(reader.stats.get("analyzer", "lucene"))
    parser = QueryParser(an, default_field=field)

    qids = _check_unique_qids(queries)
    iop_plans: dict = {}

    def flatten(plan, coef, acc):
        if isinstance(plan, ScoreNode):
            flatten(plan.child, coef, acc)
        elif isinstance(plan, TermNode):
            if plan.field != field:
                raise ValueError(
                    f"distributed Indri scores field {field!r} only; "
                    f"leaf uses {plan.field!r} — use the driver path")
            acc["t:" + plan.term] = acc.get("t:" + plan.term, 0.0) + coef
        elif isinstance(plan, IopNode):
            if plan.field_name != field:
                raise ValueError(
                    f"distributed Indri scores field {field!r} only; "
                    f"leaf uses {plan.field_name!r} — use the driver path")
            key = "i:" + repr(plan)
            iop_plans[key] = plan
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

    # per qcode: [(W_j, leaf key → coefficient)]
    q_subtrees: list[list[tuple[float, dict]]] = []
    for qid, q in queries:
        subs: list[tuple[float, dict]] = []
        plan = expand_wildcards(parser.parse(q, "#and"), reader)
        if plan is not None:
            parts: list = []
            spine(plan, 1.0, parts)
            for w, sub in parts:
                acc: dict = {}
                flatten(sub, 1.0, acc)
                subs.append((w, acc))
        q_subtrees.append(subs)
    all_leaves = sorted({lf for subs in q_subtrees
                         for _, acc in subs for lf in acc})
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
        for j, (_, acc) in enumerate(subs):
            for lf, c in acc.items():
                leaf_targets.setdefault(lf, []).append((qc * n_sub + j, c))

    plain_terms = sorted({lf[2:] for lf in all_leaves if lf.startswith("t:")})

    # ---- phase A: derived lists + their (df, ctf), per salt ----
    derived_refs, dstats = _derive_lists(
        reader, {field: iop_plans} if iop_plans else {})

    clen = max(reader.sum_field_lengths(field), 1)
    tstats = _global_term_stats(reader, plain_terms, field)
    mle_of = {("t:" + t): tstats.get(t, (0, 0))[1] / clen
              for t in plain_terms}
    mle_of.update({lf: c / clen for lf, (_, c) in dstats.items()})
    # leaves absent from the index entirely (no postings): mle = 0
    for lf in all_leaves:
        mle_of.setdefault(lf, 0.0)

    # per qcode: [(W_j, mle array, coef array)] over each subtree's
    # leaves (the default-score correction inputs)
    q_info = [[(w,
                np.array([mle_of[lf] for lf in sorted(acc)], dtype=np.float64),
                np.array([acc[lf] for lf in sorted(acc)], dtype=np.float64))
               for w, acc in subs]
              for subs in q_subtrees]

    # ---- phase B: one task per salt (_run_salt_tasks): the salt's
    # derived rows come whole from the object store, plain-term postings
    # for its docid range are read LOCALLY, the matched log-partials are
    # summed by the dense group-sum, and the #WSUM default-score mix +
    # exact per-query cut run inside the task.
    spec = _spec(reader, k, field=field, mu=model.mu, lam=model.lambda_,
                 n_sub=n_sub, derived=derived_refs,
                 terms=plain_terms if reader._bucket_paths(plain_terms)
                 else [],
                 batch=ray.put(dict(lt=leaf_targets, mle=mle_of,
                                    qinfo=q_info)))
    return _emit_ranked(
        _run_salt_tasks(score_salt_indri_structured, spec, reader),
        qids, k, reader)
