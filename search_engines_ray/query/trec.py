"""Result ordering + trec_eval output — the reference's ``ScoreList``
sort/truncate contract (``/root/reference/QryEval/ScoreList.java:87-126``)
and ``printResults`` writer (``QryEval.java:781-801``). Search paths
finish here: ``drop_deleted`` (the tombstone mask, also applied inside
each distributed salt task) before the top-k cut,
``rank_results_candidates``, and ``empty_results`` when nothing parses.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def drop_deleted(dels: np.ndarray | None, docids: np.ndarray, *cols):
    """Tombstone mask (``merge.delete_docs``), the one every search path
    applies after scoring and before its top-k cut: → ``(docids, *cols)``
    without the docids in the sorted ``dels``. A sorted probe, never
    O(n_docs)."""
    if dels is None or dels.size == 0:
        return (docids, *cols)
    idx = np.searchsorted(dels, docids)
    idx[idx == dels.size] = 0
    keep = dels[idx] != docids
    return (docids[keep], *(c[keep] for c in cols))


def empty_results(with_qid: bool = False) -> pa.Table:
    """The empty (external_id, score, rank[, qid]) result table."""
    cols = {"external_id": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int32())}
    if with_qid:
        cols["qid"] = pa.array([], pa.string())
    return pa.table(cols)


def rank_results(docids: np.ndarray, scores: np.ndarray,
                 external_ids: np.ndarray, k: int = 100) -> pa.Table:
    """Order by score desc then external_id asc (byte-wise string compare,
    ScoreList.java:90-97), keep top-k, drop negative scores
    (QryEval.java:437 keeps ``score >= 0`` only)."""
    return rank_results_candidates(docids, scores,
                                   lambda d: external_ids[d], k)


def rank_results_candidates(docids: np.ndarray, scores: np.ndarray,
                            fetch_ids, k: int = 100) -> pa.Table:
    """``rank_results`` without the dense O(n_docs) id array: cut to the
    exact top-k candidate set first, then resolve external ids for those
    docids only via ``fetch_ids`` (a filtered forward scan).

    The tie group AT the kth score can dwarf k (quantized BM25/RB
    scores over near-identical docs), so it is resolved by Arrow's
    C++ ``select_k_unstable`` — keep the ``need`` byte-smallest
    external ids (exact: ids are unique) — instead of lexsorting every
    candidate's id string (numpy string sort/partition kernels are
    ~40× slower here)."""
    keep = scores >= 0
    docids, scores = docids[keep], scores[keep]
    if scores.size > k:
        kth = np.partition(scores, -k)[-k]
        above = scores > kth
        need = k - int(above.sum())
        tie = np.flatnonzero(scores == kth)
        if tie.size > need:
            tie_ext = fetch_ids(docids[tie])
            sel = pa.compute.select_k_unstable(
                pa.array(tie_ext), k=need,
                sort_keys=[("x", "ascending")]).to_numpy()
            tie = tie[sel]
        idx = np.concatenate([np.flatnonzero(above), tie])
        docids, scores = docids[idx], scores[idx]
    ext = fetch_ids(docids) if docids.size else np.empty(0, dtype=object)
    order = np.lexsort((ext, -scores))[:k]
    return pa.table({
        "external_id": pa.array(np.asarray(ext)[order].tolist(), pa.string()),
        "score": pa.array(scores[order], pa.float64()),
        "rank": pa.array(np.arange(1, order.size + 1, dtype=np.int32)),
    })


def format_trec(results: pa.Table, run_id: str = "run-1",
                default_qid: str = "1",
                all_qids: list[str] | None = None,
                score_fmt=None) -> str:
    """``qid Q0 externalDocid rank score runID`` lines; a dummy line per
    query with an empty result set, as the reference writes
    (QryEval.java:788-791). Pass ``all_qids`` so queries that matched
    nothing still emit their dummy line. ``score_fmt`` overrides the
    score rendering (e.g. Java ``Double.toString`` minimal form for
    byte-level comparison against the reference's .teIn goldens)."""
    lines = []
    qids = results["qid"].to_pylist() if "qid" in results.column_names \
        else [default_qid] * results.num_rows
    seen = set()
    fmt = score_fmt or (lambda s: f"{s:.12f}")
    for qid, ext, rank, score in zip(qids, results["external_id"].to_pylist(),
                                     results["rank"].to_pylist(),
                                     results["score"].to_pylist()):
        seen.add(qid)
        lines.append(f"{qid}\tQ0\t{ext}\t{rank}\t{fmt(score)}\t{run_id}")
    for qid in (all_qids if all_qids is not None
                else ([] if seen else [default_qid])):
        if qid not in seen:
            lines.append(f"{qid}\tQ0\tdummyDocid\t1\t0\t{run_id}")
    if not lines:
        lines.append(f"{default_qid}\tQ0\tdummyDocid\t1\t0\t{run_id}")
    return "\n".join(lines) + "\n"
