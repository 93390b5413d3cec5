"""Output checks. Each returns a list of problems (empty = correct), so a
deliberately wrong input can show that the check fails
(``python3 perfbench/selfcheck.py``)."""

from __future__ import annotations

import numpy as np
import pandas as pd

SCORE_RTOL = 1e-9


def ranking(table, k: int) -> list[str]:
    """A result table (external_id, score, rank) must hold at most ``k``
    rows, ranks 1..n, scores non-increasing, ties by external id."""
    df = table.to_pandas() if hasattr(table, "to_pandas") else table
    bad = []
    if len(df) > k:
        bad.append(f"{len(df)} rows > k={k}")
    if list(df["rank"]) != list(range(1, len(df) + 1)):
        bad.append("ranks are not 1..n")
    sc, ids = df["score"].to_numpy(), df["external_id"].tolist()
    for i in range(1, len(df)):
        if sc[i] > sc[i - 1] or (sc[i] == sc[i - 1] and ids[i] < ids[i - 1]):
            bad.append(f"order broken at rank {i + 1}")
            break
    return bad


def same_ranking(got, want, what: str) -> list[str]:
    """Rank-identical top-k: same external ids in the same order, scores
    equal up to float summation order."""
    g = got.to_pandas() if hasattr(got, "to_pandas") else got
    w = want.to_pandas() if hasattr(want, "to_pandas") else want
    if list(g["external_id"]) != list(w["external_id"]):
        return [f"{what}: ranked ids differ"]
    if not np.allclose(g["score"].to_numpy(), w["score"].to_numpy(),
                       rtol=SCORE_RTOL, atol=0.0):
        return [f"{what}: scores differ"]
    return []


def oracle_ranking(got, rows: list[tuple[str, float]], what: str) -> list[str]:
    """Engine top-k against ``oracle_search`` rows [(url, score)]."""
    want = pd.DataFrame({"external_id": [u for u, _ in rows],
                         "score": [s for _, s in rows]},
                        columns=["external_id", "score"])
    return same_ranking(got, want, what)


def index_stats(stats: dict, n_docs: int, sum_len: int,
                field: str = "body") -> list[str]:
    """``stats.json`` against an independent count over the pages."""
    bad = []
    if stats.get("n_docs") != n_docs:
        bad.append(f"n_docs {stats.get('n_docs')} != {n_docs}")
    got = stats.get("fields", {}).get(field, {}).get("sum_len")
    if got != sum_len:
        bad.append(f"sum_len {got} != {sum_len}")
    return bad


def doc_freqs(got: dict[str, int], want: dict[str, int]) -> list[str]:
    return [f"df({t}) {got.get(t)} != {n}" for t, n in want.items()
            if got.get(t) != n]


def exact_kept(out: pd.DataFrame, pages: pd.DataFrame) -> list[str]:
    """``exact_dedup`` keeps one canonical (min) id per distinct text:
    the same set a pandas ``drop_duplicates`` keeps."""
    want = set(pages.sort_values("doc_id").drop_duplicates("text")["doc_id"])
    got = set(out["canonical_id"])
    bad = []
    if got != want:
        bad.append(f"kept set differs: {len(got ^ want)} ids")
    if int(out["n_dups"].sum()) != len(pages):
        bad.append("n_dups does not sum to the row count")
    return bad


def near_dup_groups(out: pd.DataFrame, pages: pd.DataFrame) -> list[str]:
    """``minhash_lsh_dedup`` (doc_id, canonical_id): every group lies
    within one source page's copies (no false merge), its canonical is
    its min id, and every verbatim copy is found (identical text gives
    identical signatures, so LSH cannot miss it)."""
    bad = []
    src = dict(zip(pages["doc_id"], pages["src"]))
    groups: dict = {}
    for d, c in zip(out["doc_id"], out["canonical_id"]):
        groups.setdefault(c, {c}).add(d)
    for c, members in groups.items():
        if len({src[m] for m in members}) != 1:
            bad.append(f"group {c} merges different pages")
        if min(members) != c:
            bad.append(f"group {c} canonical is not its min id")
    canon = {d: c for c, ms in groups.items() for d in ms}
    for _, g in pages.groupby("text"):
        ids = list(g["doc_id"])
        if len(ids) > 1 and len({canon.get(i, -1 - i) for i in ids}) != 1:
            bad.append(f"verbatim copies {ids[:3]} not grouped")
    return bad


def near_dup_recall(out: pd.DataFrame, pages: pd.DataFrame) -> float:
    """Share of copied rows (verbatim or near) that landed in a group."""
    copies = pages[pages.duplicated("src", keep=False)]
    if copies.empty:
        return 1.0
    found = set(out["doc_id"]) | set(out["canonical_id"])
    return float(copies["doc_id"].isin(found).mean())
