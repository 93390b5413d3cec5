"""Shows that every output check fails on a deliberately wrong result.

    python3 perfbench/selfcheck.py

Each case feeds a check one correct output (must pass) and wrong ones
(each must be reported). Needs only numpy and pandas; exits 1 if any
check accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import os
import sys

import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import checks  # noqa: E402


def ranked(ids, scores):
    return pd.DataFrame({"external_id": ids, "score": scores,
                         "rank": range(1, len(ids) + 1)})


def cases():
    good = ranked(["a", "c", "b"], [3.0, 2.0, 2.0 - 1e-3])
    tie = ranked(["a", "b", "c"], [3.0, 2.0, 2.0])
    yield "ranking", checks.ranking(good, 3), [
        checks.ranking(good, 2),                               # > k rows
        checks.ranking(ranked(["c", "a"], [2.0, 3.0]), 3),     # order
        checks.ranking(ranked(["b", "a"], [2.0, 2.0]), 3),     # tie order
        checks.ranking(tie.assign(rank=[1, 1, 2]), 3)]         # ranks
    yield "same_ranking", checks.same_ranking(good, good.copy(), "q"), [
        checks.same_ranking(good, ranked(["c", "a", "b"],
                                         [3.0, 2.0, 1.999]), "q"),
        checks.same_ranking(good, good.assign(score=[3.0, 2.0, 1.9]), "q"),
        checks.same_ranking(good.iloc[:2], good, "q")]
    rows = [("a", 3.0), ("c", 2.0), ("b", 2.0 - 1e-3)]
    yield "oracle_ranking", checks.oracle_ranking(good, rows, "q"), [
        checks.oracle_ranking(good, rows[::-1], "q"),
        checks.oracle_ranking(good, [("a", 3.1)] + rows[1:], "q")]

    stats = {"n_docs": 10, "fields": {"body": {"sum_len": 70}}}
    yield "index_stats", checks.index_stats(stats, 10, 70), [
        checks.index_stats(stats, 11, 70),
        checks.index_stats(stats, 10, 71)]
    yield "doc_freqs", checks.doc_freqs({"x": 3, "y": 1}, {"x": 3, "y": 1}), [
        checks.doc_freqs({"x": 3, "y": 2}, {"x": 3, "y": 1}),
        checks.doc_freqs({"x": 3}, {"x": 3, "y": 1})]

    # rows 0/3 verbatim copies of page 0, row 4 a near copy of page 0
    pages = pd.DataFrame({"doc_id": [0, 1, 2, 3, 4],
                          "text": ["p q r", "s t u", "v w x", "p q r",
                                   "p q z"],
                          "src": [0, 1, 2, 0, 0]})
    exact = pd.DataFrame({"content_hash": ["h0", "h1", "h2", "h4"],
                          "canonical_id": [0, 1, 2, 4],
                          "n_dups": [2, 1, 1, 1]})
    yield "exact_kept", checks.exact_kept(exact, pages), [
        checks.exact_kept(exact.assign(canonical_id=[3, 1, 2, 4]), pages),
        checks.exact_kept(exact.iloc[:3], pages),
        checks.exact_kept(exact.assign(n_dups=[1, 1, 1, 1]), pages)]
    near = pd.DataFrame({"doc_id": [3, 4], "canonical_id": [0, 0]})
    yield "near_dup_groups", checks.near_dup_groups(near, pages), [
        checks.near_dup_groups(near.iloc[1:], pages),          # copy missed
        checks.near_dup_groups(pd.DataFrame(
            {"doc_id": [3, 4, 1], "canonical_id": [0, 0, 0]}), pages),
        checks.near_dup_groups(pd.DataFrame(
            {"doc_id": [0, 4], "canonical_id": [3, 3]}), pages)]


def main() -> int:
    ok = True
    for name, right, wrongs in cases():
        caught = sum(bool(w) for w in wrongs)
        good = not right and caught == len(wrongs)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: correct output "
              f"{'accepted' if not right else 'REJECTED ' + str(right)}, "
              f"{caught}/{len(wrongs)} wrong outputs caught")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
