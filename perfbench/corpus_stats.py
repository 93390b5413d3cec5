"""Measure the statistics ``gen.py`` models, on a documents table.

    python3 perfbench/corpus_stats.py <path/to/documents.parquet>

Prints the word count, vocabulary and word shares, the page-length
distribution, and the shares of verbatim copies and of near copies (a
row equal to another row plus one appended word), so the constants in
``gen.py`` can be checked against the table they were taken from, or
against a synthetic table (``gen.corpus``) to check the generator.
"""

from __future__ import annotations

import collections
import json
import sys

import numpy as np
import pyarrow.parquet as pq


def stats(texts: list[str]) -> dict:
    rows = [t.split() for t in texts]
    lens = np.array([len(r) for r in rows])
    words = collections.Counter(w for r in rows for w in r)
    total = int(lens.sum())
    seen = set(texts)
    near = collections.Counter(r[-1] for r in rows
                               if len(r) > 1 and " ".join(r[:-1]) in seen)
    exact = len(texts) - len(seen)
    return {
        "rows": len(texts), "words": total, "vocabulary": len(words),
        "word_share": {w: round(c / total, 4)
                       for w, c in words.most_common()},
        "page_words": {"min": int(lens.min()), "max": int(lens.max()),
                       "mean": round(float(lens.mean()), 2),
                       "sd": round(float(lens.std()), 2)},
        "near_copies": {"rows": sum(near.values()),
                        "share": round(sum(near.values()) / len(texts), 4),
                        "appended_word": dict(near.most_common(3))},
        "exact_copies": {"rows": exact,
                         "share": round(exact / len(texts), 4)},
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    texts = pq.read_table(sys.argv[1], columns=["text"])["text"].to_pylist()
    print(json.dumps(stats(texts), indent=1))
