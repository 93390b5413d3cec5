#!/usr/bin/env python
"""Ray-free microbenchmarks of the engine's hot kernels, printing ONE
JSON line: each kernel's median time per call and its unit.

Kernels:
- ``decode_per_run`` / ``decode_joined``: varbyte decode of one salt's
  posting runs for the whole query vocabulary, one ``decode_postings``
  call per run vs one ``reader.decode_runs`` call over the joined blobs
  (the path ``IndexReader.read_runs`` takes);
- ``simple_tokenize``: the tokenizer over 1,000 pages;
- ``minhash``: ``MinHasher.__call__`` over a 1,000-row batch;
- ``minhash_affine``: ``MinHasher.values`` alone, the (a*h + b) mod
  (2^61-1) pass (``dedup._affine_p61``) over that batch's distinct
  shingle hashes and every permutation, so an arithmetic regression
  shows apart from tokenizing and hashing;
- ``group_sum``: ``distributed._group_sum_entries`` over one salt's
  entries of a 20-query BM25 batch.

Inputs are seeded and shaped like the declared benchmark's (its
``perfbench.gen`` corpus model: a 3,000-page index split into 4 salts,
1,000-row dedup batches). A kernel regression shows here without the
shuffle and scheduling noise of a Ray run.

    python microbench.py [--seed 7] [--budget-s 4]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

INDEX_ROWS = 3000
DEDUP_ROWS = 1000
SALTS = 4


def _postings(corpus, lo: int, hi: int) -> list[tuple[bytes, bytes, bytes]]:
    """Encoded (docid, tf, pos) blobs of every word's run inside docids
    ``[lo, hi)`` — one salt of the benchmark's query index."""
    from search_engines_ray.index.varbyte import encode_postings
    lens = np.diff(corpus.offsets)
    row = np.repeat(np.arange(corpus.n_docs), lens)
    pos = np.arange(corpus.ids.size) - np.repeat(corpus.offsets[:-1], lens)
    keep = (row >= lo) & (row < hi)
    ids, row, pos = corpus.ids[keep], row[keep], pos[keep]
    blobs = []
    for w in range(len(corpus.vocab)):
        hit = ids == w
        if not hit.any():
            continue
        docids, tfs = np.unique(row[hit], return_counts=True)
        blobs.append(encode_postings(docids, tfs, pos[hit]))
    return blobs


def _group_sum_input(corpus, rng) -> list:
    """One salt's ``(qcode, docids, vals)`` entries of a 20-query
    bag-of-words batch, three terms per query."""
    lens = np.diff(corpus.offsets)
    row = np.repeat(np.arange(corpus.n_docs), lens)
    hi = corpus.n_docs // SALTS
    runs = [np.unique(row[(corpus.ids == w) & (row < hi)])
            for w in range(len(corpus.vocab))]
    return [(q, runs[w], rng.random(runs[w].size))
            for q in range(20)
            for w in rng.choice(len(runs), 3, replace=False)]


def _time(fn, budget_s: float) -> float:
    """Median seconds per call: at least 3 calls, then until the
    budget runs out."""
    fn()                                   # warm-up
    times, t_end = [], time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(seed: int, budget_s: float) -> dict:
    from perfbench import gen
    from search_engines_ray.analysis.tokenizer import simple_tokenize
    from search_engines_ray.functions.dedup import (
        MinHasher, _shingle_hashes,
    )
    from search_engines_ray.index.reader import decode_runs
    from search_engines_ray.index.varbyte import decode_postings
    from search_engines_ray.query.distributed import _group_sum_entries

    rng = np.random.default_rng([seed, 9])
    index = gen.corpus(seed, INDEX_ROWS)
    blobs = _postings(index, 0, INDEX_ROWS // SALTS)
    cols = [list(c) for c in zip(*blobs)]
    texts = index.texts()[:DEDUP_ROWS]
    batch = gen.corpus(seed, DEDUP_ROWS).dedup_table()
    hasher = MinHasher()
    shingle_h = np.unique(np.concatenate(
        [_shingle_hashes(simple_tokenize(t), hasher.shingle)
         for t in batch["text"].to_pylist()]))
    entries = _group_sum_input(index, rng)

    kernels = {
        "decode_per_run": (lambda: [decode_postings(*b) for b in blobs],
                           f"ms per {len(blobs)} runs"),
        "decode_joined": (lambda: decode_runs(*cols),
                          f"ms per {len(blobs)} runs"),
        "simple_tokenize": (lambda: [simple_tokenize(t) for t in texts],
                            f"ms per {len(texts)} pages"),
        "minhash": (lambda: hasher(batch), f"ms per {batch.num_rows} rows"),
        "minhash_affine": (lambda: hasher.values(shingle_h),
                           f"ms per {shingle_h.size} distinct shingles"),
        "group_sum": (lambda: _group_sum_entries(entries),
                      f"ms per {len(entries)} entries"),
    }
    each = budget_s / len(kernels)
    return {name: {"median": round(_time(fn, each) * 1e3, 4), "unit": unit}
            for name, (fn, unit) in kernels.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--budget-s", type=float, default=4.0,
                    help="total timing budget, split evenly over kernels")
    args = ap.parse_args()
    print(json.dumps(run(args.seed, args.budget_s)))


if __name__ == "__main__":
    main()
