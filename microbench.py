#!/usr/bin/env python
"""Ray-free microbenchmarks of the engine's hot kernels, printing ONE
JSON line: each kernel's median time per call and its unit.

Kernels:
- ``decode_per_run`` / ``decode_joined``: varbyte decode of one salt's
  posting runs for the whole query vocabulary, one ``decode_postings``
  call per run vs one ``reader.decode_runs`` call over the joined blobs
  (the path ``IndexReader.read_runs`` takes);
- ``encode_per_run`` / ``encode_joined``: the same runs encoded, one
  ``encode_postings`` call per run vs one ``varbyte.encode_runs`` call
  (the path the build's partial fragments and merge take);
- ``partial_postings``: the build's partial-fragment function
  (``build._partial_postings_fn``) over the whole corpus as one batch,
  as the benchmark's build runs it;
- ``merge_bucket``: the build's merge kernel (``build._merge_bucket``)
  over the fragments of 100-doc partial batches, sorted by (bucket,
  salt) into one block, so most runs merge several fragments;
- ``partial_postings_zipf`` / ``merge_bucket_zipf``: the same two on a
  seeded Zipf(1.1) sample over 200,000 words (4,096 docs of 250 tokens;
  merge input from 256-doc batches): a real vocabulary's run count,
  which the benchmark's 30 words hide;
- ``compact_zipf``: compaction's kernels on that sample's 256-doc
  fragments with 5 % of the docs tombstoned: ``merge._refragment``, the
  (bucket, salt) sort and ``build._merge_bucket``;
- ``simple_tokenize``: the tokenizer over 1,000 pages;
- ``minhash``: ``MinHasher.__call__`` over a 1,000-row batch;
- ``minhash_affine``: ``MinHasher.values`` alone, the (a*h + b) mod
  (2^61-1) pass (``dedup._affine_p61``) over that batch's distinct
  shingle hashes and every permutation, so an arithmetic regression
  shows apart from tokenizing and hashing;
- ``simhash``: ``dedup._simhash``, the SimHash fingerprints of that
  1,000-row batch;
- ``popcount``: ``dedup._popcount64`` over the XOR of every pair of
  those fingerprints, the Hamming test of the SimHash ops;
- ``group_sum``: ``distributed._group_sum_entries`` over one salt's
  entries of a 20-query BM25 batch;
- ``indri_tree``: ``kernels.indri_tree``, the Indri combination the
  driver engine and the salt kernel share, over one salt's candidates
  for a 10-query bag-of-words Indri batch plus one ``#wand`` SDM tree
  (the benchmark's query shapes), with every leaf's Dirichlet scores
  precomputed.

Inputs are seeded and shaped like the declared benchmark's (its
``perfbench.gen`` corpus model: a 3,000-page index split into 4 salts,
a 1,000-page build over 16 pids and 4 salts, 1,000-row dedup batches),
except the Zipf sample, which this script generates itself. A kernel regression shows here without the
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
BUILD_ROWS = 1000
DEDUP_ROWS = 1000
SALTS = 4
PIDS = 16


def _runs(corpus, lo: int, hi: int) -> list[tuple]:
    """(docids, tfs, positions) of every word's run inside docids
    ``[lo, hi)`` — one salt of the benchmark's query index."""
    lens = np.diff(corpus.offsets)
    row = np.repeat(np.arange(corpus.n_docs), lens)
    pos = np.arange(corpus.ids.size) - np.repeat(corpus.offsets[:-1], lens)
    keep = (row >= lo) & (row < hi)
    ids, row, pos = corpus.ids[keep], row[keep], pos[keep]
    runs = []
    for w in range(len(corpus.vocab)):
        hit = ids == w
        if hit.any():
            docids, tfs = np.unique(row[hit], return_counts=True)
            runs.append((docids, tfs, pos[hit]))
    return runs


def _forward(texts: list[str], urls: list[str], n_pids: int):
    """The forward table of a corpus (lucene analyzer, docids by pid
    then url as the build assigns them) and its pid offsets."""
    import pyarrow as pa
    from search_engines_ray.index import build
    pid = np.array([build.url_pid(u, n_pids) for u in urls], np.int32)
    order = np.lexsort((np.array(urls), pid))
    n = np.bincount(pid, minlength=n_pids)
    offs = np.concatenate(([0], np.cumsum(n)))
    pages = pa.table({"text": np.array(texts, object)[order],
                      "external_id": np.array(urls, object)[order],
                      "pid": pid[order],
                      "docid_local": np.arange(len(urls)) - offs[pid[order]]})
    return build._forward_rows(pages, {"body": "text"}, "lucene", {}, {}), offs


def _zipf_forward(rng, n_docs: int = 4096, doc_len: int = 250,
                  n_words: int = 200_000, n_pids: int = 16):
    """A forward table of Zipf(1.1) word draws (positions 0..doc_len-1),
    docids contiguous per pid."""
    import pyarrow as pa
    p = 1.0 / np.arange(1, n_words + 1) ** 1.1
    ranks = rng.choice(n_words, n_docs * doc_len, p=p / p.sum())
    words = pa.array([f"w{r}" for r in range(n_words)]).take(ranks)
    offsets = pa.array(np.arange(0, n_docs * doc_len + 1, doc_len, np.int32))
    pid = (np.arange(n_docs) * n_pids // n_docs).astype(np.int32)
    offs = np.concatenate(([0], np.cumsum(np.bincount(pid, minlength=n_pids))))
    fwd = pa.table({
        "docid_local": np.arange(n_docs) - offs[pid], "pid": pid,
        "terms_body": pa.ListArray.from_arrays(offsets, words),
        "pos_body": pa.ListArray.from_arrays(offsets, pa.array(
            np.tile(np.arange(doc_len, dtype=np.int32), n_docs)))})
    return fwd, offs


def _build_kernels(fwd, offs, n_pids: int, merge_batch: int):
    """``partial_postings`` over ``fwd`` as one batch and ``merge_bucket``
    over the (bucket, salt)-sorted fragments of ``merge_batch``-doc
    batches, with the benchmark build's 16 buckets and 4 salts; also
    returns those fragments."""
    import pyarrow as pa
    from search_engines_ray.index import build
    salt_of_pid = (np.arange(n_pids) * 4 // n_pids).astype(np.int32)
    fn = build._partial_postings_fn(["body"], 16, salt_of_pid, offs)
    parts = pa.concat_tables(fn(fwd.slice(i, merge_batch))
                             for i in range(0, fwd.num_rows, merge_batch))
    block = _sorted(parts)
    return {"partial_postings": (lambda: fn(fwd), f"{fwd.num_rows} docs"),
            "merge_bucket": (lambda: build._merge_bucket(block),
                             f"{block.num_rows} fragments")}, parts


def _sorted(t):
    """A table's rows sorted by (bucket, salt), as the build's sort hands
    them to ``_merge_bucket``."""
    return t.take(np.lexsort((t["salt"].to_numpy(), t["bucket"].to_numpy())))


def _compact_kernel(parts, n_docs: int, rng):
    """``compact``: ``_refragment`` over ``parts`` with 5 % of the docs
    tombstoned, then the (bucket, salt) sort and ``_merge_bucket``."""
    from search_engines_ray.index import build, merge
    dels = np.sort(rng.choice(n_docs, n_docs // 20, replace=False))

    def compact():
        frags = merge._refragment(parts, dels, SALTS, n_docs - dels.size)
        return build._merge_bucket(_sorted(frags))
    return compact, f"{parts.num_rows} fragments"


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


def _indri_input(corpus, runs, seed: int) -> list:
    """``(tree, leaf scores by leaf id)`` of one salt's candidates for
    10 bag-of-words queries and one ``#wand`` SDM query drawn as the
    benchmark draws them; ``runs`` are that salt's word runs."""
    from perfbench import gen
    from search_engines_ray.analysis.tokenizer import analyzer_for_mode
    from search_engines_ray.query.eval import (
        InvList, _leaves, _union, eval_iop_tree,
    )
    from search_engines_ray.query.kernels import dirichlet
    from search_engines_ray.query.parser import QueryParser
    parser = QueryParser(analyzer_for_mode("lucene"))
    cache = {}
    words = np.unique(corpus.ids[:corpus.offsets[INDEX_ROWS // SALTS]])
    for w, (d, tf, pos) in zip(words, runs):     # _runs' word order
        for t in parser.analyzer.analyze_query_token(str(corpus.vocab[w])):
            cache.setdefault((t, "body"), InvList(
                d, tf.astype(np.int32), pos.astype(np.int32), int(d.size),
                int(tf.sum()), "body"))
    dl_all = np.diff(corpus.offsets).astype(np.float64)
    rng = np.random.default_rng([seed, 17])
    out = []
    for kind in ["indri_bow"] * 10 + ["indri_wand"]:
        tree = parser.parse(gen.query(corpus, kind, rng), "#and")
        invs = {id(leaf): eval_iop_tree(leaf.child, cache)
                for leaf in _leaves(tree)}
        cand = _union([inv.docids for inv in invs.values()])
        scores = {}
        for key, inv in invs.items():
            tf = np.zeros(cand.size)
            tf[np.searchsorted(cand, inv.docids)] = inv.tfs
            scores[key] = dirichlet(tf, dl_all[cand],
                                    inv.ctf / corpus.ids.size, 2500.0, 0.4)
        out.append((tree, scores))
    return out


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
        MinHasher, _popcount64, _segment_pairs, _shingle_hashes, _simhash,
    )
    from search_engines_ray.index.reader import decode_runs
    from search_engines_ray.index.varbyte import (
        decode_postings, encode_postings, encode_runs,
    )
    from search_engines_ray.query.distributed import _group_sum_entries
    from search_engines_ray.query.kernels import indri_tree

    rng = np.random.default_rng([seed, 9])
    index = gen.corpus(seed, INDEX_ROWS)
    runs = _runs(index, 0, INDEX_ROWS // SALTS)
    blobs = [encode_postings(*r) for r in runs]
    cols = [list(c) for c in zip(*blobs)]
    joined = [np.concatenate(c) for c in zip(*runs)]
    run_off = np.concatenate(([0], np.cumsum([r[0].size for r in runs])))
    pages = gen.corpus(seed, BUILD_ROWS)
    writes, _ = _build_kernels(*_forward(pages.texts(), pages.urls, PIDS),
                               PIDS, 100)
    zipf_fwd, zipf_offs = _zipf_forward(np.random.default_rng([seed, 11]))
    zipf, zipf_parts = _build_kernels(zipf_fwd, zipf_offs, PIDS, 256)
    zipf["compact"] = _compact_kernel(zipf_parts, zipf_fwd.num_rows,
                                      np.random.default_rng([seed, 13]))
    texts = index.texts()[:DEDUP_ROWS]
    batch = gen.corpus(seed, DEDUP_ROWS).dedup_table()
    hasher = MinHasher()
    shingle_h = np.unique(np.concatenate(
        [_shingle_hashes(simple_tokenize(t), hasher.shingle)
         for t in batch["text"].to_pylist()]))
    entries = _group_sum_input(index, rng)
    dedup_texts = batch["text"].to_pylist()
    fp = _simhash(dedup_texts)
    i, j = _segment_pairs(np.arange(fp.size) == 0)
    xor = fp[i] ^ fp[j]
    indri = _indri_input(index, runs, seed)

    kernels = {
        "decode_per_run": (lambda: [decode_postings(*b) for b in blobs],
                           f"ms per {len(blobs)} runs"),
        "decode_joined": (lambda: decode_runs(*cols),
                          f"ms per {len(blobs)} runs"),
        "encode_per_run": (lambda: [encode_postings(*r) for r in runs],
                           f"ms per {len(runs)} runs"),
        "encode_joined": (lambda: encode_runs(*joined, run_off),
                          f"ms per {len(runs)} runs"),
        **{name: (fn, f"ms per {unit}")
           for name, (fn, unit) in writes.items()},
        **{name + "_zipf": (fn, f"ms per {unit}")
           for name, (fn, unit) in zipf.items()},
        "simple_tokenize": (lambda: [simple_tokenize(t) for t in texts],
                            f"ms per {len(texts)} pages"),
        "minhash": (lambda: hasher(batch), f"ms per {batch.num_rows} rows"),
        "minhash_affine": (lambda: hasher.values(shingle_h),
                           f"ms per {shingle_h.size} distinct shingles"),
        "simhash": (lambda: _simhash(dedup_texts),
                    f"ms per {len(dedup_texts)} rows"),
        "popcount": (lambda: _popcount64(xor), f"ms per {xor.size} pairs"),
        "group_sum": (lambda: _group_sum_entries(entries),
                      f"ms per {len(entries)} entries"),
        "indri_tree": (lambda: [indri_tree(t, lambda leaf, s=s: s[id(leaf)])
                                for t, s in indri],
                       f"ms per {len(indri)} queries"),
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
