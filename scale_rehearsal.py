#!/usr/bin/env python
"""Full-pipeline scale rehearsal (VERDICT r4 item 6): ONE end-to-end
job at 8M docs — index build → distributed BM25 batch → exact dedup →
MinHash signatures + banded LSH dedup → composed curation pipeline
(gate → exact-dedup → chunk) — recording per-stage wall time and
docs/s, so BASELINE.md can show that no stage falls off the build
plane's scaling curve when every stage runs against the same corpus in
one session.

Corpus: the bench generator (`pages_from_documents(expand=N)`) —
deterministic, no external data — written once to tmpfs and read back
as parquet, exactly like `bench.py --scaling`; build + exact-dedup run
over that pages shape. The MinHash/curation stages get a SEPARATE
documents-shaped corpus with a realistic duplication profile (~10%
exact copies, the rest content-distinct via a seeded per-variant token
permutation): the bench expander's one-marker-token variants make
EVERY doc a near-dup of expand−1 siblings — the measured dup-heavy
stress case, quadratic in group size — which is the wrong regime for a
throughput rehearsal of a web corpus whose dup rate is a few percent.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default 32), GRAFT_REHEARSAL_EXPAND (default 1600 → 8M docs at
sf0.1). Prints one JSON line; run of record lands in
SCALE_REHEARSAL_r5.json / BASELINE.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
EXPAND = int(os.environ.get("GRAFT_REHEARSAL_EXPAND", "1600"))


def main() -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from search_engines_ray.functions.dedup import (
        MinHasher, exact_dedup, minhash_lsh_dedup,
    )
    from search_engines_ray.functions.join import shuffle_hash_join
    from search_engines_ray.functions.text import (
        chunk_documents, heuristic_filter,
    )
    from search_engines_ray.index import IndexBuildConfig, build_index
    from search_engines_ray.pipelines.corpus import pages_from_documents
    from search_engines_ray.query.distributed import bm25_batch_search
    from search_engines_ray.query.models import BM25Model

    n_docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id"]).num_rows * EXPAND
    root = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    key = hashlib.md5(f"{os.path.abspath(SF_DIR)}|{EXPAND}".encode()) \
        .hexdigest()[:10]
    pages_dir = f"{root}/rehearsal_pages_{key}"
    docs_dir = f"{root}/rehearsal_docs_{key}"
    idx_dir = f"{root}/rehearsal_idx"
    stages: dict[str, float] = {}

    # ---- corpus materialization (untimed: input generation, not the
    # engine; a real run reads pre-existing crawl parquet) ----
    if not os.path.exists(pages_dir + ".done"):
        shutil.rmtree(pages_dir, ignore_errors=True)
        pages_from_documents(SF_DIR, expand=EXPAND) \
            .repartition(128).write_parquet(pages_dir)
        open(pages_dir + ".done", "w").close()
    if not os.path.exists(docs_dir + ".done"):
        shutil.rmtree(docs_dir, ignore_errors=True)
        import numpy as np

        # 50k-word synthetic vocabulary for the distinct variants:
        # seeded draws give pairwise shingle Jaccard ≈ 0 (the
        # distinct-doc regime a real web corpus is in after exact
        # collapse). The first r5 cut permuted the base doc's own
        # tokens instead — for SHORT docs, permutations of few tokens
        # share most 3-gram shingles, which silently recreated the
        # dup-heavy stress regime at 16M and thrashed the LSH sort.
        vocab = np.array([f"w{k:05d}" for k in range(50_000)],
                         dtype=object)

        def replicate_realistic(b: pa.Table) -> pa.Table:
            # per source doc: variant 0 = original; every 10th variant
            # an EXACT copy (≈10% dup rate); the rest content-distinct
            out_id, out_tx = [], []
            for i, t in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
                n = max(len((t or "").split()), 8)
                rng = np.random.default_rng(i)   # per-base seed —
                # deterministic regardless of batch partitioning
                draws = rng.integers(0, len(vocab), size=(EXPAND, n))
                for j in range(EXPAND):
                    out_id.append(i * EXPAND + j)
                    if j == 0 or (j % 10 == 5):
                        out_tx.append(t or "")
                    else:
                        out_tx.append(" ".join(vocab[draws[j]]))
            return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                             "text": pa.array(out_tx, pa.string())})
        ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                              columns=["doc_id", "text"]) \
            .repartition(128) \
            .map_batches(replicate_realistic, batch_format="pyarrow") \
            .write_parquet(docs_dir)
        open(docs_dir + ".done", "w").close()

    # ---- 1. index build (the north-rule headline) ----
    shutil.rmtree(idx_dir, ignore_errors=True)
    cfg = IndexBuildConfig(num_buckets=64, docid_partitions=128,
                           merge_salts=8, tokenize_batch_size=2048)
    t0 = time.time()
    build_index(ray.data.read_parquet(pages_dir), idx_dir, cfg,
                input_token=pages_dir, resume=False)
    stages["index_build"] = time.time() - t0

    # ---- 2. distributed BM25 batch (20 queries, warmed like bench) ----
    queries = [
        "fast sort merge", "hash join table", "window scan", "dup line",
        "group order filter", "vector batch column", "spark stream value",
        "key part customer", "slow big agg", "row data small",
        "merge sort fast key", "scan table hash", "filter group by order",
        "stream window agg", "join hash spark", "line dup row",
        "column vector value", "customer part key", "big slow query",
        "data small batch",
    ]
    warm = " ".join(sorted({t for q in queries for t in q.split()}))
    bm25_batch_search(idx_dir, [("warm", warm)], BM25Model(), k=10)
    t0 = time.time()
    bm25_batch_search(idx_dir, [(str(i), q) for i, q in enumerate(queries)],
                      BM25Model(), k=100)
    stages["bm25_distributed_batch20"] = time.time() - t0

    # ---- 3. exact content-hash dedup over the full pages corpus ----
    t0 = time.time()
    exact_dedup(ray.data.read_parquet(pages_dir, columns=["url", "text"]),
                text_col="text", id_col="url").materialize()
    stages["exact_dedup"] = time.time() - t0

    # ---- 4. MinHash signatures + banded LSH dedup, full corpus ----
    mh = MinHasher(id_col="doc_id")
    t0 = time.time()
    ray.data.read_parquet(docs_dir, columns=["doc_id", "text"]) \
        .map_batches(mh, batch_format="pyarrow", batch_size=1024) \
        .materialize()
    stages["minhash_signatures"] = time.time() - t0
    t0 = time.time()
    minhash_lsh_dedup(
        ray.data.read_parquet(docs_dir, columns=["doc_id", "text"]),
        jaccard_threshold=0.8).materialize()
    stages["minhash_lsh_dedup"] = time.time() - t0

    # ---- 5. composed curation flagship: gate → dedup → chunk ----
    t0 = time.time()
    docs = ray.data.read_parquet(docs_dir, columns=["doc_id", "text"])
    gated = heuristic_filter(docs, min_tokens=40, max_tokens=100_000,
                             min_mean_len=2.0, max_mean_len=10.0,
                             min_stopword_ratio=0.0,
                             max_dup_token_frac=0.55) \
        .filter(expr="keep")
    canon = exact_dedup(gated).map_batches(
        lambda b: pa.table({"doc_id": b["canonical_id"].cast(pa.int64())}),
        batch_format="pyarrow")
    survivors = shuffle_hash_join(
        gated.select_columns(["doc_id", "text"]), canon,
        left_on="doc_id", num_parts=64)
    n_chunks = chunk_documents(survivors, max_tokens=32).count()
    stages["curation_pipeline"] = time.time() - t0

    ray.shutdown()
    shutil.rmtree(idx_dir, ignore_errors=True)
    out = {
        "metric": "scale_rehearsal_e2e",
        "sf": SF_DIR, "expand": EXPAND, "num_cpus": NUM_CPUS,
        "n_docs": n_docs, "n_chunks": int(n_chunks),
        "stages_sec": {k: round(v, 2) for k, v in stages.items()},
        "stages_docs_per_sec": {
            k: round(n_docs / v, 1) for k, v in stages.items()
            if k != "bm25_distributed_batch20"},
        "total_sec": round(sum(stages.values()), 2),
    }
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
