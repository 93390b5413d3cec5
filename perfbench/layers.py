"""Per-layer metrics of a traced run, named after the package's modules.

Driver-side times are span self times from ``spans.Tracer``; worker-side
busy times are ``ray.timeline()`` task durations; both are divided by the
number of traced operations (one build, query, batch or dedup pass). A
layer the workload does not load reads 0. ``analysis.tokens_per_s``
(over the workload's corpus) and ``index.varbyte.decode_mb_per_s`` (over
the built index's posting blobs) are Ray-free kernel replays, so a kernel
change shows outside shuffle noise.
"""

from __future__ import annotations

import statistics
import time

from . import spans

# ordered as in BENCHMARK.json: (name, unit)
METRICS = [
    ("analysis.tokenize_busy_s", "s"),
    ("analysis.tokens_per_s", "1/s"),
    ("index.build.forward_s", "s"),
    ("index.build.docmeta_s", "s"),
    ("index.build.postings_s", "s"),
    ("index.build.docid_shuffle_busy_s", "s"),
    ("index.build.partial_postings_busy_s", "s"),
    ("index.build.postings_exchange_busy_s", "s"),
    ("index.build.merge_busy_s", "s"),
    ("index.build.bytes_written", "bytes"),
    ("index.build.bytes_per_input_byte", "ratio"),
    ("index.varbyte.decode_ms", "ms"),
    ("index.varbyte.decode_mb_per_s", "MB/s"),
    ("index.reader.postings_ms", "ms"),
    ("index.reader.postings_terms", "count"),
    ("index.reader.doclens_ms", "ms"),
    ("index.reader.external_ids_ms", "ms"),
    ("query.parser.parse_ms", "ms"),
    ("query.eval.self_ms", "ms"),
    ("query.eval.postings_per_result", "ratio"),
    ("query.eval.post_cache_hit_ratio", "ratio"),
    ("query.distributed.prep_ms", "ms"),
    ("query.distributed.salt_tasks_ms", "ms"),
    ("query.distributed.score_salt_busy_s", "s"),
    ("query.distributed.candidate_rows", "count"),
    ("query.distributed.emit_ms", "ms"),
    ("functions.dedup.signature_busy_s", "s"),
    ("functions.dedup.band_exchange_busy_s", "s"),
    ("functions.dedup.verify_busy_s", "s"),
    ("functions.dedup.exact_busy_s", "s"),
    ("functions.dedup.near_dup_recall", "ratio"),
    ("ray.tasks", "count"),
    ("ray.task_overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
]

_VERIFY_OPS = ("partition_pairs", "attach", "_compress", "_dedup_block")
# driver spans whose self time a ``_ms`` metric reports
REPORTED_SPANS = {
    "index.varbyte.decode", "index.reader.postings", "index.reader.doclens",
    "index.reader.external_ids", "query.parser.parse", "query.eval.search",
    "query.eval.fetch", "query.distributed.prep",
    "query.distributed.salt_tasks", "query.distributed.emit"}


def _op(*needles):
    return lambda t: any(n in t["op"] for n in needles)


def tokens_per_s(corpus, n_pages: int = 300, min_s: float = 0.3) -> float:
    from search_engines_ray.analysis import Analyzer
    texts = corpus.texts()[:n_pages]
    an = Analyzer()
    for t in texts:                       # stem cache warm, as in workers
        an.analyze(t)
    tokens, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < min_s:
        for t in texts:
            tokens += an.analyze(t)[2]
    return tokens / (time.perf_counter() - t0)


def index_blobs(index_dir: str) -> list[tuple[bytes, bytes, bytes]]:
    """Every (docid, tf, pos) blob triple of the built index's postings
    files, as ``IndexReader`` reads them."""
    import pyarrow.dataset as pads

    from search_engines_ray.index import IndexReader
    paths = IndexReader(index_dir)._postings_paths()
    t = pads.dataset(paths, format="parquet").to_table(
        columns=["docid_blob", "tf_blob", "pos_blob"])
    return list(zip(*(t[c].to_pylist() for c in t.column_names)))


def decode_mb_per_s(index_dir: str, min_s: float = 0.3) -> float:
    from search_engines_ray.index.varbyte import decode_postings
    blobs = index_blobs(index_dir)
    size = sum(len(x) for bl in blobs for x in bl)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < min_s:
        for bl in blobs:
            decode_postings(*bl)
        n += 1
    return n * size / 2**20 / (time.perf_counter() - t0)


def union_s(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def clip(tasks: list[dict], windows: list[tuple[float, float]]):
    """Task intervals cut to the operation windows they overlap."""
    return [(max(t["start"], a), min(t["start"] + t["busy"], b))
            for t in tasks for a, b in windows
            if t["start"] < b and t["start"] + t["busy"] > a]


def per_layer(wl, tracer: spans.Tracer, loop: dict) -> dict:
    """Metrics of the traced (odd-numbered) operations of ``loop``."""
    lat = loop["lat"]
    traced = [i for i in range(len(lat)) if i % 2] or [0]
    n = len(traced)
    wins = [loop["windows"][i] for i in traced]
    wall = sum(lat[i] for i in traced)
    per = lambda v: v / n
    ms = lambda name: tracer.self_s.get(name, 0.0) / n * 1e3
    cnt = tracer.counters
    ev = spans.task_events(wins)
    tasks = ev["tasks"]
    m: dict[str, float] = {name: 0.0 for name, _ in METRICS}

    # analysis + index.build
    m["analysis.tokenize_busy_s"] = per(spans.busy(tasks, _op("_Tokenize")))
    stages = [wl.stages[i] for i in traced if i in getattr(wl, "stages", {})]
    if stages:
        fwd = [(t0, t0 + s["forward_s"]) for t0, s in stages]
        post = [(t0 + s["forward_s"] + s["docmeta_s"], t0 + s["total_s"])
                for t0, s in stages]
        for key in ("forward_s", "docmeta_s", "postings_s"):
            m[f"index.build.{key}"] = statistics.mean(
                s[key] for _, s in stages)
        m["index.build.docid_shuffle_busy_s"] = per(spans.busy(
            tasks, lambda t: spans.within(t, fwd) and (
                spans.is_shuffle(t) or "add_pid" in t["op"])))
        m["index.build.postings_exchange_busy_s"] = per(spans.busy(
            tasks, lambda t: spans.within(t, post) and spans.is_shuffle(t)))
        written = statistics.median(wl.bytes_written)
        m["index.build.bytes_written"] = written
        m["index.build.bytes_per_input_byte"] = written / wl.in_bytes
    m["index.build.partial_postings_busy_s"] = per(
        spans.busy(tasks, _op("MapBatches(fn)")))
    m["index.build.merge_busy_s"] = per(
        spans.busy(tasks, _op("_merge_bucket")))

    # varbyte + reader + parser + eval (driver side)
    m["index.varbyte.decode_ms"] = ms("index.varbyte.decode")
    if wl.has_index:
        m["index.varbyte.decode_mb_per_s"] = decode_mb_per_s(wl.index_dir)
    m["index.reader.postings_ms"] = ms("index.reader.postings")
    m["index.reader.postings_terms"] = per(
        cnt.get("index.reader.postings_terms", 0))
    m["index.reader.doclens_ms"] = ms("index.reader.doclens")
    m["index.reader.external_ids_ms"] = ms("index.reader.external_ids")
    m["query.parser.parse_ms"] = ms("query.parser.parse")
    m["query.eval.self_ms"] = ms("query.eval.search") + ms("query.eval.fetch")
    results = cnt.get("query.eval.results", 0)
    if results:
        m["query.eval.postings_per_result"] = (
            cnt["query.eval.postings_examined"] / results)
    lookups = cnt.get("query.eval.term_lookups", 0)
    if lookups:
        m["query.eval.post_cache_hit_ratio"] = 1.0 - (
            cnt.get("index.reader.postings_terms", 0) / lookups)

    # distributed batches
    m["query.distributed.prep_ms"] = ms("query.distributed.prep")
    m["query.distributed.salt_tasks_ms"] = ms("query.distributed.salt_tasks")
    m["query.distributed.emit_ms"] = ms("query.distributed.emit")
    m["query.distributed.candidate_rows"] = per(
        cnt.get("query.distributed.candidate_rows", 0))
    m["query.distributed.score_salt_busy_s"] = per(
        spans.busy(tasks, _op("score_salt")))

    # dedup
    near = [(a, b) for name, a, b in tracer.windows
            if name == "functions.dedup.minhash"]
    exact = [(a, b) for name, a, b in tracer.windows
             if name == "functions.dedup.exact"]
    in_near = lambda t: spans.within(t, near)
    m["functions.dedup.signature_busy_s"] = per(
        spans.busy(tasks, _op("sig_fn")))
    m["functions.dedup.verify_busy_s"] = per(spans.busy(
        tasks, lambda t: in_near(t) and _op(*_VERIFY_OPS)(t)))
    m["functions.dedup.band_exchange_busy_s"] = per(spans.busy(
        tasks, lambda t: in_near(t) and not _op("sig_fn", *_VERIFY_OPS)(t)))
    m["functions.dedup.exact_busy_s"] = per(
        spans.busy(tasks, lambda t: spans.within(t, exact)))
    if near:
        m["functions.dedup.near_dup_recall"] = wl.detail()["near_dup_recall"]

    # Ray runtime and the trace itself
    m["ray.tasks"] = per(ev["n_tasks"])
    m["ray.task_overhead_s"] = per(ev["overhead_s"])
    m["trace.coverage"] = covered_s(tracer, stages, tasks + ev["phases"],
                                    near + exact) / wall
    untraced = [lat[i] for i in range(len(lat)) if i not in traced] or lat
    m["trace.overhead_ms"] = (statistics.median(lat[i] for i in traced)
                              - statistics.median(untraced)) * 1e3
    m["analysis.tokens_per_s"] = tokens_per_s(wl.corpus)
    units = dict(METRICS)
    return {name: (float(m[name]), units[name]) for name, _ in METRICS}


def covered_s(tracer: spans.Tracer, stages: list, tasks: list[dict],
              dedup_windows: list[tuple[float, float]]) -> float:
    """Time of the traced operations that a reported per-layer time
    accounts for: the self time of the driver spans behind the ``_ms``
    metrics, the build stage times, and for dedup the wall time during
    which at least one worker ran a task behind the ``_busy_s`` metrics or
    a Ray per-task phase (``ray.task_overhead_s``). The harness's own spans around ``build_index`` and the dedup
    calls count for nothing, so time no layer metric explains is
    uncovered."""
    spans_s = sum(v for k, v in tracer.self_s.items() if k in REPORTED_SPANS)
    stage_s = sum(s["forward_s"] + s["docmeta_s"] + s["postings_s"]
                  for _, s in stages)
    worker_s = union_s(clip(tasks, dedup_windows))
    return spans_s + stage_s + worker_s
