"""The four workloads. Each has ``prepare`` (one set-up pass: inputs,
and for the query workloads the index and engines; safe to repeat),
``warm_up`` (one untimed pass of the operation mix, so the cold first-call
cost stays out of the timed loop), ``op`` (one timed operation, closed
loop, one outstanding request), ``verify`` (checks one operation's output,
outside the timed region) and ``final_checks`` (cross-path checks after
the timed loop). ``verify`` and ``final_checks`` return problems
keyed by operation number; an operation with a problem counts as
failed."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import time

import numpy as np
import pyarrow.parquet as pq

from . import checks, gen
from .spans import Tracer

K = 20
BUILD_CONFIG = dict(num_buckets=16, docid_partitions=16, merge_salts=4,
                    tokenize_batch_size=1024)
N_INPUT_FILES = 8
# rows of the index the query workloads serve (the documents table that
# the repository's own benchmark indexes has 5,000; 3,000 keeps three
# set-up passes per run affordable)
INDEX_ROWS = 3000


def _models():
    from search_engines_ray.query.models import BM25Model, IndriModel
    return {"bm25": BM25Model(k1=1.2, b=0.75),
            "indri": IndriModel(mu=2500, lambda_=0.4)}


def _write_pages(table, path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    n = table.num_rows
    for i in range(N_INPUT_FILES):
        lo, hi = i * n // N_INPUT_FILES, (i + 1) * n // N_INPUT_FILES
        pq.write_table(table.slice(lo, hi - lo),
                       os.path.join(path, f"part-{i:02d}.parquet"))
    return path


def _build(pages_dir: str, index_dir: str) -> dict:
    import ray
    from search_engines_ray.index import IndexBuildConfig, build
    shutil.rmtree(index_dir, ignore_errors=True)
    return build.build_index(ray.data.read_parquet(pages_dir), index_dir,
                             IndexBuildConfig(**BUILD_CONFIG),
                             input_token=pages_dir, resume=False)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def _oracle_module(root: str):
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(root, "tests", "oracle.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Workload:
    name = ""
    unit = ""                  # what ``items`` counts
    corpus: gen.Corpus
    has_index = True

    def __init__(self, seed: int, work: str, root: str):
        self.seed, self.work, self.root = seed, work, root
        self.tracer = Tracer()
        self.pages_dir = os.path.join(work, "pages")
        self.index_dir = os.path.join(work, "index")

    def input_bytes(self) -> int:
        return int(sum(len(t.encode()) for t in self.corpus.texts()))

    def final_checks(self) -> dict[int, list[str]]:
        return {}

    def detail(self) -> dict:
        return {}


class Build(Workload):
    """``build_index`` over a Parquet pages table: analysis + index.build
    + varbyte encode; the query layers stay idle."""
    name, unit = "build", "docs"
    N_DOCS = 1000

    def prepare(self) -> None:
        self.corpus = gen.corpus(self.seed, self.N_DOCS)
        _write_pages(self.corpus.table(), self.pages_dir)
        rng = np.random.default_rng([self.seed, 5])
        words = [w for w in range(len(self.corpus.vocab))
                 if self.corpus.vocab[w] not in gen.STOPWORDS]
        self.df_want = {str(self.corpus.vocab[w]): self.corpus.doc_freq(w)
                        for w in rng.choice(words, size=6, replace=False)}
        self.in_bytes = self.input_bytes()

    def warm_up(self) -> None:
        _build(self.pages_dir, self.index_dir)
        self.stages: dict[int, tuple[float, dict]] = {}
        self.bytes_written: list[int] = []

    def op(self, i: int):
        t0 = time.time()
        self.stages[i] = (t0, _build(self.pages_dir, self.index_dir))
        return self.N_DOCS

    def verify(self, i: int) -> list[str]:
        from search_engines_ray.index import IndexReader
        with open(os.path.join(self.index_dir, "stats.json")) as fh:
            stats = json.load(fh)
        bad = checks.index_stats(stats, self.corpus.n_docs,
                                 int(self.corpus.ids.size))
        got = IndexReader(self.index_dir).postings_many(
            list(self.df_want), "body", positions=False)
        bad += checks.doc_freqs({t: p.df for t, p in got.items()},
                                self.df_want)
        self.bytes_written.append(dir_bytes(self.index_dir))
        return bad


class _QueryWorkload(Workload):
    """Serves queries over an index of ``INDEX_ROWS`` generated rows."""
    unit = "queries"

    def prepare(self) -> None:
        from search_engines_ray.index import IndexReader
        from search_engines_ray.query.eval import QueryEngine
        self.corpus = gen.corpus(self.seed, INDEX_ROWS)
        _write_pages(self.corpus.table(), self.pages_dir)
        _build(self.pages_dir, self.index_dir)
        # opened as a user opens it: no dense doclens/external_ids warm-up
        reader = IndexReader(self.index_dir)
        self.engines = {m: QueryEngine(reader, model)
                        for m, model in _models().items()}

    def driver_search(self, kind: str, q: str):
        return self.engines[gen.KINDS[kind][0]].search(q, k=K)

    def batch_search(self, entry: str, queries: list[tuple[str, str]]):
        from search_engines_ray.query import distributed
        model = _models()["indri" if entry.startswith("indri") else "bm25"]
        fn = getattr(distributed, {
            "bm25_batch": "bm25_batch_search",
            "indri_batch": "indri_batch_search",
            "bm25_structured": "bm25_structured_batch_search",
            "indri_structured": "indri_structured_batch_search"}[entry])
        return fn(self.index_dir, queries, model, k=K)

    def reference(self, kind: str, q: str):
        """Driver-path result from a reference engine per model, opened
        after the timed loop (so it shares no cache with it)."""
        from search_engines_ray.index import IndexReader
        from search_engines_ray.query.eval import QueryEngine
        if not hasattr(self, "ref_engines"):
            reader = IndexReader(self.index_dir)
            self.ref_engines = {m: QueryEngine(reader, model)
                                for m, model in _models().items()}
        return self.ref_engines[gen.KINDS[kind][0]].search(q, k=K)

    def oracle_sample(self, pairs: list[tuple[str, str]],
                      results: dict) -> dict[tuple[str, str], list[str]]:
        """Engine results of a seeded sample against ``oracle_search``."""
        oracle = _oracle_module(self.root)
        from search_engines_ray.query.parser import QueryParser
        idx = oracle.OracleIndex(self.corpus.table().to_pandas())
        parser, models = QueryParser(), _models()
        bad = {}
        for kind, q in pairs:
            model = models[gen.KINDS[kind][0]]
            plan = parser.parse(q, model.default_op)
            rows = oracle.oracle_search(idx, plan, model, k=K)
            bad[(kind, q)] = checks.oracle_ranking(results[(kind, q)], rows,
                                                   f"oracle {q!r}")
        return bad

    def sample(self, distinct: list[tuple[str, str]], n: int, salt: int):
        rng = np.random.default_rng([self.seed, salt])
        by_kind: dict[str, list] = {}
        for kq in distinct:
            by_kind.setdefault(kq[0], []).append(kq)
        out = []
        for kind in sorted(by_kind):
            qs = by_kind[kind]
            pick = rng.choice(len(qs), size=min(n, len(qs)), replace=False)
            out.extend(qs[i] for i in sorted(pick))
        return out


class QueryDriver(_QueryWorkload):
    """One long-lived ``QueryEngine`` per model serving the query stream:
    query.parser + query.eval + index.reader, no Ray tasks."""
    name = "query_driver"

    def warm_up(self) -> None:
        for kind, q in gen.driver_stream(self.corpus, self.seed + 1_000_003,
                                         48):
            self.driver_search(kind, q)
        self.stream = gen.driver_stream(self.corpus, self.seed, 20000)
        self.results: dict = {}         # (kind, query) -> first result
        self.ops_of: dict = {}          # (kind, query) -> operation numbers

    def op(self, i: int):
        kind, q = self.stream[i % len(self.stream)]
        self.last = (kind, q, self.driver_search(kind, q))
        return 1

    def verify(self, i: int) -> list[str]:
        kind, q, res = self.last
        bad = checks.ranking(res, K)
        first = self.results.setdefault((kind, q), res)
        if first is not res and not res.equals(first):
            bad.append("repeated query gave a different result")
        self.ops_of.setdefault((kind, q), []).append(i)
        return bad

    def final_checks(self) -> dict[int, list[str]]:
        """Rank identity against the distributed batch path for a seeded
        sample of the served queries, and the oracle for a smaller one."""
        distinct = sorted(self.results)
        bad: dict[tuple[str, str], list[str]] = {}
        by_entry: dict[str, list] = {}
        for kind, q in self.sample(distinct, 4, 6):
            by_entry.setdefault(gen.KINDS[kind][2], []).append((kind, q))
        for entry, kqs in by_entry.items():
            got = self.batch_search(
                entry, [(str(j), q) for j, (_, q) in enumerate(kqs)])
            got = got.to_pandas()
            for j, kq in enumerate(kqs):
                sub = got[got["qid"] == str(j)].reset_index(drop=True)
                bad.setdefault(kq, []).extend(checks.same_ranking(
                    self.results[kq], sub, f"batch vs driver {kq[1]!r}"))
        for kq, b in self.oracle_sample(self.sample(distinct, 1, 7),
                                        self.results).items():
            bad.setdefault(kq, []).extend(b)
        out: dict[int, list[str]] = {}
        for kq, b in bad.items():
            if b:
                for i in self.ops_of[kq]:
                    out[i] = b
        return out

    def detail(self) -> dict:
        return {"distinct_queries": len(self.results)}


class QueryBatch(_QueryWorkload):
    """Batches through the distributed entry points, one stateless Ray
    task per salt: query.distributed + index.varbyte."""
    name = "query_batch"

    def warm_up(self) -> None:
        for entry, kqs in gen.batch_stream(self.corpus, self.seed + 1_000_003,
                                           len(gen.BATCHES)):
            self.batch_search(entry, [(f"q{j}", q)
                                      for j, (_, q) in enumerate(kqs)])
        self.stream = gen.batch_stream(self.corpus, self.seed, 3000)
        self.batches: list = []
        self.n_distinct = 0

    def op(self, i: int):
        entry, kqs = self.stream[i % len(self.stream)]
        res = self.batch_search(entry,
                                [(f"q{j}", q) for j, (_, q) in enumerate(kqs)])
        self.last = (entry, kqs, res)
        return len(kqs)

    def verify(self, i: int) -> list[str]:
        self.batches.append((i,) + self.last)
        return []

    def final_checks(self) -> dict[int, list[str]]:
        """Every query of every batch is a valid ranking; one seeded query
        per batch is rank-identical to the driver engine; the oracle
        checks a seeded sample of those."""
        rng = np.random.default_rng([self.seed, 9])
        want: dict = {}
        out: dict[int, list[str]] = {}
        for i, entry, kqs, res in self.batches:
            df = res.to_pandas()
            bad = []
            pick = int(rng.integers(0, len(kqs)))
            for j, kq in enumerate(kqs):
                sub = df[df["qid"] == f"q{j}"].reset_index(drop=True)
                bad += checks.ranking(sub, K)
                if j == pick:
                    want.setdefault(kq, self.reference(*kq))
                    bad += checks.same_ranking(sub, want[kq],
                                               f"batch vs driver {kq[1]!r}")
            if bad:
                out[i] = bad
        sampled = self.oracle_sample(self.sample(sorted(want), 1, 7), want)
        for i, entry, kqs, res in self.batches:
            bad = [b for kq in kqs for b in sampled.get(kq, [])]
            if bad:
                out.setdefault(i, []).extend(bad)
        self.n_distinct = len(want)
        return out

    def detail(self) -> dict:
        return {"distinct_queries": self.n_distinct}


class Dedup(Workload):
    """``minhash_lsh_dedup`` then ``exact_dedup`` over a pages table with
    near and verbatim copies at the measured shares: functions.dedup."""
    name, unit = "dedup", "docs"
    has_index = False
    N_DOCS = 1000

    def prepare(self) -> None:
        self.corpus = gen.corpus(self.seed, self.N_DOCS)
        table = self.corpus.dedup_table()
        self.pages = table.to_pandas()
        _write_pages(table.drop(["src"]), self.pages_dir)

    def warm_up(self) -> None:
        self.op(-1)
        self.recalls: list[float] = []

    def op(self, i: int):
        import ray
        from search_engines_ray.functions import dedup
        ds = ray.data.read_parquet(self.pages_dir)
        with self.tracer.span("functions.dedup.minhash"):
            near = dedup.minhash_lsh_dedup(ds, text_col="text",
                                           id_col="doc_id").to_pandas()
        with self.tracer.span("functions.dedup.exact"):
            exact = dedup.exact_dedup(ds, text_col="text",
                                      id_col="doc_id").to_pandas()
        self.last = (near, exact)
        return self.N_DOCS

    def verify(self, i: int) -> list[str]:
        near, exact = self.last
        self.recalls.append(checks.near_dup_recall(near, self.pages))
        return (checks.near_dup_groups(near, self.pages)
                + checks.exact_kept(exact, self.pages))

    def detail(self) -> dict:
        return {"near_dup_recall": float(np.median(self.recalls))}


WORKLOADS = {w.name: w for w in (Build, QueryDriver, QueryBatch, Dedup)}
