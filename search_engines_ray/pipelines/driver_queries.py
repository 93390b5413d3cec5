"""Driver-contract pipelines (``__ray_entry__.queries()``) and their
DuckDB oracle SQL (``__ray_entry__.oracle_sql()``).

Each entry is declared once: ``@entry`` registers a ``q_<name>``
function as ``<name>``, or an entry builder (``_search_entry``,
``_batch_entry``, ``_federated_entry``, ...) registers a parameterized
twin; ``oracle(fn, sql)`` attaches the SQL next to where it is written.
``QUERIES`` and ``ORACLE_SQL`` are the two dicts these calls fill, and
both refuse a name twice. Shared SQL pieces (the BM25 idf and tf
weight, the ``tok``/``doclen``/``stats`` prologue, the wildcard
``vocab``) come from one fragment builder each.

Each oracle-checked pipeline uses the *simple* analyzer mode
(``[a-z0-9]+`` runs on lowercased text) so DuckDB's
``string_split_regex(lower(text), '[^a-z0-9]+')`` reproduces tokenization
exactly; floats are rounded to 6 dp on both sides AFTER ranking. Ranked
pipelines order by (raw score desc, id asc) before rounding, so both
sides cut the same top-k set.

Rows-only pipelines (positional operators, PRF, sketch dedup, LSH ANN,
multimodal) exercise the full-analyzer engine; their correctness lives in
the pytest oracle suite (tests/oracle.py) instead.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..analysis.tokenizer import LUCENE_STOP_WORDS, simple_tokenize
from ..functions.text import round6
from ..index.build import IndexBuildConfig, build_index
from ..index.reader import IndexReader
from ..query.eval import QueryEngine
from ..query.models import (
    BM25Model, IndriModel, RankedBooleanModel, TFIDFModel,
    UnrankedBooleanModel,
)
from ..query.sdm import sdm_query
from .corpus import pages_from_documents

_IDX_ROOT = "/tmp/se_ray_indexes"

# The registry ``__ray_entry__`` serves: entry name → pipeline, and entry
# name → DuckDB oracle SQL for the oracle-checked subset. ``@entry`` and
# the entry builders fill QUERIES; ``oracle`` fills ORACLE_SQL next to
# the SQL it attaches. Both refuse a second registration of a name, so a
# duplicate cannot silently shadow an earlier entry.
QUERIES: dict = {}
ORACLE_SQL: dict[str, str] = {}


def entry(fn):
    """Register ``fn`` under its own name minus the ``q_`` prefix."""
    name = fn.__name__.removeprefix("q_")
    if not fn.__name__.startswith("q_") or name in QUERIES:
        raise ValueError(f"cannot register entry {fn.__name__!r}")
    QUERIES[name] = fn
    return fn


def oracle(fn, sql: str) -> None:
    """Attach the oracle SQL of the registered entry ``fn``."""
    name = fn.__name__.removeprefix("q_")
    if QUERIES.get(name) is not fn or name in ORACLE_SQL:
        raise ValueError(f"cannot attach oracle SQL to {fn.__name__!r}")
    ORACLE_SQL[name] = sql


def _register(fn, name: str, sql: str | None):
    """Name a builder's pipeline ``q_<name>``, register it and attach
    its oracle SQL (None = rows-only)."""
    fn.__name__ = fn.__qualname__ = f"q_{name}"
    entry(fn)
    if sql is not None:
        oracle(fn, sql)
    return fn


# the models every engine entry ranks with, parameters as the oracles
_BM25 = BM25Model(k1=1.2, b=0.75)
_INDRI = IndriModel(mu=2500, lambda_=0.4)
_RANKED = RankedBooleanModel()
_UNRANKED = UnrankedBooleanModel()


def _n_matches(res: pa.Table) -> pa.Table:
    return pa.table({"n_matches": pa.array([res.num_rows], pa.int64())})


def _search_entry(name: str, index, model, query: str, k: int,
                  sql: str | None = None, table=None, **search_kw):
    """Entry ``name``: ``QueryEngine(index(sf_dir), model)`` searches
    ``query`` for the top ``k`` → ``table(result)`` (default: the ranked
    (doc_id, score) table); ``search_kw`` go to ``search``."""
    def fn(sf_dir: str):
        res = QueryEngine(index(sf_dir), model).search(query, k=k,
                                                       **search_kw)
        return (table or _ranked_to_table)(res)
    return _register(fn, name, sql)


def _federated_entry(name: str, model, query: str, sql: str):
    """Entry ``name``: ``query`` over the two half-corpus segments of
    ``get_half_index_paths`` through one ``FederatedEngine`` (no
    physical merge) → top-10 (doc_id, score)."""
    def fn(sf_dir: str):
        from ..query.federated import FederatedEngine
        readers = [IndexReader(p)
                   for p in get_half_index_paths(sf_dir, "simple")]
        res = FederatedEngine(readers, model).search(query, k=10)
        return _ranked_to_table(res)
    return _register(fn, name, sql)


def _batch_entry(name: str, search: str, queries: list, sql: str,
                 index=None, **kw):
    """Entry ``name``: ``query.distributed.<search>`` over the batch
    ``queries`` on ``index(sf_dir)`` (default: the simple index) →
    (doc_id, score), led by qid when the batch holds several queries."""
    def fn(sf_dir: str):
        from ..query import distributed
        reader = (index or _simple_index)(sf_dir)
        res = getattr(distributed, search)(reader.index_dir, queries, **kw)
        t = _ranked_to_table(res)
        return t.add_column(0, "qid", res["qid"]) if len(queries) > 1 else t
    return _register(fn, name, sql)


SIMPLE_TOKS_SQL =("list_filter(string_split_regex(lower(text), '[^a-z0-9]+'), "
                   "x -> len(x) > 0)")
_STOPLIST_SQL = "(" + ",".join(f"'{w}'" for w in sorted(LUCENE_STOP_WORDS)) + ")"
# tokens with 1-based positions (simple mode = dense positions)
POS_TOK_SQL = (f"select doc_id, unnest({SIMPLE_TOKS_SQL}) as term, "
               f"generate_subscripts({SIMPLE_TOKS_SQL}, 1) as pos from documents")


# ------------------------------------------------------- oracle SQL fragments
# One spelling of each shared piece of the oracle SQL. Each builder emits
# the text its call sites used to carry inline; the idf and tf-weight are
# the SQL forms of ``query.kernels.bm25_idf`` / ``bm25_tfw``.

def _tok_cte(src: str = "documents") -> str:
    """``tok``: one (doc_id, term) row per simple-analyzer token."""
    return (f"tok as (\n  select doc_id, unnest({SIMPLE_TOKS_SQL}) as term "
            f"from {src})")


def _doclen_cte(name: str = "doclen", src: str = "tok") -> str:
    """Per-doc token count ``dl`` of the token relation ``src``."""
    return (f"{name} as (select doc_id, count(*)::double as dl from {src} "
            f"group by doc_id)")


def _stats_cte(name: str = "stats", dl: str = "doclen",
               docs: str | None = "documents") -> str:
    """BM25 corpus statistics over the doc-length relation ``dl``:
    ``n`` (rows of ``docs``; omitted when ``docs`` is None), ``dc``
    (docs with a token) and ``suml`` (total tokens)."""
    n = f"\n  (select count(*) from {docs})::double as n," if docs else ""
    return (f"{name} as (select{n}\n"
            f"  (select count(*) from {dl})::double as dc,\n"
            f"  (select sum(dl) from {dl})::double as suml)")


def _bm25_prologue(pos: bool = False, recursive: bool = False) -> str:
    """``with tok, doclen, stats`` — the head of every BM25 oracle;
    ``pos`` adds 1-based token positions to ``tok``."""
    tok = f"tok as ({POS_TOK_SQL})" if pos else _tok_cte()
    head = "with recursive" if recursive else "with"
    return f"{head} {tok},\n{_doclen_cte()},\n{_stats_cte()}"


def _vocab_cte(match: str) -> str:
    """``vocab``: the ≤ 64 distinct terms (term asc) satisfying the
    predicate ``match`` — the engine's wildcard expansion."""
    return (f"vocab as (select distinct term from tok where {match}\n"
            f"          order by term limit 64)")


# Indri collection length ``suml.v`` (the leaf's ctf/|C| denominator)
_SUML_CTE = "suml as (select sum(dl)::double as v from doclen)"

def _idf_sql(n: str, df: str) -> str:
    """BM25 idf clamped at 0 (``kernels.bm25_idf``)."""
    return f"greatest(0.0, ln(({n} - {df} + 0.5)/({df} + 0.5)))"


def _tfw_sql(tf: str, dl: str, stats: str, k1: float = 1.2,
             b: float = 0.75) -> str:
    """BM25 tf saturation with length prior (``kernels.bm25_tfw``); the
    average length is ``stats.suml/stats.dc``."""
    return (f"({tf} / ({tf} + {k1}*((1.0-{b}) + "
            f"{b}*{dl}/({stats}.suml/{stats}.dc))))")


def _build_cfg(**kw) -> IndexBuildConfig:
    """The registry's build settings (16 buckets and docid partitions,
    simple analyzer, body = text), overridden by ``kw``."""
    import ray
    # leave headroom for the read/write task stages: an actor pool that
    # reserves every session CPU starves them and the pipeline stalls
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    cfg = dict(num_buckets=16, docid_partitions=16, analyzer="simple",
               fields={"body": "text"},
               tokenize_concurrency=max(1, min(ncpu - 2, 8)))
    return IndexBuildConfig(**{**cfg, **kw})


def get_index(sf_dir: str, mode: str, fields: dict | None = None,
              attributes: dict | None = None) -> IndexReader:
    """Build (or resume) the index for one sf_dir + analyzer mode (+
    optional field map, e.g. body+url, and doc-values attributes);
    cached on disk so repeated queries() calls are cheap."""
    fields = fields or {"body": "text"}
    key = f"{sf_dir}|{sorted(fields.items())}"
    if attributes:
        key += f"|attrs={sorted(attributes.items())}"
    tag = hashlib.md5(key.encode()).hexdigest()[:8]
    path = os.path.join(_IDX_ROOT, f"{tag}_{mode}")
    os.makedirs(path, exist_ok=True)
    cfg = _build_cfg(analyzer=mode, fields=fields, attributes=attributes)
    build_index(pages_from_documents(sf_dir), path, cfg,
                input_token=sf_dir, resume=True)
    return IndexReader(path)


def _simple_index(sf_dir: str) -> IndexReader:
    return get_index(sf_dir, "simple")


def _url_index(sf_dir: str) -> IndexReader:
    """Two fields: body = text, url = the tokenized page url."""
    return get_index(sf_dir, "simple", fields={"body": "text", "url": "url"})


def _resumed_index(sf_dir: str, label: str, pages, name: str | None = None,
                   **cfg) -> IndexReader:
    """Build (or resume) the index of ``pages`` (build settings
    ``_build_cfg(**cfg)``), cached on disk like ``get_index``."""
    tag = hashlib.md5(f"{sf_dir}|{label}".encode()).hexdigest()[:8]
    path = os.path.join(_IDX_ROOT, f"{tag}_{name or 'simple_' + label}")
    os.makedirs(path, exist_ok=True)
    build_index(pages, path, _build_cfg(**cfg),
                input_token=f"{sf_dir}|{label}", resume=True)
    return IndexReader(path)


def _derived_index(sf_dir: str, label: str, name: str, make,
                   done: str = "stats.json") -> IndexReader:
    """An index made from other indexes by ``make(path)``, cached on
    disk: ``make`` runs only while ``done`` is missing from ``path``,
    over a cleared directory (no half-written appends)."""
    import shutil
    tag = hashlib.md5(f"{sf_dir}|{label}".encode()).hexdigest()[:8]
    path = os.path.join(_IDX_ROOT, f"{tag}_{name}")
    if not os.path.exists(os.path.join(path, done)):
        shutil.rmtree(path, ignore_errors=True)
        make(path)
    return IndexReader(path)


def _segment_paths(sf_dir: str, label: str, mode: str, n: int,
                   prefix: str) -> list[str]:
    """``n`` 'crawl segment' indexes, segment ``r`` holding the docs
    whose url number is ``r`` mod ``n``; cached on disk."""
    tag = hashlib.md5(f"{sf_dir}|{label}".encode()).hexdigest()[:8]
    cfg = _build_cfg(docid_partitions=8, analyzer=mode)
    paths = []
    for r in range(n):
        def keep(b: pa.Table, r=r) -> pa.Table:
            nums = np.array([int(u.rsplit("/", 1)[1])
                             for u in b["url"].to_pylist()], np.int64)
            return b.filter(pa.array(nums % n == r))
        path = os.path.join(_IDX_ROOT, f"{tag}_{mode}_{prefix}{r}")
        build_index(
            pages_from_documents(sf_dir).map_batches(
                keep, batch_format="pyarrow"),
            path, cfg, input_token=f"{sf_dir}|{prefix}{r}", resume=True)
        paths.append(path)
    return paths


def get_half_index_paths(sf_dir: str, mode: str) -> list[str]:
    """Two half-corpus 'crawl segment' indexes (docs split by url-number
    parity), cached on disk — the shared segment source for the
    physical-merge (``get_merged_index``) and federated-search
    (``bm25_federated_top10``) paths."""
    return _segment_paths(sf_dir, "merged", mode, 2, "h")


def get_merged_index(sf_dir: str, mode: str) -> IndexReader:
    """Incremental-indexing path: build TWO half-corpus indexes (docs
    split by doc_id parity — two independent 'crawl segments'), then
    ``merge_indexes`` them; cached on disk like ``get_index``. Rankings
    over the merged index must equal the one-pass full build's (same
    corpus stats by addition), which the shared BM25 oracle checks."""
    from ..index.merge import merge_indexes
    return _derived_index(
        sf_dir, "merged", f"{mode}_merged",
        lambda path: merge_indexes(*get_half_index_paths(sf_dir, mode), path))


def get_bigram_index(sf_dir: str) -> IndexReader:
    """Index-time phrase acceleration (Lucene ShingleFilter / 'phrase
    index' pattern): the corpus re-tokenizes to word-bigram tokens
    (``w1 || '0' || w2`` — alnum-safe through the simple analyzer), so a
    quoted two-word phrase becomes ONE term lookup instead of a
    positional #NEAR/1 intersection — the classic trade of index bytes
    for phrase-query latency at serving scale. Cached like get_index."""
    def to_bigrams(b: pa.Table) -> pa.Table:
        texts = []
        for t in b["text"].to_pylist():
            toks = simple_tokenize(t or "")
            texts.append(" ".join(f"{x}0{y}"
                                  for x, y in zip(toks, toks[1:])))
        idx = b.schema.get_field_index("text")
        return b.set_column(idx, "text", pa.array(texts, pa.string()))

    return _resumed_index(sf_dir, "bigram", pages_from_documents(
        sf_dir).map_batches(to_bigrams, batch_format="pyarrow"),
        name="bigram")


def _compacted_index(sf_dir: str) -> IndexReader:
    """The merged index after ``compact_index`` rewrote its (doubled)
    salt runs back to the build-time budget."""
    from ..index.merge import compact_index
    src = get_merged_index(sf_dir, "simple").index_dir
    return _derived_index(sf_dir, "merged", "simple_compacted",
                          lambda path: compact_index(src, path,
                                                     merge_salts=4))


def _merged3_index(sf_dir: str) -> IndexReader:
    """``merge_indexes_many`` over three url-residue segment builds."""
    from ..index.merge import merge_indexes_many
    return _derived_index(
        sf_dir, "merged3", "simple_merged3",
        lambda path: merge_indexes_many(
            _segment_paths(sf_dir, "merged3", "simple", 3, "m3s"), path))


def _inlink_index(sf_dir: str) -> IndexReader:
    """Fields body = text and inlink = the anchor text the link graph
    points at each doc (see ``bm25_inlink_top10``)."""
    import ray.data as rd
    from ..functions.graph import anchor_text
    from ..functions.join import shuffle_hash_join

    def make(path: str) -> None:
        docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
        n = docs.count()

        def links_fn(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            src_l, k_l, dst_l, anch = [], [], [], []
            for i, t in zip(ids, b["text"].to_pylist()):
                toks = simple_tokenize(t or "")
                if len(toks) < 2:
                    continue
                a = " ".join(toks[:2])
                for k in range(1, int(i % 3 + 1) + 1):
                    src_l.append(int(i))
                    k_l.append(k)
                    dst_l.append(int((i * 131 + k * 7919) % n))
                    anch.append(a)
            return pa.table({
                "src": pa.array(np.asarray(src_l, np.int64)),
                "k": pa.array(np.asarray(k_l, np.int64)),
                "dst": pa.array(np.asarray(dst_l, np.int64)),
                "anchor": pa.array(anch, pa.string())})

        il = anchor_text(docs.map_batches(links_fn, batch_format="pyarrow"),
                         target_col="dst", order_cols=("src", "k"),
                         num_parts=16) \
            .map_batches(lambda b: pa.table(
                {"doc_id": b["dst"], "inlink": b["inlink"]}),
                batch_format="pyarrow")
        joined = shuffle_hash_join(docs, il, left_on="doc_id", how="left",
                                   num_parts=16)

        def to_pages(b: pd.DataFrame) -> pa.Table:
            return pa.table({
                "url": pa.array([f"http://docs.example.com/{i:08d}"
                                 for i in b["doc_id"]], pa.string()),
                "text": pa.array(b["text"].fillna("").tolist(), pa.string()),
                "inlink": pa.array(b["inlink"].fillna("").tolist(),
                                   pa.string())})

        pages = joined.map_batches(to_pages, batch_format="pandas")
        build_index(pages, path,
                    _build_cfg(docid_partitions=8,
                               fields={"body": "text", "inlink": "inlink"}),
                    input_token=f"{sf_dir}|inlink", resume=True)
    return _derived_index(sf_dir, "inlink", "simple_inlink", make)


def _deleted_index(sf_dir: str) -> IndexReader:
    """A dedicated simple-analyzer index with every ``doc_id % 5 == 0``
    document tombstoned (``delete_docs``) — kept separate from the
    shared ``get_index`` cache, which other queries must see
    undeleted."""
    from ..index.merge import delete_docs

    def make(path: str) -> None:
        build_index(pages_from_documents(sf_dir), path, _build_cfg(),
                    input_token=f"{sf_dir}|del", resume=True)
        n = IndexReader(path).n_docs
        delete_docs(path, [f"http://docs.example.com/{i:08d}"
                           for i in range(0, n, 5)])
    return _derived_index(sf_dir, "deleted", "simple_deleted", make,
                          done="deletes.json")


def _purged_index(sf_dir: str) -> IndexReader:
    """``compact_index`` over the tombstoned index: the deleted docs
    are dropped, survivors renumbered and every statistic refreshed."""
    from ..index.merge import compact_index
    src = _deleted_index(sf_dir).index_dir
    return _derived_index(sf_dir, "deleted", "simple_purged",
                          lambda path: compact_index(src, path,
                                                     merge_salts=4))


def _positionless_index(sf_dir: str) -> IndexReader:
    return _resumed_index(sf_dir, "nopos", pages_from_documents(sf_dir),
                          store_positions=False)


def _synonym_index(sf_dir: str) -> IndexReader:
    return _resumed_index(sf_dir, "idxsyn", pages_from_documents(sf_dir),
                          index_synonyms={"dup": ["duplicate"]})


# BM25 phrase search served from the bigram index: the phrase 'fast
# sort' is one term; tf = adjacency count, doclen = per-doc bigram count
# (the bigram field's own statistics — distinct from the derived-#NEAR/1
# scoring, which keeps unigram field lengths).
_search_entry("phrase_index_top10", get_bigram_index, _BM25, "fast0sort", 10,
              f"""
with tok as ({POS_TOK_SQL}),
big as (
  select a.doc_id, a.term || '0' || b.term as term
  from tok a join tok b on a.doc_id = b.doc_id and b.pos = a.pos + 1),
{_doclen_cte(src='big')},
{_stats_cte()},
tfv as (select doc_id, count(*)::double as tf from big
        where term = 'fast0sort' group by doc_id),
dfv as (select count(*)::double as df from tfv),
scored as (
  select tfv.doc_id,
         {_idf_sql('stats.n', 'dfv.df')}
         * {_tfw_sql('tfv.tf', 'doclen.dl', 'stats')} as raw
  from tfv join doclen using (doc_id)
  cross join stats cross join dfv)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
""")


# Anchor-text ('inlink') field, end to end: the deterministic link
# graph's anchors (first two tokens of the linking doc) aggregate per
# target via ``graph.anchor_text`` (one keyed exchange, ordered concat),
# join onto the corpus as one more indexed field, and a two-field
# ``#SUM(hash.inlink fast.body)`` ranks with per-field stats — the
# reference's ClueWeb inlink field (``QryParser.java:156-158``) produced
# from the graph instead of pre-baked.
_search_entry("bm25_inlink_top10", _inlink_index, _BM25,
              "#sum(hash.inlink fast.body)", 10, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
n0 as (select count(*)::bigint as c from documents),
anch as (select t.doc_id as src, k.k,
           (t.doc_id * 131 + k.k * 7919) % (select c from n0) as dst,
           array_to_string(toks[1:2], ' ') as anchor
         from t cross join (values (1), (2), (3)) k(k)
         where len(toks) >= 2 and k.k <= t.doc_id % 3 + 1),
il as (select dst as doc_id,
         string_agg(anchor, ' ' order by src, k) as inlink
       from anch group by dst),
tok as (select doc_id, unnest(toks) as term from t),
itok as (select doc_id,
           unnest(list_filter(string_split_regex(lower(inlink),
                  '[^a-z0-9]+'), x -> len(x) > 0)) as term from il),
nv as (select count(*)::double as v from documents),
{_doclen_cte('bdl', 'tok')},
{_stats_cte('bstats', 'bdl', docs=None)},
{_doclen_cte('idl', 'itok')},
{_stats_cte('istats', 'idl', docs=None)},
btf as (select doc_id, count(*)::double as tf from tok
        where term = 'fast' group by doc_id),
bdf as (select count(*)::double as df from btf),
itf as (select doc_id, count(*)::double as tf from itok
        where term = 'hash' group by doc_id),
idf as (select count(*)::double as df from itf),
bscore as (select btf.doc_id,
    {_idf_sql('nv.v', 'bdf.df')}
      * {_tfw_sql('btf.tf', 'bdl.dl', 'bstats')} as s
  from btf cross join bdf join bdl using (doc_id)
  cross join nv cross join bstats),
iscore as (select itf.doc_id,
    {_idf_sql('nv.v', 'idf.df')}
      * {_tfw_sql('itf.tf', 'idl.dl', 'istats')} as s
  from itf cross join idf join idl using (doc_id)
  cross join nv cross join istats),
scored as (select coalesce(b.doc_id, i.doc_id) as doc_id,
    coalesce(b.s, 0.0) + coalesce(i.s, 0.0) as raw
  from bscore b full outer join iscore i on b.doc_id = i.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
""")


def _docid_of_external(ext_ids: list[str]) -> np.ndarray:
    """external_id 'http://docs.example.com/00000042' → doc_id 42."""
    return np.array([int(e.rsplit("/", 1)[1]) for e in ext_ids], dtype=np.int64)


def _ranked_to_table(res: pa.Table) -> pa.Table:
    ids = _docid_of_external(res["external_id"].to_pylist())
    scores = round6(res["score"].to_pylist())
    return pa.table({"doc_id": pa.array(ids), "score": pa.array(scores)})


# ------------------------------------------------------------------ queries

@entry
def q_doc_token_counts(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        n = [len(simple_tokenize(t or "")) for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pa.array(np.asarray(n, dtype=np.int64))})
    return ds.map_batches(fn, batch_format="pyarrow")


oracle(q_doc_token_counts, f"""
select doc_id, len({SIMPLE_TOKS_SQL})::bigint as n_tokens from documents
""")


@entry
def q_term_df_ctf_top50(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Sum
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        df: dict[str, int] = {}
        ctf: dict[str, int] = {}
        for t in b["text"].to_pylist():
            toks = simple_tokenize(t or "")
            for w in toks:
                ctf[w] = ctf.get(w, 0) + 1
            for w in set(toks):
                df[w] = df.get(w, 0) + 1
        terms = sorted(ctf)
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "df": pa.array([df[t] for t in terms], pa.int64()),
            "ctf": pa.array([ctf[t] for t in terms], pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("df", alias_name="df"),
                                   Sum("ctf", alias_name="ctf"))

    # per-partition top-50 cut BEFORE the driver collect: the groupby
    # output has unique terms, so a row outside its block's top 50 by
    # (ctf desc, term asc) cannot be in the global top 50 — the driver
    # merges ≤ 50×num_blocks rows, never the whole vocabulary
    def block_top50(bt: pa.Table) -> pa.Table:
        bdf = bt.to_pandas().sort_values(["ctf", "term"],
                                         ascending=[False, True]).head(50)
        return pa.Table.from_pandas(bdf.reset_index(drop=True),
                                    preserve_index=False)

    parts = pa.concat_tables(
        agg.map_batches(block_top50, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_size=None, batch_format="pyarrow"))
    pdf = parts.to_pandas().sort_values(["ctf", "term"],
                                        ascending=[False, True]).head(50)
    return pa.Table.from_pandas(pdf.reset_index(drop=True), preserve_index=False)


oracle(q_term_df_ctf_top50, f"""
with {_tok_cte()}
select term, count(distinct doc_id)::bigint as df, count(*)::bigint as ctf
from tok group by term order by ctf desc, term asc limit 50
""")


# "dup" is the one low-df term in the synthetic vocabulary; the others
# exercise the idf floor (df > N/2 → idf clamped to 0 on both sides)
BM25_QUERY_TERMS = ("dup", "line", "hash")


def _bm25_sql(terms: tuple[str, ...], k: int, raw: bool = False,
              doc_filter: str = "", k1: float = 1.2, b: float = 0.75) -> str:
    """Standalone DuckDB BM25 top-k SQL for a bag of words — the single
    template behind every BM25 oracle (single query, batch, rerankers).
    ``raw=True`` keeps the unrounded score (for consumers that re-rank
    and round later, like LeToR/xQuAD). ``doc_filter`` (a boolean SQL
    predicate over ``tfs.doc_id``) applies a metadata facet filter
    BEFORE the top-k cut; corpus stats stay corpus-wide — the filtered
    -search semantics of QueryEngine.search(allowed=...)."""
    in_list = ",".join(f"'{t}'" for t in terms)
    where = f"where {doc_filter}" if doc_filter else ""
    select = ("select doc_id, raw from scored order by raw desc, doc_id asc"
              if raw else
              "select doc_id, floor(raw*1000000 + 0.5)/1000000 as score "
              "from scored order by raw desc, doc_id asc")
    return f"""
{_bm25_prologue()},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ({in_list}) group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select tfs.doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats', k1, b)})
           as raw
  from tfs
  join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats
  {where}
  group by tfs.doc_id)
{select} limit {k}
"""


BM25_QUERY = " ".join(BM25_QUERY_TERMS)
SQL_INDEX_BM25_TOP10 = _bm25_sql(BM25_QUERY_TERMS, 10)

# The standard BM25 query over the one-pass build, then over the other
# builds of the same corpus: each build path must be ranking-invisible,
# so they share its oracle unless they change the corpus itself.
_search_entry("index_bm25_top10", _simple_index, _BM25, BM25_QUERY, 10,
              SQL_INDEX_BM25_TOP10)
# BM25 over a MERGED index (two parity-split segment builds folded by
# ``merge_indexes``) — same oracle as ``index_bm25_top10``: the segment
# merge must be ranking-invisible.
_search_entry("bm25_merged_top10", lambda sf: get_merged_index(sf, "simple"),
              _BM25, BM25_QUERY, 10, SQL_INDEX_BM25_TOP10)
# BM25 over the merged index AFTER ``compact_index`` rewrote its
# (doubled) salt runs back to the build-time budget — the LSM compaction
# step; also shares the full-build BM25 oracle, so the whole segment
# lifecycle (split builds → merge → compact) is proven
# ranking-invisible.
_search_entry("bm25_compacted_top10", _compacted_index, _BM25, BM25_QUERY,
              10, SQL_INDEX_BM25_TOP10)
# BM25 over a 3-way SINGLE-PASS merged index (``merge_indexes_many``
# over three url-residue segment builds) — same oracle as
# ``index_bm25_top10``: the N-way fold must be ranking-invisible exactly
# like the binary one.
_search_entry("bm25_merged3_top10", _merged3_index, _BM25, BM25_QUERY, 10,
              SQL_INDEX_BM25_TOP10)
# BM25 over a ``store_positions=False`` index — the BoW-only footprint
# mode (positions are the bulk of postings bytes at 100 TB); scoring
# must be identical to the positional build, so it shares the full BM25
# oracle.
_search_entry("bm25_positionless_top10", _positionless_index, _BM25,
              BM25_QUERY, 10, SQL_INDEX_BM25_TOP10)
# Tombstoned search: every ``doc_id % 5 == 0`` doc deleted via
# ``delete_docs``; BM25 masks them out AFTER scoring while corpus
# statistics stay as-built — exactly the oracle's candidate-filter
# semantics (Lucene's deletes-until-merge).
_search_entry("bm25_deleted_top10", _deleted_index, _BM25, BM25_QUERY, 10,
              _bm25_sql(BM25_QUERY_TERMS, 10,
                        doc_filter="tfs.doc_id % 5 <> 0"))
# The purge half of the delete lifecycle: ``compact_index`` over the
# tombstoned index physically drops the deleted docs, renumbers
# survivors densely and REFRESHES every statistic — so the oracle is
# BM25 over the surviving corpus with live-only stats (unlike the
# tombstone query, whose stats stay corpus-wide): the shared template
# with ``documents`` shadowed by the live subset.
_search_entry("bm25_purged_top10", _purged_index, _BM25, BM25_QUERY, 10,
              SQL_INDEX_BM25_TOP10
              .replace("from documents", "from live_docs")
              .replace("\nwith tok as (",
                       "\nwith live_docs as (select * from documents "
                       "where doc_id % 5 <> 0),\ntok as (", 1))


@entry
def q_index_bm25_maxscore_top10(sf_dir: str):
    """Same query + oracle as ``index_bm25_top10`` but scored through the
    MaxScore/block-max pruned path (query/maxscore.py) — the oracle match
    proves pruning is exact, not approximate."""
    from ..query.maxscore import bm25_maxscore_search
    res = bm25_maxscore_search(_simple_index(sf_dir), BM25_QUERY, k=10,
                               model=_BM25)
    return _ranked_to_table(res)


oracle(q_index_bm25_maxscore_top10, SQL_INDEX_BM25_TOP10)


@entry
def q_bm25_explain_top10(sf_dir: str):
    """Lucene Explanation parity: per-term BM25 factor breakdown
    (tf, df, idf, tf_weight, term_score) for the top-10 docs of the
    standard 3-term query — ``QueryEngine.explain``."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    t = engine.explain(BM25_QUERY, k=10)
    return pa.table({
        "doc_id": pa.array(_docid_of_external(t["external_id"].to_pylist())),
        "term": t["term"],
        "tf": t["tf"],
        "df": t["df"],
        "idf": pa.array(round6(t["idf"].to_pylist())),
        "tf_weight": pa.array(round6(t["tf_weight"].to_pylist())),
        "term_score": pa.array(round6(t["term_score"].to_pylist())),
    })


def _bm25_explain_sql(terms: tuple[str, ...], k: int,
                      k1: float = 1.2, b: float = 0.75) -> str:
    """Per-term factor rows for the top-k docs of ``_bm25_sql`` — the
    same CTE chain, un-summed."""
    in_list = ",".join(f"'{t}'" for t in terms)
    r6 = "floor({}*1000000 + 0.5)/1000000"
    idf = _idf_sql("stats.n", "dfs.df")
    tfw = _tfw_sql("tfs.tf", "doclen.dl", "stats", k1, b)
    return f"""
{_bm25_prologue()},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ({in_list}) group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select tfs.doc_id,
         sum({idf} * {tfw}) as raw
  from tfs join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats group by tfs.doc_id),
topk as (select doc_id from scored order by raw desc, doc_id asc limit {k})
select tfs.doc_id, tfs.term,
       tfs.tf::bigint as tf, dfs.df::bigint as df,
       {r6.format(idf)} as idf,
       {r6.format(tfw)} as tf_weight,
       {r6.format(f"({idf} * {tfw})")} as term_score
from tfs join dfs on tfs.term = dfs.term
join doclen on tfs.doc_id = doclen.doc_id
cross join stats
where tfs.doc_id in (select doc_id from topk)
order by tfs.doc_id, tfs.term
"""


oracle(q_bm25_explain_top10, _bm25_explain_sql(BM25_QUERY_TERMS, 10))


# Champion-list approximate top-k: candidates = union of each
# term's global tf-top-50 postings, scored exactly (full tf,
# corpus-wide df/doclens) — only candidate generation approximates.
_batch_entry("bm25_champion_top10", "bm25_champion_search",
             [("q", BM25_QUERY)], f"""
{_bm25_prologue()},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ({",".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
        group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
champ as (
  select doc_id, term, row_number() over
           (partition by term order by tf desc, doc_id asc) as rn
  from tfs),
cands as (select distinct doc_id from champ where rn <= 50),
scored as (
  select tfs.doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')}) as raw
  from tfs
  join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats
  where tfs.doc_id in (select doc_id from cands)
  group by tfs.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
from scored order by raw desc, doc_id asc limit 10
""", m=50, k=10)


@entry
def q_search_snippets(sf_dir: str):
    """Result-page highlighting: BM25 top-10 → pruned text read of just
    those docs → ``best_passage`` (the 15-token window covering the most
    distinct query terms, candidate starts = hit positions, ties to the
    smallest start)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ..functions.text import best_passage
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    t = engine.search(BM25_QUERY, k=10)
    ids = _docid_of_external(t["external_id"].to_pylist())
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"],
                           filter=pc.field("doc_id").isin(ids.tolist()))
    res = best_passage(docs, list(BM25_QUERY_TERMS), window=15) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.table({
        "doc_id": pa.array(res["doc_id"].to_numpy(np.int64)),
        "start_pos": pa.array(res["start"].to_numpy(np.int64)),
        "n_match": pa.array(res["n_match"].to_numpy(np.int64)),
        "snippet": pa.array(res["snippet"].tolist(), pa.string()),
    })


oracle(q_search_snippets, f"""
with tok as ({POS_TOK_SQL}),
topk as (select doc_id from ({_bm25_sql(BM25_QUERY_TERMS, 10, raw=True)})),
hits as (
  select doc_id, term, pos from tok
  where term in ({",".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
    and doc_id in (select doc_id from topk)),
cover as (
  select s.doc_id, s.pos as s, count(distinct h.term) as c
  from hits s join hits h on h.doc_id = s.doc_id
       and h.pos >= s.pos and h.pos < s.pos + 15
  group by s.doc_id, s.pos),
best as (
  select doc_id, s, c, row_number() over
           (partition by doc_id order by c desc, s asc) as rn
  from cover),
snip as (
  select b.doc_id, b.s, b.c,
         string_agg(t.term, ' ' order by t.pos) as snippet
  from best b join tok t on t.doc_id = b.doc_id
       and t.pos >= b.s and t.pos < b.s + 15
  where b.rn = 1 group by b.doc_id, b.s, b.c)
select doc_id, s::bigint as start_pos, c::bigint as n_match, snippet
from snip order by doc_id
""")


MULTIFIELD_QUERY = "#sum(dup 00000007.url 00000008.url)"
SQL_BM25_MULTIFIELD_TOP10 = f"""
with {_tok_cte()},
utok as (
  select doc_id, unnest(list_filter(string_split_regex(
    lower('http://docs.example.com/' || printf('%08d', doc_id)),
    '[^a-z0-9]+'), x -> len(x) > 0)) as term from documents),
n as (select count(*)::double as v from documents),
{_doclen_cte('bdl', 'tok')},
{_stats_cte('bstats', 'bdl', docs=None)},
{_doclen_cte('udl', 'utok')},
{_stats_cte('ustats', 'udl', docs=None)},
btf as (select doc_id, term, count(*)::double as tf from tok
        where term = 'dup' group by doc_id, term),
bdf as (select term, count(*)::double as df from btf group by term),
utf as (select doc_id, term, count(*)::double as tf from utok
        where term in ('00000007','00000008') group by doc_id, term),
udf as (select term, count(*)::double as df from utf group by term),
bscore as (
  select btf.doc_id,
         sum({_idf_sql('n.v', 'bdf.df')}
             * {_tfw_sql('btf.tf', 'bdl.dl', 'bstats')}) as s
  from btf join bdf using (term) join bdl using (doc_id)
  cross join n cross join bstats group by btf.doc_id),
uscore as (
  select utf.doc_id,
         sum({_idf_sql('n.v', 'udf.df')}
             * {_tfw_sql('utf.tf', 'udl.dl', 'ustats')}) as s
  from utf join udf using (term) join udl using (doc_id)
  cross join n cross join ustats group by utf.doc_id),
scored as (
  select coalesce(b.doc_id, u.doc_id) as doc_id,
         coalesce(b.s, 0.0) + coalesce(u.s, 0.0) as raw
  from bscore b full outer join uscore u on b.doc_id = u.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""

# BM25 #SUM over leaves in TWO fields (body + url) — the
# reference's multi-field model (``QryParser.java:156-158`` field
# whitelist; per-field df/doclen/avglen stats). The url field is the
# tokenized page url, so per-field statistics differ sharply from
# body. Oracle: DuckDB reconstructs the deterministic page url from
# doc_id and scores each field with its own stats.
_search_entry("bm25_multifield_top10", _url_index, _BM25, MULTIFIELD_QUERY, 10,
              SQL_BM25_MULTIFIELD_TOP10)


INDRI_QUERY_TERMS = ("dup", "sort", "merge")
INDRI_QUERY = " ".join(INDRI_QUERY_TERMS)


SQL_INDEX_INDRI_TOP10 = f"""
with {_tok_cte()},
{_doclen_cte()},
{_SUML_CTE},
qterms as (select * from (values ('dup'),('sort'),('merge')) t(term)),
ctfs as (select term, count(*)::double as ctf from tok
         where term in (select term from qterms) group by term),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from qterms) group by doc_id, term),
cands as (select distinct doc_id from tfs),
cells as (
  select c.doc_id, q.term,
         coalesce(tfs.tf, 0.0) as tf, ctfs.ctf, doclen.dl
  from cands c cross join qterms q
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfs on tfs.doc_id = c.doc_id and tfs.term = q.term),
scored as (
  select doc_id,
         product(pow((1.0-0.4)*(tf + 2500.0*(ctf/suml.v))/(dl + 2500.0)
                     + 0.4*(ctf/suml.v), 1.0/3.0)) as raw
  from cells cross join suml group by doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""

_search_entry("index_indri_top10", _simple_index, _INDRI, INDRI_QUERY, 10,
              SQL_INDEX_INDRI_TOP10)


@entry
def q_rare_terms(sf_dir: str):
    """ES ``rare_terms`` agg: body terms with global df ≤ 100, term asc,
    capped at 50 — computed as a Ray Data pipeline OVER THE INDEX'S
    POSTINGS FILES (term/field/df columns only, blobs never read):
    per-salt run dfs sum in one term-keyed groupby, the long tail is
    filtered AFTER the sum (a run-level df ≤ 2 pre-filter would drop
    split terms incorrectly)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ..index.build import POSTINGS_DIR
    reader = _simple_index(sf_dir)
    ds = rd.read_parquet(os.path.join(reader.index_dir, POSTINGS_DIR),
                         columns=["term", "field", "df"],
                         filter=pc.field("field") == "body")

    def rare_only(b: pa.Table) -> pa.Table:
        return b.filter(pc.less_equal(b["sum(df)"], 100))

    rows = (ds.groupby("term").sum("df")
            .map_batches(rare_only, batch_format="pyarrow")
            .sort("term").limit(50).take_all())
    return pa.table({
        "term": pa.array([r["term"] for r in rows], pa.string()),
        "df": pa.array([int(r["sum(df)"]) for r in rows], pa.int64()),
    })


oracle(q_rare_terms, f"""
with tok as (
  select doc_id, unnest(list_distinct({SIMPLE_TOKS_SQL})) as term
  from documents),
v as (select term, count(*)::bigint as df from tok group by term)
select term, df from v where df <= 100 order by term asc limit 50
""")


@entry
def q_rescore_indri_top10(sf_dir: str):
    """Two-phase retrieval (ES rescore / the recall-then-precision
    pattern): BM25 recalls the top-100, Indri re-scores ONLY those
    candidates (``search(allowed=...)`` — corpus statistics stay
    corpus-wide, top-10 cut after the filter). The rescore window
    is candidate-sized; the second phase never touches the corpus."""
    reader = _simple_index(sf_dir)
    bm = QueryEngine(reader, _BM25)
    recall = bm.search(BM25_QUERY, k=100)
    allowed = reader.internal_docids_for(
        recall["external_id"].to_pylist())
    ind = QueryEngine(reader, _INDRI)
    res = ind.search(BM25_QUERY, k=10, allowed=allowed)
    return _ranked_to_table(res)


oracle(q_rescore_indri_top10, f"""
with recall as ( {_bm25_sql(BM25_QUERY_TERMS, 100, raw=True)} ),
{_tok_cte()},
{_doclen_cte()},
{_SUML_CTE},
qterms as (select * from (values ('dup'),('line'),('hash')) t(term)),
ctfs as (select term, count(*)::double as ctf from tok
         where term in (select term from qterms) group by term),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from qterms) group by doc_id, term),
cands as (select distinct doc_id from tfs
          where doc_id in (select doc_id from recall)),
cells as (
  select c.doc_id, q.term,
         coalesce(tfs.tf, 0.0) as tf, ctfs.ctf, doclen.dl
  from cands c cross join qterms q
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfs on tfs.doc_id = c.doc_id and tfs.term = q.term),
scored as (
  select doc_id,
         product(pow((1.0-0.4)*(tf + 2500.0*(ctf/suml.v))/(dl + 2500.0)
                     + 0.4*(ctf/suml.v), 1.0/3.0)) as raw
  from cells cross join suml group by doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
""")


@entry
def q_indri_explain_top10(sf_dir: str):
    """Indri explain parity: one row per (top-10 doc, query term)
    INCLUDING absent terms (their Dirichlet default score is part of the
    geometric mean) — score == product of p^weight, verified by pytest;
    here the factor rows themselves hash-match the un-multiplied SQL."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _INDRI)
    t = engine.explain(INDRI_QUERY, k=10)
    return pa.table({
        "doc_id": pa.array(_docid_of_external(t["external_id"].to_pylist())),
        "term": t["term"],
        "tf": t["tf"],
        "ctf": t["ctf"],
        "p": pa.array(round6(t["p"].to_pylist())),
        "weight": pa.array(round6(t["weight"].to_pylist())),
    })


oracle(q_indri_explain_top10, f"""
with {_tok_cte()},
{_doclen_cte()},
{_SUML_CTE},
qterms as (select * from (values ('dup'),('sort'),('merge')) t(term)),
ctfs as (select term, count(*)::double as ctf from tok
         where term in (select term from qterms) group by term),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from qterms) group by doc_id, term),
cands as (select distinct doc_id from tfs),
cells as (
  select c.doc_id, q.term,
         coalesce(tfs.tf, 0.0) as tf, ctfs.ctf, doclen.dl
  from cands c cross join qterms q
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfs on tfs.doc_id = c.doc_id and tfs.term = q.term),
scored as (
  select doc_id,
         product(pow((1.0-0.4)*(tf + 2500.0*(ctf/suml.v))/(dl + 2500.0)
                     + 0.4*(ctf/suml.v), 1.0/3.0)) as raw
  from cells cross join suml group by doc_id),
topk as (select doc_id from scored order by raw desc, doc_id asc limit 10)
select c.doc_id, c.term, c.tf::bigint as tf, c.ctf::bigint as ctf,
       floor(((1.0-0.4)*(c.tf + 2500.0*(c.ctf/suml.v))/(c.dl + 2500.0)
              + 0.4*(c.ctf/suml.v))*1000000 + 0.5)/1000000 as p,
       floor((1.0/3.0)*1000000 + 0.5)/1000000 as weight
from cells c cross join suml
where c.doc_id in (select doc_id from topk)
order by c.doc_id, c.term
""")


_INDRI_LEAF_SQL = ("((1.0-0.4)*(tf + 2500.0*(ctf/suml.v))/(dl + 2500.0) "
                   "+ 0.4*(ctf/suml.v))")
_WOP_CTE_SQL = f"""
with {_tok_cte()},
{_doclen_cte()},
{_SUML_CTE},
qterms as (select * from (values ('dup', 0.6),('sort', 0.4)) t(term, w)),
ctfs as (select term, count(*)::double as ctf from tok
         where term in (select term from qterms) group by term),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from qterms) group by doc_id, term),
cands as (select distinct doc_id from tfs),
cells as (
  select c.doc_id, q.term, q.w,
         coalesce(tfs.tf, 0.0) as tf, ctfs.ctf, doclen.dl
  from cands c cross join qterms q
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfs on tfs.doc_id = c.doc_id and tfs.term = q.term)
"""

WOP_QUERY = "#wsum( 0.6 dup 0.4 sort )"
WAND_QUERY = "#wand( 0.6 dup 0.4 sort )"
# SDM spine: #WAND of a bag-of-words #AND and a #NEAR/1 ordered-phrase #AND
SDM_QUERY = "#wand( 0.7 #and( fast sort ) 0.3 #and( #near/1( fast sort ) ) )"


SQL_WSUM_INDRI_TOP10 = f"""
{_WOP_CTE_SQL},
scored as (
  select doc_id, sum((w/1.0) * {_INDRI_LEAF_SQL}) as raw
  from cells cross join suml group by doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""

# Indri #WSUM (weighted arithmetic mean with default-score fill,
# QrySopWSum.java:24-70) — oracle-checked.
_search_entry("wsum_indri_top10", _simple_index, _INDRI, WOP_QUERY, 10,
              SQL_WSUM_INDRI_TOP10)


SQL_WAND_INDRI_TOP10 = f"""
{_WOP_CTE_SQL},
scored as (
  select doc_id, product(pow({_INDRI_LEAF_SQL}, w/1.0)) as raw
  from cells cross join suml group by doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""

# Indri #WAND (weighted geometric mean with default-score fill,
# QrySopWAnd.java:20-62) — oracle-checked.
_search_entry("wand_indri_top10", _simple_index, _INDRI, WAND_QUERY, 10,
              SQL_WAND_INDRI_TOP10)


# Same #WAND query + oracle as ``wand_indri_top10`` but scored via
# the distributed structured Indri path, whose salt kernel combines
# the tree with the driver's ``kernels.indri_tree``.
_batch_entry("wand_structured_distributed", "indri_structured_batch_search",
             [("q", WAND_QUERY)], SQL_WAND_INDRI_TOP10, model=_INDRI, k=10)


# Same #WSUM query + oracle as ``wsum_indri_top10`` but scored via
# the distributed structured Indri path (``kernels.indri_tree`` over
# each salt's candidates).
_batch_entry("wsum_structured_distributed", "indri_structured_batch_search",
             [("q", WOP_QUERY)], SQL_WSUM_INDRI_TOP10, model=_INDRI, k=10)


# Mirrors the engine's nesting exactly: s_and = (s_fast*s_sort)^(1/2)
# (Indri #AND k-th root with default-score fill), s_near = the Indri
# leaf over the DERIVED #NEAR/1 list (its own df/ctf, QryIop.getCtf
# semantics), top = s_and^0.7 * s_near^0.3 (#WAND, weights sum 1.0).
# Candidates = match-min union (docs holding either term).
SQL_SDM_STRUCTURED = f"""
with tok as ({POS_TOK_SQL}),
{_doclen_cte()},
{_SUML_CTE},
ctfs as (select term, count(*)::double as ctf from tok
         where term in ('fast','sort') group by term),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ('fast','sort') group by doc_id, term),
neartf as (
  select a.doc_id, count(*)::double as tf
  from tok a join tok b on a.doc_id = b.doc_id and b.pos = a.pos + 1
  where a.term = 'fast' and b.term = 'sort' group by a.doc_id),
nearctf as (select coalesce(sum(tf), 0.0)::double as ctf from neartf),
cands as (select distinct doc_id from tfs),
cells as (
  select c.doc_id, q.term, coalesce(tfs.tf, 0.0) as tf, ctfs.ctf, doclen.dl
  from cands c cross join (values ('fast'),('sort')) q(term)
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfs on tfs.doc_id = c.doc_id and tfs.term = q.term),
andsc as (
  select doc_id, pow(product({_INDRI_LEAF_SQL}), 0.5) as s1
  from cells cross join suml group by doc_id),
nearsc as (
  select c.doc_id,
         ((1.0-0.4)*(coalesce(n.tf, 0.0) + 2500.0*(nearctf.ctf/suml.v))
            /(d.dl + 2500.0)
          + 0.4*(nearctf.ctf/suml.v)) as s2
  from cands c join doclen d using (doc_id)
  left join neartf n using (doc_id)
  cross join nearctf cross join suml),
scored as (
  select a.doc_id, pow(a.s1, 0.7) * pow(n.s2, 0.3) as raw
  from andsc a join nearsc n using (doc_id))
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""

# SDM spine (#WAND of a bag-of-words #AND and a #NEAR/1 ordered-
# phrase #AND) scored via the distributed structured Indri path —
# ORACLE-CHECKED: #NEAR/1 over two distinct terms has SQL-expressible
# tf (adjacency pair count, see ``near1_ranked``), and the #WAND /
# #AND nesting is pure arithmetic over leaf scores, so the whole
# distributed SDM chain (per-salt Iop co-group -> derived list ->
# ``indri_tree`` over each salt's candidates) hash-matches DuckDB. The full-analyzer
# #WINDOW-bearing SDM stays rows-only as ``sdm_wand_search``.
_batch_entry("sdm_structured_distributed", "indri_structured_batch_search",
             [("sdm", SDM_QUERY)], SQL_SDM_STRUCTURED, model=_INDRI, k=10)


_search_entry("ranked_and", _simple_index, _RANKED, "#and(fast sort)", 10**9,
              f"""
with {_tok_cte()},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ('fast','sort') group by doc_id, term)
select doc_id, floor(min(tf)*1000000 + 0.5)/1000000 as score from tfs
group by doc_id having count(distinct term) = 2
""")


_search_entry("ranked_or", _simple_index, _RANKED, "#or(fast sort)", 10**9,
              f"""
with {_tok_cte()},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ('fast','sort') group by doc_id, term)
select doc_id, floor(max(tf)*1000000 + 0.5)/1000000 as score from tfs group by doc_id
""")


_search_entry("unranked_and_count", _simple_index, _UNRANKED,
              "#and(fast sort merge)", 10**9, f"""
with {_tok_cte()}
select count(*)::bigint as n_matches from (
  select doc_id from tok where term in ('fast','sort','merge')
  group by doc_id having count(distinct term) = 3)
""", table=_n_matches)


# #SYN under ranked boolean: score = summed tf of the synonyms
# (QryIopSyn union semantics -> leaf tf scoring).
_search_entry("syn_ranked", _simple_index, _RANKED, "#syn(fast quick)", 10**9,
              f"""
with {_tok_cte()}
select doc_id, floor(count(*)::double*1000000 + 0.5)/1000000 as score
from tok where term in ('fast','quick') group by doc_id
""")


# #NEAR/1 existence is SQL-checkable: adjacency self-join on dense
# positions (the tf-bearing consume semantics stay pytest-oracle-
# checked; this gates the match set).
_search_entry("unranked_near_count", _simple_index, _UNRANKED,
              "#near/1(fast sort)", 10**9, f"""
with tok as ({POS_TOK_SQL})
select count(*)::bigint as n_matches from (
  select distinct a.doc_id from tok a join tok b
    on a.doc_id = b.doc_id and b.pos = a.pos + 1
  where a.term = 'fast' and b.term = 'sort')
""", table=_n_matches)


# #NEAR/1 with two DISTINCT terms has SQL-expressible tf: every
# candidate match is an adjacent (p, p+1) pair, and two such pairs can
# never share a position (one position holds one term), so the
# reference's greedy consume-on-match loop (QryIopNear.java docEval)
# accepts ALL adjacency pairs — near-tf == the plain pair count.
# RankedBoolean score = leaf tf, like ``syn_ranked``.
_search_entry("near1_ranked", _simple_index, _RANKED, "#near/1(fast sort)",
              10**9, f"""
with tok as ({POS_TOK_SQL})
select a.doc_id as doc_id,
       floor(count(*)::double*1000000 + 0.5)/1000000 as score
from tok a join tok b on a.doc_id = b.doc_id and b.pos = a.pos + 1
where a.term = 'fast' and b.term = 'sort'
group by a.doc_id
""")


NEAR1_BM25_QUERY = "#sum(#near/1(fast sort))"

def _near1_bm25_sql(b_term: str, head: str = "") -> str:
    """BM25 top-10 over the DERIVED #NEAR/1 list of 'fast' followed by a
    term satisfying ``b.term <b_term>``: tf = adjacency pair count,
    df = docs in the list, unigram field lengths. ``head`` adds CTEs
    after ``tok``."""
    return f"""
with tok as ({POS_TOK_SQL}),{head}
neartf as (
  select a.doc_id, count(*)::double as tf
  from tok a join tok b on a.doc_id = b.doc_id and b.pos = a.pos + 1
  where a.term = 'fast' and b.term {b_term} group by a.doc_id),
{_doclen_cte()},
{_stats_cte()},
dfv as (select count(*)::double as df from neartf),
scored as (
  select neartf.doc_id,
         {_idf_sql('stats.n', 'dfv.df')}
         * {_tfw_sql('neartf.tf', 'doclen.dl', 'stats')} as raw
  from neartf join doclen using (doc_id)
  cross join stats cross join dfv)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""


SQL_NEAR1_BM25_TOP10 = _near1_bm25_sql("= 'sort'")
SQL_PHRASE_PREFIX_SEARCH = _near1_bm25_sql(
    "in (select term from vocab)", "\n" + _vocab_cte("term like 's%'") + ",")

# ES ``match_phrase_prefix``: a phrase whose LAST term is a
# wildcard — ``#near/1(fast s*)`` composes the existing plan-time
# prefix rewrite (``s*`` → #SYN of the ≤64 vocab expansions) under
# the positional #NEAR kernel, scored BM25 over the derived list.
# tf stays the SQL-expressible adjacency pair count: one position
# holds one term, and 'fast' is not s-prefixed, so no two greedy
# matches can share a position even with the multi-term #SYN arg.
_search_entry("phrase_prefix_search", _simple_index, _BM25,
              "#sum(#near/1(fast s*))", 10, SQL_PHRASE_PREFIX_SEARCH)


# #WINDOW/3 existence: any position pair with |pa-pb| < 3.
_search_entry("unranked_window_count", _simple_index, _UNRANKED,
              "#window/3(hash join)", 10**9, f"""
with tok as ({POS_TOK_SQL})
select count(*)::bigint as n_matches from (
  select distinct a.doc_id from tok a join tok b
    on a.doc_id = b.doc_id and abs(a.pos - b.pos) < 3
  where a.term = 'hash' and b.term = 'join')
""", table=_n_matches)


@entry
def q_exact_dedup(sf_dir: str):
    import ray.data as rd
    from ..functions.dedup import exact_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return exact_dedup(ds)


oracle(q_exact_dedup, """
select md5(text) as content_hash, min(doc_id)::bigint as canonical_id,
       count(*)::bigint as n_dups
from documents group by text
""")


@entry
def q_connected_components(sf_dir: str):
    """Distributed connected components (large/small-star) over chain
    graphs: consecutive orders of each customer are linked, so every
    multi-order customer becomes one chain component whose label is its
    minimum order key. Chains force multi-hop label propagation (the
    star rounds can't shortcut through a hub), while the oracle derives
    the same labels analytically from the construction."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from ..functions.graph import connected_components

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])

    def chain_edges(g: pd.DataFrame) -> pd.DataFrame:
        k = np.sort(g["o_orderkey"].to_numpy())
        if len(k) < 2:
            return pd.DataFrame({"src": np.array([], dtype=np.int64),
                                 "dst": np.array([], dtype=np.int64)})
        return pd.DataFrame({"src": k[:-1], "dst": k[1:]})

    edges = orders.groupby("o_custkey").map_groups(
        chain_edges, batch_format="pandas")
    return connected_components(edges)


oracle(q_connected_components, """
select o_orderkey as id,
       min(o_orderkey) over (partition by o_custkey) as component
from orders
where o_custkey in (select o_custkey from orders
                    group by o_custkey having count(*) >= 2)
""")


@entry
def q_lang_counts(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n"))


oracle(q_lang_counts,
       "select lang, count(*)::bigint as n from documents group by lang")


@entry
def q_quality_scores(sf_dir: str):
    import ray.data as rd
    from ..functions.text import quality_batch
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ds.map_batches(lambda b: quality_batch(b), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_tokens", "alpha_ratio",
                               "stopword_ratio", "mean_token_len"])


oracle(q_quality_scores, f"""
with t as (select doc_id, text, {SIMPLE_TOKS_SQL} as toks from documents)
select doc_id,
  len(toks)::bigint as n_tokens,
  floor((case when len(text) > 0
        then len(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::double / len(text)
        else 0.0 end)*1000000 + 0.5)/1000000 as alpha_ratio,
  floor((case when len(toks) > 0
        then len(list_filter(toks, x -> x in {_STOPLIST_SQL}))::double / len(toks)
        else 0.0 end)*1000000 + 0.5)/1000000 as stopword_ratio,
  floor((case when len(toks) > 0
        then list_aggregate(list_transform(toks, x -> len(x)), 'sum')::double / len(toks)
        else 0.0 end)*1000000 + 0.5)/1000000 as mean_token_len
from t
""")


@entry
def q_token_stats(sf_dir: str):
    """Whitespace + BPE-ish-regex token counts (functions/text.py
    token_stats) — the training-data 'token counting' op; both counters
    are regex-mirrorable in DuckDB (RE2 and Python re agree on the
    ASCII corpus)."""
    import ray.data as rd
    from ..functions.text import token_stats
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return token_stats(ds).select_columns(
        ["doc_id", "ws_tokens", "bpe_ish_tokens"])


oracle(q_token_stats, r"""
select doc_id,
  len(list_filter(string_split_regex(coalesce(text, ''), '\s+'),
      x -> len(x) > 0))::bigint as ws_tokens,
  len(regexp_extract_all(lower(coalesce(text, '')),
      '[a-z]+|[0-9]|[^a-z0-9\s]'))::bigint as bpe_ish_tokens
from documents
""")


@entry
def q_vocab_stats(sf_dir: str):
    """Corpus vocabulary profile (Zipf/Heaps audit before training):
    n_tokens / n_types / hapax count / max term frequency, one
    term-keyed exchange of per-block Counter partials
    (``text.vocab_stats``). All four scalars are distributive over
    disjoint term partitions, mirrored literally in SQL."""
    import ray.data as rd
    from ..functions.text import vocab_stats
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return vocab_stats(ds)


oracle(q_vocab_stats, f"""
with t as (select {SIMPLE_TOKS_SQL} as toks from documents),
tok as (select unnest(toks) as term from t),
tf as (select term, count(*)::bigint as cnt from tok group by term)
select coalesce(sum(cnt), 0)::bigint as n_tokens,
       count(*)::bigint as n_types,
       coalesce(sum(case when cnt = 1 then 1 else 0 end), 0)::bigint
         as n_hapax,
       coalesce(max(cnt), 0)::bigint as max_tf
from tf
""")


@entry
def q_dataset_split(sf_dir: str):
    """Deterministic train/val/test split (98/1/1) — hash-bucket
    assignment, MAP-ONLY (no shuffle, no state): a doc's split never
    changes under retries, re-partitioning, or corpus growth
    (``sample.dataset_split``, auditable md5 path so the oracle
    re-derives every assignment)."""
    import ray.data as rd
    from ..functions.sample import dataset_split
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])
    return dataset_split(ds, fractions=(0.98, 0.01, 0.01),
                         names=("train", "val", "test"),
                         auditable=True)


oracle(q_dataset_split, """
with b as (select doc_id,
    (('0x' || substr(md5(doc_id::varchar), 1, 16))::ubigint
     % 1000000)::bigint as bucket
  from documents)
select doc_id,
  case when bucket < 980000 then 'train'
       when bucket < 990000 then 'val'
       else 'test' end as split
from b
""")


@entry
def q_ann_cosine_top10(sf_dir: str):
    import ray.data as rd
    from ..functions.similarity import ann_cosine_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = ann_cosine_topk(ds, qvec, k=10, dtype=np.float64).to_pandas()
    out = out.sort_values(["score", "vec_id"], ascending=[False, True],
                          kind="mergesort")
    return pa.table({
        "vec_id": pa.array(out["vec_id"].to_numpy(), pa.int64()),
        "score": pa.array(round6(out["score"].to_numpy())),
    })


oracle(q_ann_cosine_top10, """
with q as (select embedding::DOUBLE[] as qv from embeddings where vec_id = 0)
select vec_id,
       floor(list_cosine_similarity(embedding::DOUBLE[], q.qv)*1000000 + 0.5)/1000000
         as score
from embeddings, q
order by list_cosine_similarity(embedding::DOUBLE[], q.qv) desc, vec_id asc
limit 10
""")


# the synthetic embeddings are near-orthogonal random vectors (max
# pairwise cosine ≈ 0.51); 0.45 sits in a ≥6e-4 gap of the pairwise
# cosine distribution at sf0.001/sf0.01 so float-summation-order noise
# between numpy matmul and DuckDB list_dot_product cannot flip a pair
EMB_DEDUP_THRESHOLD = 0.45


@entry
def q_embedding_dedup(sf_dir: str):
    """EXACT embedding-cosine near-dup pairs (broadcast-matmul baseline,
    functions/dedup.py embedding_dedup); oracle = DuckDB all-pairs
    list_cosine_similarity. The rounded score column double-checks the
    cosine values, not just the pair set."""
    import ray.data as rd
    from ..functions.dedup import embedding_dedup
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = embedding_dedup(ds, threshold=EMB_DEDUP_THRESHOLD,
                          dtype=np.float64).to_pandas()
    out = out.sort_values(["id_a", "id_b"])
    return pa.table({
        "id_a": pa.array(out["id_a"].to_numpy(), pa.int64()),
        "id_b": pa.array(out["id_b"].to_numpy(), pa.int64()),
        "score": pa.array(round6(out["score"].to_numpy())),
    })


oracle(q_embedding_dedup, f"""
with nv as (
  select vec_id,
         list_transform(embedding::DOUBLE[],
           x -> x / sqrt(list_aggregate(
                 list_transform(embedding::DOUBLE[], y -> y*y), 'sum')))
           as v
  from embeddings)
select a.vec_id as id_a, b.vec_id as id_b,
       floor(list_dot_product(a.v, b.v)*1000000 + 0.5)/1000000 as score
from nv a join nv b on a.vec_id < b.vec_id
where list_dot_product(a.v, b.v) >= {EMB_DEDUP_THRESHOLD}
""")


@entry
def q_embedding_lsh_dedup(sf_dir: str):
    """Scale path for embedding near-dup: hyperplane-bucketed within-
    bucket exact cosine (no full-matrix broadcast) — approximate, hence
    rows-only; pair subset correctness vs the exact op is pytest-checked."""
    import ray.data as rd
    from ..functions.dedup import embedding_lsh_dedup
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return embedding_lsh_dedup(ds, threshold=EMB_DEDUP_THRESHOLD, planes=4)


@entry
def q_top_docs_by_chars(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "n_chars"])
    ds = ds.filter(expr="lang == 'en'")

    # per-block partial top-20 before the driver merge — the driver
    # never holds the full filtered table (at 100× scale the old
    # ``to_pandas()`` here is an OOM)
    def block_top20(bt: pa.Table) -> pa.Table:
        bdf = bt.to_pandas().sort_values(["n_chars", "doc_id"],
                                         ascending=[False, True]).head(20)
        return pa.Table.from_pandas(bdf.reset_index(drop=True),
                                    preserve_index=False)

    parts = pa.concat_tables(
        ds.map_batches(block_top20, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_size=None, batch_format="pyarrow"))
    pdf = parts.to_pandas().sort_values(["n_chars", "doc_id"],
                                        ascending=[False, True]).head(20)
    return pa.table({"doc_id": pa.array(pdf["doc_id"].to_numpy(), pa.int64()),
                     "n_chars": pa.array(pdf["n_chars"].to_numpy(), pa.int64())})


oracle(q_top_docs_by_chars, """
select doc_id, n_chars from documents where lang = 'en'
order by n_chars desc, doc_id asc limit 20
""")


# ---------------------------------------------------------------- rows-only


STRUCTURED_BATCH_QUERIES = [
    ("near", "#sum(#near/1(fast sort) merge)",
     [("near1", "fast", "sort"), ("term", "merge")]),
    ("syn", "#sum(#syn(fast quick) dup)",
     [("syn", ("fast", "quick")), ("term", "dup")]),
    ("phr", "#sum(#near/1(dup line) sort)",
     [("near1", "dup", "line"), ("term", "sort")]),
]


def _greedy_pair_cte(i: int, a: str, b: str, n: int, kind: str) -> str:
    """Recursive-CTE transcription of the engine's GREEDY two-pointer
    positional kernels for TWO distinct terms (eval.py:113-140; the
    reference's QryIopNear.java:80-128 / QryIopWindow.java:106-143):
    state = (doc_id, i, j, matched-count), one recursion step per
    pointer advance, final tf = cnt at the terminal state. ``near``
    matches when a[i] <= b[j] <= a[i]+n (consume both; b<a advances j,
    gap>n advances i); ``window`` matches when max-min < n (consume
    both; otherwise advance the smaller head)."""
    if kind == "near":
        ni = (f"case when b[j] < a[i] then i "
              f"when b[j] - a[i] <= {n} then i + 1 else i + 1 end")
        nj = (f"case when b[j] < a[i] then j + 1 "
              f"when b[j] - a[i] <= {n} then j + 1 else j end")
        nc = (f"case when b[j] >= a[i] and b[j] - a[i] <= {n} "
              f"then cnt + 1 else cnt end")
    else:  # window: |a[i]-b[j]| < n (positions are distinct)
        ni = (f"case when abs(a[i] - b[j]) < {n} then i + 1 "
              f"when a[i] < b[j] then i + 1 else i end")
        nj = (f"case when abs(a[i] - b[j]) < {n} then j + 1 "
              f"when a[i] < b[j] then j else j + 1 end")
        nc = f"case when abs(a[i] - b[j]) < {n} then cnt + 1 else cnt end"
    return f"""
ap{i} as (select doc_id, list(pos order by pos) as a from tok
          where term = '{a}' group by doc_id),
bp{i} as (select doc_id, list(pos order by pos) as b from tok
          where term = '{b}' group by doc_id),
bo{i} as (select ap{i}.doc_id, a, b, len(a) as la, len(b) as lb
          from ap{i} join bp{i} using (doc_id)),
st{i}(doc_id, i, j, cnt) as (
  select doc_id, 1, 1, 0 from bo{i}
  union all
  select st{i}.doc_id, {ni}, {nj}, {nc}
  from st{i} join bo{i} using (doc_id)
  where st{i}.i <= la and st{i}.j <= lb),
tf{i} as (select doc_id, tf::double as tf from (
  select doc_id, max_by(cnt, i + j) as tf from st{i} group by doc_id)
  where tf > 0)"""


def _bm25_derived_sql(leaves, k: int) -> str:
    """BM25 #SUM top-k SQL over a mix of plain-term and DERIVED leaves
    (#NEAR/1 adjacency, #SYN member-merge, greedy #NEAR/n and
    #WINDOW/n two-term kernels via recursive CTEs) — each leaf
    contributes with its OWN df (QryIop.getDf of the derived list),
    summed only where it matches, mirroring the engine's #SUM over
    #SCORE leaves."""
    tf_blocks, cell_blocks = [], []
    for i, leaf in enumerate(leaves):
        name = f"tf{i}"
        if leaf[0] == "term":
            expr = (f"select doc_id, count(*)::double as tf from tok "
                    f"where term = '{leaf[1]}' group by doc_id")
        elif leaf[0] == "syn":
            inl = ",".join(f"'{t}'" for t in leaf[1])
            expr = (f"select doc_id, count(*)::double as tf from tok "
                    f"where term in ({inl}) group by doc_id")
        elif leaf[0] in ("near", "window"):
            kind, a, b, n = leaf
            tf_blocks.append(_greedy_pair_cte(i, a, b, n, kind).strip())
            cell_blocks.append(
                f"select doc_id, tf, "
                f"(select count(*)::double from {name}) as df from {name}")
            continue
        else:  # near1: ordered adjacency pair count (see near1_ranked)
            a, b = leaf[1], leaf[2]
            expr = (f"select a.doc_id, count(*)::double as tf from tok a "
                    f"join tok b on a.doc_id = b.doc_id "
                    f"and b.pos = a.pos + 1 "
                    f"where a.term = '{a}' and b.term = '{b}' "
                    f"group by a.doc_id")
        tf_blocks.append(f"{name} as ({expr})")
        cell_blocks.append(f"select doc_id, tf, "
                           f"(select count(*)::double from {name}) as df "
                           f"from {name}")
    cells = "\nunion all\n".join(cell_blocks)
    return f"""
{_bm25_prologue(pos=True, recursive=True)},
{",".join(tf_blocks)},
cells as ({cells}),
scored as (
  select cells.doc_id,
         sum({_idf_sql('stats.n', 'cells.df')}
             * {_tfw_sql('cells.tf', 'doclen.dl', 'stats')}) as raw
  from cells join doclen on cells.doc_id = doclen.doc_id
  cross join stats group by cells.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit {k}
"""


# #NEAR/#SYN derived lists evaluated distributed (per-salt Iop
# co-group -> derived list -> BM25 scoring), MULTI-QUERY — ORACLE-
# CHECKED on the simple analyzer (adjacency + member-merge tfs are
# SQL-expressible; greedy #WINDOW stays rows-only in
# ``window_search``).
_batch_entry("structured_batch_distributed", "bm25_structured_batch_search",
             [(qid, q) for qid, q, _ in STRUCTURED_BATCH_QUERIES],
             "\nunion all\n".join(
                 f"select '{qid}' as qid, * from "
                 f"({_bm25_derived_sql(leaves, 10)})"
                 for qid, _, leaves in STRUCTURED_BATCH_QUERIES), k=10)

# GREEDY #NEAR/2 (consume-on-match two-pointer, not plain pair
# count) + term under BM25 #SUM — ORACLE-CHECKED: the greedy kernel
# is transcribed as a recursive CTE (see _greedy_pair_cte), closing
# the 'greedy positional tf is not SQL-expressible' gap for the
# two-distinct-term case.
_search_entry("near_search", _simple_index, _BM25,
              "#sum(#near/2(fast sort) merge)", 100,
              _bm25_derived_sql([("near", "fast", "sort", 2),
                                 ("term", "merge")], 100))

SQL_PHRASE_SEARCH = _bm25_derived_sql(
    [("near1", "dup", "line"), ("term", "sort")], 100)

# "fast sort"~2 == #near/2(fast sort): same greedy-pair CTE as near_search
SQL_PHRASE_SLOP_SEARCH = _bm25_derived_sql(
    [("near", "fast", "sort", 2), ("term", "merge")], 100)

SQL_WINDOW_SEARCH = _bm25_derived_sql(
    [("window", "fast", "sort", 8), ("term", "merge")], 100)

# Full SDM: s_and = (leaf_fast·leaf_sort)^(1/2), s_near / s_win = Indri
# leaves over the DERIVED #NEAR/1 (adjacency) and greedy #WINDOW/8
# (recursive CTE) lists with their own ctf, mixed as
# s_and^0.7 · s_near^0.2 · s_win^0.1 (#WAND, weights sum 1.0).
# Candidates = docs holding either term (positional matches ⊂ that set).
SQL_SDM_WAND_SIMPLE = f"""
with recursive tok as ({POS_TOK_SQL}),
{_doclen_cte()},
{_SUML_CTE},
ctfs as (select term, count(*)::double as ctf from tok
         where term in ('fast','sort') group by term),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ('fast','sort') group by doc_id, term),
neartf as (
  select a.doc_id, count(*)::double as tf
  from tok a join tok b on a.doc_id = b.doc_id and b.pos = a.pos + 1
  where a.term = 'fast' and b.term = 'sort' group by a.doc_id),
nearctf as (select coalesce(sum(tf), 0.0)::double as v from neartf),
{_greedy_pair_cte(9, "fast", "sort", 8, "window").strip()},
winctf as (select coalesce(sum(tf), 0.0)::double as v from tf9),
cands as (select distinct doc_id from tfs),
cells as (
  select c.doc_id, q.term, coalesce(tfs.tf, 0.0) as tf, ctfs.ctf, doclen.dl
  from cands c cross join (values ('fast'),('sort')) q(term)
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfs on tfs.doc_id = c.doc_id and tfs.term = q.term),
andsc as (
  select doc_id, pow(product({_INDRI_LEAF_SQL}), 0.5) as s1
  from cells cross join suml group by doc_id),
nearsc as (
  select c.doc_id,
         ((1.0-0.4)*(coalesce(n.tf, 0.0) + 2500.0*(nearctf.v/suml.v))
            /(d.dl + 2500.0)
          + 0.4*(nearctf.v/suml.v)) as s2
  from cands c join doclen d using (doc_id)
  left join neartf n using (doc_id)
  cross join nearctf cross join suml),
winsc as (
  select c.doc_id,
         ((1.0-0.4)*(coalesce(w.tf, 0.0) + 2500.0*(winctf.v/suml.v))
            /(d.dl + 2500.0)
          + 0.4*(winctf.v/suml.v)) as s3
  from cands c join doclen d using (doc_id)
  left join tf9 w using (doc_id)
  cross join winctf cross join suml),
scored as (
  select a.doc_id, pow(a.s1, 0.7) * pow(n.s2, 0.2) * pow(w.s3, 0.1) as raw
  from andsc a join nearsc n using (doc_id) join winsc w using (doc_id))
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""

# Full PRF chain: stage 1 = Indri BoW initial ranking (top-10 by score
# desc, doc asc — external ids are zero-padded urls, so string order ==
# doc order); stage 2 = fb_mu=0 expansion weights over the top docs'
# term vectors, %.4f-rounded top-5; stage 3 = the expanded
# #wand(0.5 #and(orig) 0.5 #wand(fb)) rescore with default-score fill.
SQL_PRF_EXPANSION_SIMPLE = f"""
with {_tok_cte()},
{_doclen_cte()},
{_SUML_CTE},
q0 as (select * from (values ('fast'),('sort')) t(term)),
ctf0 as (select term, count(*)::double as ctf from tok
         where term in (select term from q0) group by term),
tf0 as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from q0) group by doc_id, term),
cand0 as (select distinct doc_id from tf0),
cell0 as (
  select c.doc_id, q.term, coalesce(tf0.tf, 0.0) as tf, ctf0.ctf, doclen.dl
  from cand0 c cross join q0 q
  join ctf0 on ctf0.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tf0 on tf0.doc_id = c.doc_id and tf0.term = q.term),
init as (select doc_id, product(pow({_INDRI_LEAF_SQL}, 0.5)) as score
         from cell0 cross join suml group by doc_id),
topd as (select doc_id, score from init
         order by score desc, doc_id asc limit 10),
ttf as (select t.doc_id, t.term, count(*)::double as tf
        from tok t join topd using (doc_id) group by t.doc_id, t.term),
tctf as (select term, count(*)::double as ctf from tok
         where term in (select distinct term from ttf) group by term),
wt as (select ttf.term,
         sum((ttf.tf / doclen.dl) * topd.score * ln(suml.v / tctf.ctf)) as w
       from ttf join topd using (doc_id) join doclen using (doc_id)
       join tctf on tctf.term = ttf.term cross join suml
       group by ttf.term),
fb as (select term, floor(w*10000 + 0.5)/10000 as w
       from wt order by w desc, term asc limit 5),
sumw as (select sum(w)::double as v from fb),
allt as (select term from q0 union select term from fb),
ctfa as (select term, count(*)::double as ctf from tok
         where term in (select term from allt) group by term),
tfa as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from allt) group by doc_id, term),
cands as (select distinct doc_id from tfa),
cello as (
  select c.doc_id, q.term, coalesce(t.tf, 0.0) as tf, ctfa.ctf, doclen.dl
  from cands c cross join q0 q
  join ctfa on ctfa.term = q.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfa t on t.doc_id = c.doc_id and t.term = q.term),
origsc as (select doc_id, product(pow({_INDRI_LEAF_SQL}, 0.5)) as s1
           from cello cross join suml group by doc_id),
cellf as (
  select c.doc_id, f.term, f.w, coalesce(t.tf, 0.0) as tf, ctfa.ctf,
         doclen.dl
  from cands c cross join fb f
  join ctfa on ctfa.term = f.term
  join doclen on doclen.doc_id = c.doc_id
  left join tfa t on t.doc_id = c.doc_id and t.term = f.term),
expsc as (select doc_id,
            product(pow({_INDRI_LEAF_SQL}, w/sumw.v)) as s2
          from cellf cross join suml cross join sumw group by doc_id),
scored as (select o.doc_id, pow(o.s1, 0.5) * pow(e.s2, 0.5) as raw
           from origsc o join expsc e using (doc_id))
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 100
"""


# GREEDY #WINDOW/8 (min-head advance, QryIopWindow.java:106-143)
# + term under BM25 #SUM — ORACLE-CHECKED via the same recursive-CTE
# transcription as ``near_search``.
_search_entry("window_search", _simple_index, _BM25,
              "#sum(#window/8(fast sort) merge)", 100, SQL_WINDOW_SEARCH)


# #OR over a #SYN derived list and a plain term, ranked boolean —
# ORACLE-CHECKED: #SYN's merged tf is the summed member tf (terms
# occupy distinct positions, QryIopSyn.java merge), RB #OR is the
# per-doc max, so the derived-list chain is SQL-expressible on the
# simple analyzer.
_search_entry("syn_search", _simple_index, _RANKED,
              "#or(#syn(fast quick) merge)", 100, f"""
with {_tok_cte()},
syntf as (select doc_id, count(*)::double as tf from tok
          where term in ('fast','quick') group by doc_id),
mtf as (select doc_id, count(*)::double as tf from tok
        where term = 'merge' group by doc_id),
scored as (
  select coalesce(s.doc_id, m.doc_id) as doc_id,
         greatest(coalesce(s.tf, 0.0), coalesce(m.tf, 0.0)) as raw
  from syntf s full outer join mtf m on s.doc_id = m.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 100
""")


def _wildcard_sql(match: str) -> str:
    """Ranked-boolean oracle of a wildcard term: the #SYN of the ≤ 64
    vocabulary terms satisfying ``match`` (term asc) scores its merged
    tf."""
    return f"""
with {_tok_cte()},
{_vocab_cte(match)},
syntf as (select doc_id, count(*)::double as tf from tok
          where term in (select term from vocab) group by doc_id)
select doc_id, floor(tf*1000000 + 0.5)/1000000 as score from syntf
order by tf desc, doc_id asc limit 100
"""


# Wildcard retrieval: ``s*`` rewrites to a #SYN of every indexed
# body term starting with 's' (PrefixQuery → term-disjunction,
# vocabulary-metadata scan only), ranked boolean (score = merged tf).
# The oracle mirrors the expansion with a LIKE-limited vocab CTE.
_search_entry("prefix_search", _simple_index, _RANKED, "s*", 100,
              _wildcard_sql("term like 's%'"))


# Infix wildcard retrieval (``*ash*`` — Lucene leading-wildcard):
# rewrites to a #SYN of every indexed body term CONTAINING 'ash'
# (full term-dictionary enumeration, the price Lucene pays too;
# capped at 64 by term asc), ranked boolean. Oracle mirrors with a
# LIKE '%ash%' vocab CTE.
_search_entry("infix_search", _simple_index, _RANKED, "*ash*", 100,
              _wildcard_sql("term like '%ash%'"))


# Suffix wildcard retrieval (``*ow`` — Lucene leading-wildcard
# ends-with): rewrites to a #SYN of every indexed body term ENDING
# with 'ow' (vectorized Arrow ends-with over the index vocabulary,
# capped at 64 by term asc), ranked boolean; LIKE '%ow' vocab CTE.
_search_entry("suffix_search", _simple_index, _RANKED, "*ow", 100,
              _wildcard_sql("term like '%ow'"))


# Regexp-term retrieval (Lucene ``RegexpQuery``): ``/s.*t/``
# rewrites to a #SYN of every indexed body term FULLY matching the
# anchored pattern (Arrow RE2 kernel over the index vocabulary,
# capped at 64 by term asc — ``reader.terms_matching_regex``),
# ranked boolean. The oracle mirrors the expansion with a
# ``regexp_full_match`` vocab CTE (DuckDB's RE2 agrees with Arrow's
# on this pattern class).
_search_entry("regexp_search", _simple_index, _RANKED, "/s.*t/", 100,
              _wildcard_sql("regexp_full_match(term, 's.*t')"))


# Quoted-phrase retrieval (Lucene PhraseQuery sugar): ``"dup
# line"`` parses to #NEAR/1 adjacency, scored under BM25 #SUM next
# to a plain term — same derived-leaf SQL transcription as the
# structured batch (adjacency tf == greedy tf for two distinct
# terms: a position can be adjacent to at most one match).
_search_entry("phrase_search", _simple_index, _BM25, '#sum("dup line" sort)',
              100, SQL_PHRASE_SEARCH)


# Sloppy-phrase retrieval (Lucene ``"a b"~n`` syntax): the parser
# relaxes the quoted phrase to #NEAR/n (in-order, gap ≤ n), so
# ``"fast sort"~2 merge`` under BM25 #SUM is plan-identical to
# ``#sum(#near/2(fast sort) merge)`` — oracle = the same greedy
# recursive-CTE transcription as ``near_search``.
_search_entry("phrase_slop_search", _simple_index, _BM25,
              '#sum("fast sort"~2 merge)', 100, SQL_PHRASE_SLOP_SEARCH)


# Boolean MUST_NOT (Lucene ``-term`` syntax): ``dup line hash
# -merge`` scores the positive bag under BM25 and removes every doc
# whose body contains 'merge' BEFORE the top-k cut; corpus stats
# stay corpus-wide (``QueryEngine.search`` negation clause — the
# filtered-search semantics with an anti- instead of an allow-set).
_search_entry("negation_search", _simple_index, _BM25, BM25_QUERY + " -merge",
              100, _bm25_sql(BM25_QUERY_TERMS, 100,
                             doc_filter="tfs.doc_id not in (select doc_id "
                                        "from tok where term = 'merge')"))


# Federated search (Lucene MultiReader): the standard 3-term BM25
# query answered over TWO independently-built half-corpus segments
# with NO physical merge — global N/df/avglen from a metadata-only
# pre-pass, per-segment exact top-k, k·N-row driver merge
# (query/federated.py). Oracle: the single-index BM25 SQL — rankings
# must be merge-identical.
_federated_entry("bm25_federated_top10", _BM25, BM25_QUERY,
                 SQL_INDEX_BM25_TOP10)

# Federated Indri over the same two segments: the hard case for
# global stats — the default (tf=0) score needs the GLOBAL ctf even
# in a segment that lacks the term entirely, which the proxy's
# synthesized empty postings carry. Oracle: the single-index Indri
# SQL.
_federated_entry("indri_federated_top10", _INDRI, INDRI_QUERY,
                 SQL_INDEX_INDRI_TOP10)
# Same query + oracle as ``index_indri_top10`` but scored through
# the distributed Indri path (query/distributed.py).
_batch_entry("indri_batch_distributed", "indri_batch_search",
             [("q", INDRI_QUERY)], SQL_INDEX_INDRI_TOP10, model=_INDRI, k=10)


# Federated STRUCTURED search (r5 — VERDICT r4 item 1): the
# derived #NEAR/1 BM25 query of ``near1_bm25_top10`` answered over
# TWO independently-built half-corpus segments. Segments partition
# docids, so the derived list's global df/ctf is the SUM of the
# per-segment derived df/ctf (phase A of
# ``query/federated.py``; the reference's QryIop.getDf/getCtf over
# the merged index) and phase B scores each segment with those sums
# patched in. Oracle: the single-index #NEAR BM25 SQL — rankings
# must be merge-identical.
_federated_entry("near1_bm25_federated", _BM25, NEAR1_BM25_QUERY,
                 SQL_NEAR1_BM25_TOP10)
# BM25 #SCORE over a DERIVED #NEAR/1 inverted list: df/ctf come
# from the match list itself (QryIop.getDf/getCtf semantics), and the
# #NEAR/1 tf is the SQL-expressible adjacency count (see
# ``near1_ranked``) — so the whole structured scoring chain is
# oracle-checked, not just the match set.
_search_entry("near1_bm25_top10", _simple_index, _BM25, NEAR1_BM25_QUERY, 10,
              SQL_NEAR1_BM25_TOP10)
# Same query + oracle through the DISTRIBUTED structured path
# (per-salt co-grouped positional kernel + derived-stats BM25).
_batch_entry("near1_bm25_distributed", "bm25_structured_batch_search",
             [("1", NEAR1_BM25_QUERY)], SQL_NEAR1_BM25_TOP10, model=_BM25,
             k=10)


# Federated SDM (the reference's structured golden workload,
# ``Indri-Sdm.teIn`` shape, on the engine's true cluster-deployment
# unit): #WAND of a bag-of-words #AND and an ordered-phrase #NEAR/1
# #AND, scored Indri over TWO segments with cross-segment derived
# ctf feeding every default (tf=0) score. Oracle: the single-index
# SDM SQL (``sdm_structured_distributed``'s mirror) — rankings must
# be merge-identical.
_federated_entry("sdm_federated_top10", _INDRI, SDM_QUERY, SQL_SDM_STRUCTURED)


# Federated match_phrase_prefix: the ``#near/1(fast s*)`` query of
# ``phrase_prefix_search`` over two segments — the wildcard expands
# over the UNION vocabulary (Lucene MultiReader rewrite: same order,
# same 64-term budget as the merged dictionary) and the derived
# positional list scores with cross-segment df/ctf. Oracle: the
# single-index SQL.
_federated_entry("phrase_prefix_federated", _BM25, "#sum(#near/1(fast s*))",
                 SQL_PHRASE_PREFIX_SEARCH)


@entry
def q_bm25f_top10(sf_dir: str):
    """BM25F (Zaragoza & Robertson 2004): per-field length-normalized
    tf pooled with field weights into ONE saturation, idf over the
    UNION df — genuinely different math from the per-field #SUM of
    ``bm25_multifield_top10`` (query/bm25f.py). Two-field index
    (body=text, url=page url), non-uniform w_f and b_f."""
    from ..query.bm25f import bm25f_search
    reader = get_index(sf_dir, "simple",
                       fields={"body": "text", "url": "url"})
    res = bm25f_search(reader, ["dup", "00000007", "00000008"],
                       weights={"body": 1.0, "url": 0.6},
                       field_b={"body": 0.75, "url": 0.5},
                       k1=1.2, k=10)
    return _ranked_to_table(res)


SQL_BM25F_TOP10 = f"""
with {_tok_cte()},
utok as (
  select doc_id, unnest(list_filter(string_split_regex(
    lower('http://docs.example.com/' || printf('%08d', doc_id)),
    '[^a-z0-9]+'), x -> len(x) > 0)) as term from documents),
n as (select count(*)::double as v from documents),
{_doclen_cte('bdl', 'tok')},
{_stats_cte('bstats', 'bdl', docs=None)},
{_doclen_cte('udl', 'utok')},
{_stats_cte('ustats', 'udl', docs=None)},
btf as (select doc_id, term, count(*)::double as tf from tok
        where term in ('dup','00000007','00000008') group by doc_id, term),
utf as (select doc_id, term, count(*)::double as tf from utok
        where term in ('dup','00000007','00000008') group by doc_id, term),
contrib as (
  select btf.doc_id, btf.term,
         1.0*btf.tf/((1.0-0.75) + 0.75*bdl.dl/(bstats.suml/bstats.dc)) as c
  from btf join bdl using (doc_id) cross join bstats
  union all
  select utf.doc_id, utf.term,
         0.6*utf.tf/((1.0-0.5) + 0.5*udl.dl/(ustats.suml/ustats.dc)) as c
  from utf join udl using (doc_id) cross join ustats),
tft as (select doc_id, term, sum(c) as tft from contrib group by doc_id, term),
dfs as (select term, count(distinct doc_id)::double as df
        from contrib group by term),
scored as (
  select tft.doc_id,
         sum({_idf_sql('n.v', 'dfs.df')}
             * (tft.tft / (1.2 + tft.tft))) as raw
  from tft join dfs using (term) cross join n group by tft.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
"""


oracle(q_bm25f_top10, SQL_BM25F_TOP10)
# BM25F at batch scale (distributed.bm25f_batch_search): phase A
# counts the per-salt UNION df (disjoint salt ranges sum exactly),
# phase B pools w_f·tf/B_f across fields per doc inside zero-shuffle
# per-salt tasks. Same query/params as ``bm25f_top10`` — the oracle
# match proves the distributed path is rank- and score-identical to
# the driver-side scorer.
_batch_entry("bm25f_distributed", "bm25f_batch_search",
             [("q1", "dup 00000007 00000008")], SQL_BM25F_TOP10,
             index=_url_index, weights={"body": 1.0, "url": 0.6},
             field_b={"body": 0.75, "url": 0.5}, k1=1.2, k=10)


PERCOLATE_QUERIES = [("alert_fastsort", "fast sort"),
                     ("alert_dup", "dup"),
                     ("alert_pipeline", "merge hash line")]


@entry
def q_percolate_phrase(sf_dir: str):
    """Percolator with PHRASE constraints (Elasticsearch percolator
    match_phrase): stored queries mixing bare terms and quoted
    adjacency phrases — counting prefilter on all tokens, positional
    verify only on survivors (the two-stage percolator)."""
    import ray.data as rd
    from ..functions.percolate import percolate
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    queries = [("p1", 'dup "fast sort"'),
               ("p2", '"line dup"'),
               ("p3", 'hash "merge sort" line')]
    out = percolate(ds, queries).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values(["qid", "doc_id"], ignore_index=True),
        preserve_index=False)


def _phrase_cond(words: tuple[str, ...]) -> str:
    """EXISTS-joined adjacency over the positional token CTE."""
    joins = " ".join(
        f"join ptok t{i} on t{i}.doc_id = t0.doc_id "
        f"and t{i}.pos = t0.pos + {i}"
        for i in range(1, len(words)))
    conds = " and ".join(f"t{i}.term = '{w}'"
                         for i, w in enumerate(words))
    return (f"exists (select 1 from ptok t0 {joins} "
            f"where t0.doc_id = d.doc_id and {conds})")


def _term_cond(w: str) -> str:
    return (f"exists (select 1 from ptok t0 where t0.doc_id = d.doc_id "
            f"and t0.term = '{w}')")


oracle(q_percolate_phrase, f"""
with ptok as ({POS_TOK_SQL})
select 'p1' as qid, d.doc_id from documents d
  where {_term_cond('dup')} and {_phrase_cond(('fast', 'sort'))}
union all
select 'p2', d.doc_id from documents d
  where {_phrase_cond(('line', 'dup'))}
union all
select 'p3', d.doc_id from documents d
  where {_term_cond('hash')} and {_term_cond('line')}
        and {_phrase_cond(('merge', 'sort'))}
order by qid, doc_id
""")


@entry
def q_percolate_matches(sf_dir: str):
    """Percolator (reverse search, Elasticsearch percolate / Lucene
    Monitor): three REGISTERED conjunctive queries stream-matched
    against the documents table — broadcast-compiled query set, map-only
    over the doc stream, counting-algorithm term dispatch
    (functions/percolate.py). Output (qid, doc_id) per match."""
    import ray.data as rd
    from ..functions.percolate import percolate
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = percolate(ds, PERCOLATE_QUERIES).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values(["qid", "doc_id"], ignore_index=True),
        preserve_index=False)


oracle(q_percolate_matches, "\nunion all\n".join(
    "select '{q}' as qid, doc_id from (select doc_id, {t} as toks "
    "from documents) where {cond}".format(
        q=qid, t=SIMPLE_TOKS_SQL,
        cond=" and ".join(f"list_contains(toks, '{w}')"
                          for w in qtext.split()))
    for qid, qtext in PERCOLATE_QUERIES) + "\norder by qid, doc_id")


_TS_BASE_US = 1_500_000_000_000_000   # corpus.documents_to_pages_batch


def _docvalues_index(sf_dir: str) -> IndexReader:
    return get_index(sf_dir, "simple",
                     attributes={"ts": "warc_ts", "lang": "lang"})


def _ts_range_entry(name: str, index, sql: str):
    """Entry ``name``: the standard BM25 query over ``index(sf_dir)``
    restricted to docs whose crawl-ts doc-value lies in [ts(10),
    ts(300)) → top-10 (doc_id, score)."""
    def fn(sf_dir: str):
        reader = index(sf_dir)
        lo = pa.scalar(_TS_BASE_US + 10 * 1_000_000, pa.timestamp("us"))
        hi = pa.scalar(_TS_BASE_US + 300 * 1_000_000, pa.timestamp("us"))
        allowed = reader.docids_where("ts", lo=lo, hi=hi)
        res = QueryEngine(reader, _BM25).search(BM25_QUERY, k=10,
                                                allowed=allowed)
        return _ranked_to_table(res)
    return _register(fn, name, sql)


# Doc-values RANGE-filtered retrieval ('recent pages only'): the
# standard BM25 query restricted to docs whose crawl timestamp (a
# build-time attribute column, Lucene DocValues analogue) lies in
# [ts(10), ts(300)) — ``reader.docids_where`` pushes the range to
# parquet row-group stats, the engine's allowed-set intersects
# candidates. Stats stay corpus-wide. The oracle inverts the
# deterministic doc_id→ts mapping.
_ts_range_entry("attr_range_bm25_top10", _docvalues_index, _bm25_sql(
    BM25_QUERY_TERMS, 10,
    doc_filter="tfs.doc_id in (select doc_id from documents "
               "where doc_id >= 10 and doc_id < 300)"))


@entry
def q_attr_sorted_search(sf_dir: str):
    """Sort-by-field retrieval (Lucene Sort(SortField)): docs matching
    'dup' ordered NEWEST-FIRST by the indexed crawl-timestamp doc-value
    instead of relevance — ``QueryEngine.search_sorted`` fetches the
    attribute for the match set only. → (doc_id, rank)."""
    reader = _docvalues_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    t = engine.search_sorted("dup", attr="ts", k=20, descending=True)
    return pa.table({
        "doc_id": pa.array(_docid_of_external(
            t["external_id"].to_pylist())),
        "rank": pa.array(t["rank"].to_numpy().astype("int64")),
    })


oracle(q_attr_sorted_search, f"""
with m as (
  select doc_id from (select doc_id, {SIMPLE_TOKS_SQL} as toks
                      from documents)
  where list_contains(toks, 'dup'))
select doc_id,
       row_number() over (order by doc_id desc)::bigint as rank
from m order by doc_id desc limit 20
""")


@entry
def q_highlight_positions(sf_dir: str):
    """Term-vector highlighter (Lucene FastVectorHighlighter pattern):
    exact match POSITIONS of the query terms inside the BM25 top-5
    docs, read from the INDEX's forward term vectors — no source-text
    re-tokenization (the serving path often has no text at all).
    → (doc_id, term, pos), (doc_id, pos)-ordered."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    top = engine.search(BM25_QUERY, k=5)
    exts = top["external_id"].to_pylist()
    ids = reader.internal_docids_for(exts)
    tvs = reader.term_vectors(ids.tolist(), "body")
    did_of = dict(zip(ids.tolist(), _docid_of_external(exts)))
    qt = set(BM25_QUERY_TERMS)
    # analyzer positions are 0-based; report 1-based like the oracle's
    # generate_subscripts (and human-facing highlighters)
    rows = [(did_of[gid], t, int(p) + 1)
            for gid, (terms, poss, _l) in tvs.items()
            for t, p in zip(terms, poss) if t in qt]
    rows.sort()
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "term": pa.array([r[1] for r in rows], pa.string()),
        "pos": pa.array([r[2] for r in rows], pa.int64())})


oracle(q_highlight_positions, f"""
{_bm25_prologue(pos=True)},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ('dup','line','hash') group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select tfs.doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')}) as raw
  from tfs join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats group by tfs.doc_id),
topk as (select doc_id from scored order by raw desc, doc_id asc limit 5)
select t.doc_id, t.term, t.pos::bigint as pos
from tok t
where t.term in ('dup','line','hash')
  and t.doc_id in (select doc_id from topk)
order by t.doc_id, t.pos
""")


@entry
def q_search_after_page2(sf_dir: str):
    """Deep pagination (Lucene searchAfter): page 2 of the standard
    BM25 query — page 1's last (score, externalId) becomes the cursor,
    `search_after` returns the strictly-after next 10; the oracle is
    the same ranking with OFFSET 10."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    q = BM25_QUERY
    page1 = engine.search(q, k=10)
    cursor = (page1["score"][-1].as_py(), page1["external_id"][-1].as_py())
    page2 = engine.search_after(q, cursor, k=10)
    return _ranked_to_table(page2)


oracle(q_search_after_page2, _bm25_sql(BM25_QUERY_TERMS, 10).replace(
    "limit 10", "limit 10 offset 10"))


@entry
def q_nb_lang_predict(sf_dir: str):
    """Multinomial Naive Bayes language classifier: TRAIN distributed
    on docs with doc_id % 5 != 0 (label×vocab count exchange — the
    corpus never reaches the driver), PREDICT the held-out 20% with a
    broadcast model in a stateless map. Log-probs on the 1e-4 integer
    grid make the argmax (ties → lang asc) SQL-reproducible."""
    import ray.data as rd
    from ..functions.text import naive_bayes_predict, naive_bayes_train
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])

    def split(train: bool):
        def fn(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy()
            keep = (ids % 5 != 0) if train else (ids % 5 == 0)
            return b.filter(pa.array(keep))
        return fn

    model = naive_bayes_train(
        ds.map_batches(split(True), batch_format="pyarrow"))
    pred = naive_bayes_predict(
        ds.map_batches(split(False), batch_format="pyarrow"), model)
    out = pred.to_pandas().sort_values("doc_id", ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


oracle(q_nb_lang_predict, f"""
with train as (select * from documents where doc_id % 5 <> 0),
test as (select * from documents where doc_id % 5 = 0),
ttok as (select lang, unnest({SIMPLE_TOKS_SQL}) as term from train),
ct as (select lang, term, count(*)::bigint as c from ttok group by 1, 2),
nl as (select lang, count(*)::bigint as ntok from ttok group by 1),
v as (select count(distinct term)::bigint as v from ttok),
cl as (select lang, count(*)::bigint as n from train group by 1),
ntr as (select count(*)::bigint as n from train),
prior as (select cl.lang,
                 floor(ln(cl.n::double / ntr.n) * 10000 + 0.5)::bigint as p
          from cl cross join ntr),
tetok as (select doc_id, unnest({SIMPLE_TOKS_SQL}) as term from test),
tf as (select doc_id, term, count(*)::bigint as tf from tetok group by 1, 2),
sc as (
  select tf.doc_id, l.lang,
         min(prior.p)
         + sum(tf.tf * floor(ln((coalesce(ct.c, 0) + 1)::double
                                / (nl.ntok + v.v)) * 10000 + 0.5)::bigint)
           as s
  from tf cross join (select distinct lang from train) l
  join nl on nl.lang = l.lang
  left join ct on ct.lang = l.lang and ct.term = tf.term
  join prior on prior.lang = l.lang
  cross join v
  group by tf.doc_id, l.lang),
ranked as (select doc_id, lang as pred,
                  row_number() over (partition by doc_id
                                     order by s desc, lang asc) as rn
           from sc)
select doc_id, pred from ranked where rn = 1 order by doc_id
""")


@entry
def q_weighted_sample(sf_dir: str):
    """Weight-proportional sample without replacement (Efraimidis &
    Spirakis A-Res, w = n_chars): ln(u)/w keys from the md5 id
    permutation, top-50 — the auditable quality-weighted subsampling
    op; the oracle recomputes the identical keys in SQL."""
    import ray.data as rd
    from ..functions.sample import weighted_sample
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    return weighted_sample(ds, weight_col="n_chars", k=50, auditable=True)


oracle(q_weighted_sample, """
with h as (select doc_id,
  ((('0x' || substr(md5(doc_id::varchar), 1, 16))::ubigint)::double + 1.0)
    / 18446744073709551616.0 as u,
  n_chars::double as w from documents),
r as (select doc_id,
             row_number() over (order by ln(u)/w desc, doc_id) - 1
               as sample_rank
      from h)
select doc_id, sample_rank::bigint as sample_rank
from r where sample_rank < 50
""")


@entry
def q_bpe_merges(sf_dir: str):
    """BPE tokenizer training (Sennrich 2016) over the documents table:
    one distributed word-histogram pass, driver merge loop on the
    vocabulary-sized counts (the SentencePiece/HF trainer design) —
    rows-only (the iterative merge loop is not SQL-expressible; the
    histogram==stream equivalence is pytest-proven)."""
    import ray.data as rd
    from ..functions.bpe import bpe_train
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text"])
    return bpe_train(ds, num_merges=30)


SQL_MSM_SEARCH = _bm25_sql(
    BM25_QUERY_TERMS, 100,
    doc_filter="tfs.doc_id in (select doc_id from tfs "
               "group by doc_id having count(distinct term) >= 2)")

# #MSM/2 at batch scale: per-salt clause-indicator bincount over
# the same key set as the score sum (docs live in one salt, so local
# clause counts are exact), cnt ≥ n mask before the top-k cut. Same
# query/oracle as ``msm_search`` — the distributed path must be
# rank- and score-identical to the engine.
_batch_entry("msm_distributed", "bm25_msm_batch_search",
             [("q1", "dup line hash", 2)], SQL_MSM_SEARCH, model=_BM25, k=100)

# Minimum-should-match (#MSM/n — Lucene BooleanQuery
# setMinimumNumberShouldMatch): docs matching ≥ 2 of the 3 terms,
# scored as BM25 #SUM over the matching terms; the oracle injects a
# HAVING count(distinct term) ≥ 2 candidate filter into the shared
# BM25 template.
_search_entry("msm_search", _simple_index, _BM25, "#msm/2(dup line hash)", 100,
              SQL_MSM_SEARCH)


# Query-time thesaurus expansion (Lucene SynonymGraphFilter
# analogue): ``fast merge`` with thesaurus {fast: [quick]} rewrites
# the 'fast' leaf to ``#SYN(fast quick)`` before scoring, so the
# plan is identical to ``#sum(#syn(fast quick) merge)`` under BM25 —
# oracle = the derived-SYN leaf transcription (summed member tf,
# union df).
_search_entry("synonym_search", _simple_index, _BM25, "fast merge", 100,
              _bm25_derived_sql([("syn", ("fast", "quick")),
                                 ("term", "merge")], 100),
              synonyms={"fast": ["quick"]})


# Fuzzy retrieval (Lucene FuzzyQuery syntax ``term~d``): each
# marked term rewrites to a #SYN of indexed vocabulary terms within
# edit distance d (unit-cost Levenshtein, expansion capped at 64 by
# (distance, term) order), ranked boolean — the oracle mirrors the
# edit ball with DuckDB's own ``levenshtein`` (identical unit-cost
# definition).
_search_entry("fuzzy_search", _simple_index, _RANKED, "#or(mirge~1 fst~2)",
              100, f"""
with {_tok_cte()},
v1 as (select term from (
         select distinct term, levenshtein(term, 'mirge') as d from tok)
       where d <= 1 order by d, term limit 64),
v2 as (select term from (
         select distinct term, levenshtein(term, 'fst') as d from tok)
       where d <= 2 order by d, term limit 64),
tf1 as (select doc_id, count(*)::double as tf from tok
        where term in (select term from v1) group by doc_id),
tf2 as (select doc_id, count(*)::double as tf from tok
        where term in (select term from v2) group by doc_id),
scored as (
  select coalesce(a.doc_id, b.doc_id) as doc_id,
         greatest(coalesce(a.tf, 0.0), coalesce(b.tf, 0.0)) as raw
  from tf1 a full outer join tf2 b on a.doc_id = b.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 100
""")


@entry
def q_rocchio_terms(sf_dir: str):
    """Rocchio (1971) vector-space feedback over the BM25 top-5:
    weight(t) = α·1[t∈q] + (β/k)·Σ_d tf(t,d)·ln(N/df) — the SMART-era
    classic next to the Indri expansion; pure tf/df/ln arithmetic,
    hence SQL-expressible."""
    from .prf import rocchio_terms
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    initial = engine.search(BM25_QUERY, k=5)
    ids = initial["external_id"].to_pylist()
    scores = initial["score"].to_pylist()
    internal = reader.internal_docids_for(ids).tolist()
    best = rocchio_terms(reader, list(zip(internal, scores)),
                         list(BM25_QUERY_TERMS), fb_docs=5, fb_terms=10,
                         alpha=1.0, beta=0.75)
    return pa.table({
        "term": pa.array([t for t, _ in best], pa.string()),
        "weight": pa.array(round6([w for _, w in best])),
    })


oracle(q_rocchio_terms, f"""
{_bm25_prologue()},
tfs0 as (select doc_id, term, count(*)::double as tf from tok
        where term in ({",".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
        group by doc_id, term),
dfs0 as (select term, count(*)::double as df from tfs0 group by term),
scored as (
  select tfs0.doc_id,
         sum({_idf_sql('stats.n', 'dfs0.df')}
             * {_tfw_sql('tfs0.tf', 'doclen.dl', 'stats')}) as raw
  from tfs0 join dfs0 on tfs0.term = dfs0.term
  join doclen on tfs0.doc_id = doclen.doc_id
  cross join stats group by tfs0.doc_id),
topd as (select doc_id from scored
         order by raw desc, doc_id asc limit 5),
cent as (select term, sum(cnt)::double as tf_sum from (
           select tok.doc_id, tok.term, count(*)::double as cnt
           from tok join topd using (doc_id)
           group by tok.doc_id, tok.term) group by term),
cdf as (select term, count(distinct doc_id)::double as df
        from tok where term in (select term from cent) group by term),
nfld as (select count(*)::double as n from doclen),
w as (select cent.term,
        (case when cent.term in
              ({",".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
              then 1.0 else 0.0 end)
        + (0.75 / 5) * cent.tf_sum * ln((select n from nfld) / cdf.df)
          as weight
      from cent join cdf using (term))
select term, floor(weight*1000000 + 0.5)/1000000 as weight from w
order by weight desc, term asc limit 10
""")


@entry
def q_sdm_wand_search(sf_dir: str):
    """Full-analyzer SDM — rows-only integration run; the oracle-checked
    twin is ``sdm_wand_search_simple`` (same driver code path, simple
    analyzer)."""
    from ..query.sdm import sdm_query
    reader = get_index(sf_dir, "lucene")
    engine = QueryEngine(reader, _INDRI)
    return engine.search(sdm_query("fast sort"), k=100)


# The FULL three-subtree SDM (#WAND over a BoW #AND, a #NEAR/1
# #AND and a #WINDOW/8 #AND) on the DRIVER engine path, simple
# analyzer — ORACLE-CHECKED (VERDICT r3 item 5): the greedy #WINDOW
# tf comes from the same recursive-CTE transcription as
# ``window_search``, #NEAR/1 from the adjacency join, and the #WAND/
# #AND nesting is pure arithmetic over Indri leaves. Exercises the
# identical ``QueryEngine.search`` tree evaluation as the rows-only
# full-analyzer ``sdm_wand_search``.
_search_entry("sdm_wand_search_simple", _simple_index, _INDRI,
              sdm_query("fast sort"), 10, SQL_SDM_WAND_SIMPLE)


@entry
def q_prf_expansion(sf_dir: str):
    """Full-analyzer PRF chain — rows-only integration run; the
    oracle-checked twin is ``prf_expansion_simple``."""
    from .prf import prf_search
    reader = get_index(sf_dir, "lucene")
    engine = QueryEngine(reader, _INDRI)
    res, expanded = prf_search(engine, "fast sort", fb_docs=10, fb_terms=5,
                               fb_mu=0.0, fb_orig_weight=0.5, k=100)
    return res


@entry
def q_prf_expansion_simple(sf_dir: str):
    """The FULL PRF chain (initial Indri retrieval → fb_mu=0 expansion
    → ``#wand`` re-retrieval) on the simple analyzer — ORACLE-CHECKED
    end-to-end (VERDICT r3 item 5): every stage is arithmetic over
    tf/dl/ctf, and the ``%.4f`` weight formatting the expanded query
    string carries is mirrored as floor(w·10⁴+0.5)/10⁴ in SQL (both
    are exact on non-tie values; ties at the 5th decimal of a float
    sum are measure-zero). Exercises the identical ``prf_search``
    driver code path as the rows-only full-analyzer
    ``prf_expansion``."""
    from .prf import prf_search
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _INDRI)
    res, _ = prf_search(engine, "fast sort", fb_docs=10, fb_terms=5,
                        fb_mu=0.0, fb_orig_weight=0.5, k=100)
    return _ranked_to_table(res)
oracle(q_prf_expansion_simple, SQL_PRF_EXPANSION_SIMPLE)


def _prf_terms_entry(name: str, fb_mu: float, sql: str):
    """Entry ``name``: ``prf.expansion_terms`` (10 feedback docs, 5
    terms, smoothing ``fb_mu``) over the standard BM25 top-10 →
    (term, weight)."""
    def fn(sf_dir: str):
        from .prf import expansion_terms
        reader = _simple_index(sf_dir)
        initial = QueryEngine(reader, _BM25).search(BM25_QUERY, k=10)
        internal = reader.internal_docids_for(
            initial["external_id"].to_pylist()).tolist()
        best = expansion_terms(
            reader, list(zip(internal, initial["score"].to_pylist())),
            fb_docs=10, fb_terms=5, fb_mu=fb_mu)
        return pa.table({
            "term": pa.array([t for t, _ in best], pa.string()),
            "weight": pa.array(round6([w for _, w in best])),
        })
    return _register(fn, name, sql)


# PRF expansion-term weights at fb_mu=0 over the SIMPLE index —
# p(t|d) = tf/dl, weight(t) = Σ_d p(t|d)·score_d·ln(clen/ctf): pure
# arithmetic over tf/doclen/ctf, hence SQL-expressible (the
# full-analyzer PRF pipeline stays rows-only as ``prf_expansion``).
# Initial ranking = the oracle-checked BM25 top-10.
_prf_terms_entry("prf_terms_fb_mu0", 0.0, f"""
{_bm25_prologue()},
qtfs as (select doc_id, term, count(*)::double as tf from tok
         where term in ('dup','line','hash') group by doc_id, term),
qdfs as (select term, count(*)::double as df from qtfs group by term),
scored as (
  select qtfs.doc_id,
         sum({_idf_sql('stats.n', 'qdfs.df')}
             * {_tfw_sql('qtfs.tf', 'doclen.dl', 'stats')}) as raw
  from qtfs join qdfs using (term) join doclen using (doc_id)
  cross join stats group by qtfs.doc_id),
topd as (select doc_id, raw as score from scored
         order by raw desc, doc_id asc limit 10),
ttf as (select t.doc_id, t.term, count(*)::double as tf
        from tok t join topd using (doc_id) group by t.doc_id, t.term),
ctf as (select term, count(*)::double as ctf from tok
        where term in (select distinct term from ttf) group by term),
wt as (select ttf.term,
         sum((ttf.tf / doclen.dl) * topd.score
             * ln(stats.suml / ctf.ctf)) as w
       from ttf join topd using (doc_id) join doclen using (doc_id)
       join ctf using (term) cross join stats
       group by ttf.term)
select term, floor(w*1000000 + 0.5)/1000000 as weight from wt
order by w desc, term asc limit 5
""")


# Full Dirichlet-smoothed PRF expansion weights (fb_mu=2500):
# p(t|d) = (tf + μ·ctf/clen)/(dl + μ) summed over ALL fb docs
# (including tf=0 docs — the second pass the reference makes in
# QryEval.java expandQuery). Still pure arithmetic → SQL-expressible;
# complements the μ=0 oracle which never exercises the smoothing
# term.
_prf_terms_entry("prf_terms_fb_mu2500", 2500.0, f"""
{_bm25_prologue()},
qtfs as (select doc_id, term, count(*)::double as tf from tok
         where term in ('dup','line','hash') group by doc_id, term),
qdfs as (select term, count(*)::double as df from qtfs group by term),
scored as (
  select qtfs.doc_id,
         sum({_idf_sql('stats.n', 'qdfs.df')}
             * {_tfw_sql('qtfs.tf', 'doclen.dl', 'stats')}) as raw
  from qtfs join qdfs using (term) join doclen using (doc_id)
  cross join stats group by qtfs.doc_id),
topd as (select doc_id, raw as score from scored
         order by raw desc, doc_id asc limit 10),
ttf as (select t.doc_id, t.term, count(*)::double as tf
        from tok t join topd using (doc_id) group by t.doc_id, t.term),
cand as (select distinct term from ttf),
ctf as (select term, count(*)::double as ctf from tok
        where term in (select term from cand) group by term),
wt as (select c.term,
         sum(((coalesce(ttf.tf, 0.0) + 2500.0 * (ctf.ctf / stats.suml))
              / (doclen.dl + 2500.0)) * topd.score
             * ln(stats.suml / ctf.ctf)) as w
       from cand c
       cross join topd
       join doclen on doclen.doc_id = topd.doc_id
       left join ttf on ttf.term = c.term and ttf.doc_id = topd.doc_id
       join ctf on ctf.term = c.term
       cross join stats
       group by c.term)
select term, floor(w*1000000 + 0.5)/1000000 as weight from wt
order by w desc, term asc limit 5
""")


# The multi-field BM25 query scored through the DISTRIBUTED
# structured path (per-field df/doclen/avglen routing in
# ``bm25_structured_batch_search``) — same oracle as the driver-path
# ``bm25_multifield_top10``.
_batch_entry("bm25_multifield_distributed", "bm25_structured_batch_search",
             [("1", MULTIFIELD_QUERY)], SQL_BM25_MULTIFIELD_TOP10,
             index=_url_index, model=_BM25, k=10)


BATCH_BM25_QUERIES = [("q1", ("dup", "line", "hash")),
                      ("q2", ("dup", "sort", "merge")),
                      ("q3", ("line", "merge"))]


# The MULTI-QUERY distributed BM25 path (one shuffle scores the
# whole batch via packed qcode<<44|docid keys) against a per-query
# UNION ALL of the single-query BM25 oracle template.
_batch_entry("bm25_batch_distributed", "bm25_batch_search",
             [(qid, " ".join(terms)) for qid, terms in BATCH_BM25_QUERIES],
             "\nunion all\n".join(
                 f"select '{qid}' as qid, * from ({_bm25_sql(terms, 10)})"
                 for qid, terms in BATCH_BM25_QUERIES),
             model=_BM25, k=10)


def _n_docs(sf_dir: str) -> int:
    return pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"]).num_rows


def _batch_rankings(engine):
    """(qnum, qid, ranked doc ids as str) for each of BATCH_BM25_QUERIES
    (qnum from 1), ranked top-50 by ``engine``."""
    for qnum, (qid, terms) in enumerate(BATCH_BM25_QUERIES, start=1):
        t = engine.search(" ".join(terms), k=50)
        yield qnum, qid, [str(d) for d in
                          _docid_of_external(t["external_id"].to_pylist())]


@entry
def q_eval_metrics(sf_dir: str):
    """trec_eval metrics (AP, P@10, NDCG@10, RR — query/metrics.py,
    replacing the reference's trec_eval CGI upload fetchUrl.pl:15-31)
    over the three oracle BM25 rankings, with DETERMINISTIC synthetic
    qrels: doc is relevant to query i iff doc_id % 7 == i, graded
    1 + (doc_id % 2). Every metric is window-function SQL."""
    from ..query.metrics import (
        average_precision, ndcg_at_k, precision_at_k, reciprocal_rank,
    )
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    n_docs = _n_docs(sf_dir)
    rows = []
    for qnum, qid, ranked in _batch_rankings(engine):
        rel = {str(d): 1 + (d % 2) for d in range(n_docs)
               if d % 7 == qnum}
        rows.append((qid, average_precision(ranked, rel),
                     precision_at_k(ranked, rel, 10),
                     ndcg_at_k(ranked, rel, 10),
                     reciprocal_rank(ranked, rel)))
    return pa.table({
        "qid": pa.array([r[0] for r in rows], pa.string()),
        "ap": pa.array(round6([r[1] for r in rows])),
        "p_at_10": pa.array(round6([r[2] for r in rows])),
        "ndcg_at_10": pa.array(round6([r[3] for r in rows])),
        "rr": pa.array(round6([r[4] for r in rows])),
    })


def _eval_metrics_sql() -> str:
    per_q = []
    for qnum, (qid, terms) in enumerate(BATCH_BM25_QUERIES, start=1):
        per_q.append(f"""
select '{qid}' as qid, doc_id,
       row_number() over (order by raw desc, doc_id asc) as rnk,
       case when doc_id % 7 = {qnum} then 1 + (doc_id % 2) else 0 end as rel
from ({_bm25_sql(terms, 50, raw=True)})""")
    ranked = "\nunion all\n".join(f"select * from ({s}) s{i}"
                                  for i, s in enumerate(per_q))
    qrels = " union all ".join(
        f"select '{qid}' as qid, doc_id, 1 + (doc_id % 2) as rel "
        f"from documents where doc_id % 7 = {qnum}"
        for qnum, (qid, _) in enumerate(BATCH_BM25_QUERIES, start=1))
    return f"""
with ranked as materialized ({ranked}),
qrels as materialized ({qrels}),
nrel as (select qid, count(*)::double as n_rel from qrels group by qid),
idcg as (
  select qid, sum(rel / log2(irnk + 1)) as v from (
    select qid, rel,
           row_number() over (partition by qid order by rel desc) as irnk
    from qrels) t where irnk <= 10 group by qid),
hits as (
  select qid, rnk, rel,
         count(*) filter (where rel > 0)
           over (partition by qid order by rnk) as cum_hits
  from ranked),
ap as (
  select h.qid, coalesce(sum(h.cum_hits / h.rnk)
                         filter (where h.rel > 0), 0.0) / any_value(n.n_rel) as v
  from hits h join nrel n using (qid) group by h.qid),
p10 as (
  select qid, sum(case when rel > 0 and rnk <= 10 then 1 else 0 end)
              / 10.0 as v
  from ranked group by qid),
dcg as (
  select qid, sum(case when rnk <= 10 then rel / log2(rnk + 1)
                       else 0 end) as v
  from ranked group by qid),
rr as (
  select qid, coalesce(1.0 / min(rnk) filter (where rel > 0), 0.0) as v
  from ranked group by qid)
select ap.qid,
       floor(ap.v*1000000 + 0.5)/1000000 as ap,
       floor(p10.v*1000000 + 0.5)/1000000 as p_at_10,
       floor((dcg.v / idcg.v)*1000000 + 0.5)/1000000 as ndcg_at_10,
       floor(rr.v*1000000 + 0.5)/1000000 as rr
from ap join p10 using (qid) join dcg using (qid)
join idcg using (qid) join rr using (qid)
"""


oracle(q_eval_metrics, _eval_metrics_sql())


@entry
def q_sig_test(sf_dir: str):
    """Paired t significance test between two BM25 parameterizations
    (k1=1.2,b=0.75 vs k1=2.0,b=0.3) on per-query AP over the batch
    queries and the synthetic qrels — the standard two-run comparison
    trec_eval users hand to a t-test; pure arithmetic, SQL-mirrored."""
    from ..query.metrics import average_precision, paired_ttest
    reader = _simple_index(sf_dir)
    n_docs = _n_docs(sf_dir)
    aps = {}
    for tag, (k1, b) in (("a", (1.2, 0.75)), ("b", (2.0, 0.3))):
        engine = QueryEngine(reader, BM25Model(k1=k1, b=b))
        vals = []
        for qnum, qid, ranked in _batch_rankings(engine):
            rel = {str(d): 1 + (d % 2) for d in range(n_docs)
                   if d % 7 == qnum}
            vals.append(average_precision(ranked, rel))
        aps[tag] = vals
    r = paired_ttest(aps["a"], aps["b"])
    return pa.table({
        "n": pa.array([r["n"]], pa.int64()),
        "mean_a": pa.array(round6([r["mean_a"]])),
        "mean_b": pa.array(round6([r["mean_b"]])),
        "mean_diff": pa.array(round6([r["mean_diff"]])),
        "t_stat": pa.array(round6([r["t_stat"]])),
    })


def _sig_test_sql() -> str:
    def ranked_union(k1: float, b: float, run: str) -> str:
        per_q = []
        for qnum, (qid, terms) in enumerate(BATCH_BM25_QUERIES, start=1):
            per_q.append(f"""
select '{run}' as run, '{qid}' as qid, doc_id,
       row_number() over (order by raw desc, doc_id asc) as rnk,
       case when doc_id % 7 = {qnum} then 1 + (doc_id % 2) else 0 end as rel
from ({_bm25_sql(terms, 50, raw=True, k1=k1, b=b)})""")
        return "\nunion all\n".join(f"select * from ({s}) {run}{i}"
                                    for i, s in enumerate(per_q))
    qrels = " union all ".join(
        f"select '{qid}' as qid, count(*)::double as n_rel "
        f"from documents where doc_id % 7 = {qnum} group by 1"
        for qnum, (qid, _) in enumerate(BATCH_BM25_QUERIES, start=1))
    return f"""
with ranked as materialized (
  {ranked_union(1.2, 0.75, 'a')}
union all
  {ranked_union(2.0, 0.3, 'b')}),
nrel as materialized ({qrels}),
hits as (
  select run, qid, rnk, rel,
         count(*) filter (where rel > 0)
           over (partition by run, qid order by rnk) as cum_hits
  from ranked),
ap as (
  select h.run, h.qid,
         coalesce(sum(h.cum_hits / h.rnk) filter (where h.rel > 0), 0.0)
           / any_value(n.n_rel) as v
  from hits h join nrel n using (qid) group by h.run, h.qid),
pairs as (
  select a.qid, a.v as va, b.v as vb, a.v - b.v as d
  from (select * from ap where run = 'a') a
  join (select * from ap where run = 'b') b using (qid)),
agg as (
  select count(*)::bigint as n, avg(va) as ma, avg(vb) as mb,
         avg(d) as md, stddev_samp(d) as sd from pairs)
select n,
       floor(ma*1000000 + 0.5)/1000000 as mean_a,
       floor(mb*1000000 + 0.5)/1000000 as mean_b,
       floor(md*1000000 + 0.5)/1000000 as mean_diff,
       floor((case when sd > 0 then md / (sd / sqrt(n)) else 0.0 end)
             *1000000 + 0.5)/1000000 as t_stat
from agg
"""


oracle(q_sig_test, _sig_test_sql())


def _synthetic_qrels(n_docs: int, qnum: int) -> dict[str, int]:
    """Graded judgments with an explicit judged-NONRELEVANT class (rel 0,
    doc_id % 7 == qnum+3) alongside the relevant class (doc_id % 7 ==
    qnum) — bpref needs judged nonrel; everything else is unjudged."""
    rel = {str(d): 1 + (d % 2) for d in range(n_docs) if d % 7 == qnum}
    rel.update({str(d): 0 for d in range(n_docs)
                if d % 7 == (qnum + 3) % 7})
    return rel


@entry
def q_eval_trec_extended(sf_dir: str):
    """trec_eval parity beyond eval_metrics: R-precision and bpref per
    query, with judged-nonrelevant docs in the qrels (bpref is the
    judgment-robust metric — unjudged docs are invisible to it)."""
    from ..query.metrics import bpref, r_precision
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    n_docs = _n_docs(sf_dir)
    rows = []
    for qnum, qid, ranked in _batch_rankings(engine):
        rel = _synthetic_qrels(n_docs, qnum)
        rows.append((qid, r_precision(ranked, rel), bpref(ranked, rel)))
    return pa.table({
        "qid": pa.array([r[0] for r in rows], pa.string()),
        "r_prec": pa.array(round6([r[1] for r in rows])),
        "bpref_score": pa.array(round6([r[2] for r in rows])),
    })


@entry
def q_eval_iprec11(sf_dir: str):
    """trec_eval's 11-point interpolated precision-recall curve per
    query — (qid, level_x10, iprec): max precision at any rank whose
    recall clears the level, with the recall comparison integer-exact
    (10·hits ≥ level·n_rel) on both sides."""
    from ..query.metrics import interpolated_precision_11pt
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    n_docs = _n_docs(sf_dir)
    out_q, out_l, out_p = [], [], []
    for qnum, qid, ranked in _batch_rankings(engine):
        rel = {str(d): 1 for d in range(n_docs) if d % 7 == qnum}
        for lvl, p in enumerate(interpolated_precision_11pt(ranked, rel)):
            out_q.append(qid)
            out_l.append(lvl)
            out_p.append(p)
    return pa.table({
        "qid": pa.array(out_q, pa.string()),
        "level_x10": pa.array(out_l, pa.int64()),
        "iprec": pa.array(round6(out_p)),
    })


def _ranked_rel_sql() -> str:
    """ranked-with-judgments CTE body shared by the extended-metric
    oracles: the 3 BM25 rankings with rel = graded / 0-judged / NULL
    unjudged."""
    per_q = []
    for qnum, (qid, terms) in enumerate(BATCH_BM25_QUERIES, start=1):
        per_q.append(f"""
select '{qid}' as qid, doc_id,
       row_number() over (order by raw desc, doc_id asc) as rnk,
       case when doc_id % 7 = {qnum} then 1 + (doc_id % 2)
            when doc_id % 7 = {(qnum + 3) % 7} then 0
            else null end as rel
from ({_bm25_sql(terms, 50, raw=True)})""")
    return "\nunion all\n".join(f"select * from ({s}) s{i}"
                                for i, s in enumerate(per_q))


def _eval_trec_extended_sql() -> str:
    counts = " union all ".join(
        f"select '{qid}' as qid, "
        f"(select count(*) from documents where doc_id % 7 = {qnum})::bigint"
        f" as n_rel, "
        f"(select count(*) from documents "
        f" where doc_id % 7 = {(qnum + 3) % 7})::bigint as n_nonrel"
        for qnum, (qid, _) in enumerate(BATCH_BM25_QUERIES, start=1))
    return f"""
with ranked as materialized ({_ranked_rel_sql()}),
counts as ({counts}),
rp as (
  select r.qid,
         sum(case when r.rel > 0 and r.rnk <= c.n_rel then 1 else 0 end)
           / c.n_rel::double as v
  from ranked r join counts c using (qid) group by r.qid, c.n_rel),
win as (
  select qid, rnk, rel,
         count(*) filter (where rel = 0) over
           (partition by qid order by rnk
            rows between unbounded preceding and 1 preceding) as nonrel_above
  from ranked),
bp as (
  select w.qid,
         sum(least(c.n_nonrel, c.n_rel)
             - least(w.nonrel_above, c.n_rel))
           filter (where w.rel > 0)::bigint
           / (c.n_rel * least(c.n_nonrel, c.n_rel))::double as v
  from win w join counts c using (qid)
  group by w.qid, c.n_rel, c.n_nonrel)
select rp.qid,
       floor(rp.v*1000000 + 0.5)/1000000 as r_prec,
       floor(coalesce(bp.v, 0.0)*1000000 + 0.5)/1000000 as bpref_score
from rp join bp using (qid) order by qid
"""


def _eval_iprec11_sql() -> str:
    counts = " union all ".join(
        f"select '{qid}' as qid, "
        f"(select count(*) from documents where doc_id % 7 = {qnum})::bigint"
        f" as n_rel"
        for qnum, (qid, _) in enumerate(BATCH_BM25_QUERIES, start=1))
    return f"""
with ranked as materialized ({_ranked_rel_sql()}),
counts as ({counts}),
hits as (
  select qid, rnk,
         count(*) filter (where rel > 0) over
           (partition by qid order by rnk) as cum_hits
  from ranked where rel > 0),
levels as (select unnest(generate_series(0, 10)) as lvl),
iprec as (
  select c.qid, l.lvl,
         coalesce(max(h.cum_hits / h.rnk::double)
                  filter (where 10 * h.cum_hits >= l.lvl * c.n_rel),
                  0.0) as v
  from counts c cross join levels l
  left join hits h on h.qid = c.qid
  group by c.qid, l.lvl)
select qid, lvl::bigint as level_x10,
       floor(v*1000000 + 0.5)/1000000 as iprec
from iprec order by qid, lvl
"""


oracle(q_eval_trec_extended, _eval_trec_extended_sql())
oracle(q_eval_iprec11, _eval_iprec11_sql())


# (k1, b) hyper-parameter grid for the one-pass tuning sweep
BM25_TUNE_GRID = ((0.9, 0.4), (1.2, 0.75), (2.0, 0.9))


@entry
def q_bm25_grid_tune(sf_dir: str):
    """Hyper-parameter tuning as a distributed job: one postings pass
    scores EVERY (k1, b) grid point for the whole query batch
    (``bm25_grid_search`` — grid points re-weight the same decoded tf /
    doclen arrays inside each salt task), then MAP per grid point
    against the deterministic synthetic qrels (doc relevant to query i
    iff doc_id % 7 == i). → (k1_x100, b_x100, qid, ap), the sweep
    leaderboard (MAP per grid point = mean of its qid rows)."""
    from ..query.distributed import bm25_grid_search
    from ..query.metrics import average_precision
    reader = _simple_index(sf_dir)
    ranked = bm25_grid_search(
        reader.index_dir,
        [(qid, " ".join(terms)) for qid, terms in BATCH_BM25_QUERIES],
        list(BM25_TUNE_GRID), k=50)
    n_docs = _n_docs(sf_dir)
    rels = {qid: {str(d): 1 for d in range(n_docs) if d % 7 == qnum}
            for qnum, (qid, _) in enumerate(BATCH_BM25_QUERIES, start=1)}
    pdf = ranked.to_pandas()
    pdf["doc_id"] = _docid_of_external(pdf["external_id"].tolist())
    rows = []
    for k1, b in BM25_TUNE_GRID:
        for qid, _ in BATCH_BM25_QUERIES:
            sub = pdf[(pdf["k1"] == k1) & (pdf["b"] == b)
                      & (pdf["qid"] == qid)].sort_values("rank")
            rows.append((int(round(k1 * 100)), int(round(b * 100)), qid,
                         average_precision(
                             [str(d) for d in sub["doc_id"]], rels[qid])))
    return pa.table({
        "k1_x100": pa.array([r[0] for r in rows], pa.int64()),
        "b_x100": pa.array([r[1] for r in rows], pa.int64()),
        "qid": pa.array([r[2] for r in rows], pa.string()),
        "ap": pa.array(round6([r[3] for r in rows])),
    })


def _bm25_grid_tune_sql() -> str:
    per = []
    for k1, b in BM25_TUNE_GRID:
        for qnum, (qid, terms) in enumerate(BATCH_BM25_QUERIES, start=1):
            per.append(f"""
select {int(round(k1 * 100))} as k1_x100, {int(round(b * 100))} as b_x100,
       '{qid}' as qid, doc_id,
       row_number() over (order by raw desc, doc_id asc) as rnk,
       case when doc_id % 7 = {qnum} then 1 else 0 end as rel
from ({_bm25_sql(terms, 50, raw=True, k1=k1, b=b)})""")
    ranked = "\nunion all\n".join(f"select * from ({s}) g{i}"
                                 for i, s in enumerate(per))
    qrels = " union all ".join(
        f"select '{qid}' as qid, count(*)::double as n_rel "
        f"from documents where doc_id % 7 = {qnum}"
        for qnum, (qid, _) in enumerate(BATCH_BM25_QUERIES, start=1))
    return f"""
with ranked as materialized ({ranked}),
nrel as ({qrels}),
hits as (
  select k1_x100, b_x100, qid, rnk, rel,
         count(*) filter (where rel > 0)
           over (partition by k1_x100, b_x100, qid order by rnk) as cum_hits
  from ranked),
ap as (
  select h.k1_x100, h.b_x100, h.qid,
         coalesce(sum(h.cum_hits / h.rnk) filter (where h.rel > 0), 0.0)
           / any_value(n.n_rel) as v
  from hits h join nrel n using (qid)
  group by h.k1_x100, h.b_x100, h.qid)
select k1_x100::bigint as k1_x100, b_x100::bigint as b_x100, qid,
       floor(v*1000000 + 0.5)/1000000 as ap
from ap order by k1_x100, b_x100, qid
"""


oracle(q_bm25_grid_tune, _bm25_grid_tune_sql())


@entry
def q_minhash_dedup(sf_dir: str):
    import ray.data as rd
    from ..functions.dedup import minhash_lsh_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return minhash_lsh_dedup(ds, jaccard_threshold=0.8)


@entry
def q_jaccard_verified_dedup(sf_dir: str):
    """MinHash-LSH candidates verified with TRUE n-gram Jaccard: the
    candidate set is small, so texts for just those ids are fetched with
    a pruned read and verified pairwise against their canonicals."""
    import ray.data as rd
    import pyarrow.compute as pc
    from ..functions.dedup import minhash_lsh_dedup, ngram_jaccard
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    cand = minhash_lsh_dedup(ds, jaccard_threshold=0.5).to_pandas()
    if cand.empty:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "canonical_id": pa.array([], pa.int64()),
                         "jaccard": pa.array([], pa.float64())})
    ids = sorted(set(cand["doc_id"]) | set(cand["canonical_id"]))
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"],
                      filters=[("doc_id", "in", ids)])
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    rows = []
    for d, c in zip(cand["doc_id"], cand["canonical_id"]):
        if d == c:
            continue
        j = ngram_jaccard(texts.get(int(d), ""), texts.get(int(c), ""))
        if j >= 0.5:
            rows.append((int(d), int(c), float(round6(j))))
    rows.sort()
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "canonical_id": pa.array([r[1] for r in rows], pa.int64()),
        "jaccard": pa.array([r[2] for r in rows], pa.float64()),
    })


@entry
def q_simhash_dedup(sf_dir: str):
    import ray.data as rd
    from ..functions.dedup import simhash_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return simhash_dedup(ds)


@entry
def q_ngram_jaccard_pairs(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs (inverted-shingle pattern,
    functions/dedup.py ngram_jaccard_pairs) — unlike the MinHash entries
    this is approximation-free, so DuckDB can mirror it with a distinct-
    shingle self-join."""
    import ray.data as rd
    from ..functions.dedup import ngram_jaccard_pairs
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, threshold=0.5)

    def rnd(b: pa.Table) -> pa.Table:
        return pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                         "jaccard": pa.array(round6(
                             b["jaccard"].to_numpy(zero_copy_only=False)))})
    return out.map_batches(rnd, batch_format="pyarrow")


oracle(q_ngram_jaccard_pairs, f"""
with tok as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
sh as (
  select t.doc_id,
         t.toks[g.i] || ' ' || t.toks[g.i + 1] || ' ' || t.toks[g.i + 2] as s
  from tok t cross join unnest(generate_series(1, len(t.toks) - 2)) as g(i)
  where len(t.toks) >= 3
  union all
  select doc_id, array_to_string(toks, ' ') as s from tok
  where len(toks) between 1 and 2),
dsh0 as (select distinct doc_id, s from sh),
-- heavy-hitter cap (max_shingle_df=256 default, ON): shingles shared
-- by more docs than the cap are dropped BEFORE set sizes, mirroring
-- the engine's boilerplate guard
dsh as (select * from dsh0 where s in (
          select s from dsh0 group by s having count(*) <= 256)),
sz as (select doc_id, count(*)::bigint as sz from dsh group by doc_id),
inter as (
  select a.doc_id as id_a, b.doc_id as id_b, count(*)::double as c
  from dsh a join dsh b on a.s = b.s and a.doc_id < b.doc_id
  group by 1, 2),
j as (select id_a, id_b, c / (za.sz + zb.sz - c) as jac
      from inter
      join sz za on za.doc_id = inter.id_a
      join sz zb on zb.doc_id = inter.id_b)
select id_a, id_b, floor(jac*1000000 + 0.5)/1000000 as jaccard
from j where jac >= 0.5
""")


@entry
def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup PAIRS (Hamming ≤ 3, 4-band pigeonhole blocking)
    — stops before union-find so the whole op is SQL-expressible: DuckDB
    rebuilds the 64-bit weighted fingerprints from md5 token hashes and
    joins on band equality."""
    import ray.data as rd
    from ..functions.dedup import simhash_pairs
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return simhash_pairs(ds)


# connected components over an ``edges(a, b)`` CTE as recursive
# reachability: canonical = min node reachable through the symmetric
# closure. Mirrors _compress_canonical's contract exactly — every member
# of a non-trivial component appears once, canonical rows included.
# O(component²) paths: fine at oracle scale, the engine's distributed
# large/small-star CC (functions/graph.py) is the scale path.
_CC_CTES = """
sym as (select a, b from edges union select b, a from edges),
reach(src, dst) as (
  select a, a from sym
  union
  select r.src, s.b from reach r join sym s on r.dst = s.a),
comp as (select src as doc_id, min(dst) as canonical_id
         from reach group by src)"""


SQL_SIMHASH_PAIRS = f"""
with {_tok_cte()},
tc as (select doc_id, term, count(*)::bigint as c from tok
       group by doc_id, term),
th as (select doc_id, ('0x' || substr(md5(term), 1, 16))::ubigint as h, c
       from tc),
bits as (select unnest(generate_series(0, 63)) as b),
bitv as (
  select th.doc_id, bits.b,
         sum(case when (th.h >> bits.b) & 1 = 1 then th.c else -th.c end) as v
  from th cross join bits group by th.doc_id, bits.b),
fp as (
  select d.doc_id,
         coalesce((select sum(case when v > 0 then (1::ubigint << b)
                                   else 0::ubigint end)
                   from bitv where bitv.doc_id = d.doc_id), 0::ubigint) as f
  from documents d),
bands4 as (select unnest(generate_series(0, 3)) as band),
bandt as (
  select doc_id, f, band,
         ((f >> (16 * band)) & 65535::ubigint) as key
  from fp cross join bands4),
pairs as (
  select a.doc_id as id_a, b.doc_id as id_b,
         min(bit_count(xor(a.f, b.f)))::bigint as hamming
  from bandt a join bandt b
    on a.band = b.band and a.key = b.key and a.doc_id < b.doc_id
  where bit_count(xor(a.f, b.f)) <= 3
  group by 1, 2)
select id_a, id_b, hamming from pairs
"""
oracle(q_simhash_pairs, SQL_SIMHASH_PAIRS)

# simhash_dedup = connected components over the Hamming-≤3 pair graph:
# the engine's per-bucket identical-fingerprint collapse + rep union-find
# (functions/dedup.py simhash_dedup) produces exactly the components of
# that graph, so the oracle reuses SQL_SIMHASH_PAIRS as the edge set.
oracle(q_simhash_dedup, f"""
with recursive edges as (
  select id_a as a, id_b as b from ({SQL_SIMHASH_PAIRS.strip()})
),{_CC_CTES}
select doc_id::bigint as doc_id, canonical_id::bigint as canonical_id
from comp
""")


@entry
def q_collapse_by_source(sf_dir: str):
    """Field collapsing / host crowding: BM25 top-50 → at most 2 results
    per `source` (walking the ranking in order), re-ranked top-10 — the
    SERP diversity cap applied before any intent-aware reranker."""
    from ..query.diversity import collapse_ranking
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    t = engine.search(BM25_QUERY, k=50)
    ext = t["external_id"].to_pylist()
    ids = _docid_of_external(ext)
    meta = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"],
                         filters=[("doc_id", "in", ids.tolist())])
    src = dict(zip(meta["doc_id"].to_pylist(), meta["source"].to_pylist()))
    group_of = {e: src.get(int(d)) for e, d in zip(ext, ids)}
    ranked = list(zip(ext, t["score"].to_pylist()))
    kept = collapse_ranking(ranked, group_of, max_per_group=2, k=10)
    return pa.table({
        "rank": pa.array(np.arange(1, len(kept) + 1, dtype=np.int64)),
        "doc_id": pa.array(_docid_of_external([e for e, _ in kept])),
        "score": pa.array(round6([s for _, s in kept])),
    })


oracle(q_collapse_by_source, f"""
with top50 as (
  select doc_id, raw,
         row_number() over (order by raw desc, doc_id asc) as rnk
  from ({_bm25_sql(BM25_QUERY_TERMS, 50, raw=True)})),
src as (
  select t.doc_id, t.raw, t.rnk,
         row_number() over (partition by d.source order by t.rnk) as gn
  from top50 t join documents d using (doc_id))
select row_number() over (order by rnk) as rank, doc_id,
       floor(raw*1000000 + 0.5)/1000000 as score
from src where gn <= 2 order by rnk limit 10
""")


@entry
def q_dedup_keep_best(sf_dir: str):
    """Quality-aware canonical selection: the simhash near-dup clusters
    re-keyed to their LONGEST member (n_tokens desc, doc_id asc) — the
    which-copy-survives policy, composed from simhash_dedup +
    select_canonical over a token-count score table."""
    import ray.data as rd
    from ..functions.dedup import select_canonical, simhash_dedup
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    clusters = simhash_dedup(ds)

    def ntok(b: pa.Table) -> pa.Table:
        n = [len(simple_tokenize(t or "")) for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pa.array(np.asarray(n, np.int64))})

    scores = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"]) \
        .map_batches(ntok, batch_format="pyarrow")
    res = select_canonical(clusters, scores, score_col="n_tokens") \
        .to_pandas().sort_values("canonical_id").reset_index(drop=True)
    return pa.table({
        "canonical_id": pa.array(res["canonical_id"].to_numpy(np.int64)),
        "keep_id": pa.array(res["keep_id"].to_numpy(np.int64)),
        "keep_n_tokens": pa.array(res["keep_score"].to_numpy(np.int64)),
    })


def _dedup_keep_best_sql() -> str:
    return f"""
with recursive edges as (
  select id_a as a, id_b as b from ({SQL_SIMHASH_PAIRS.strip()})
),{_CC_CTES},
ntok as (select doc_id, len({SIMPLE_TOKS_SQL})::bigint as n
         from documents),
best as (
  select c.canonical_id, c.doc_id, n.n,
         row_number() over (partition by c.canonical_id
                            order by n.n desc, c.doc_id asc) as rn
  from comp c join ntok n using (doc_id))
select canonical_id::bigint as canonical_id, doc_id::bigint as keep_id,
       n::bigint as keep_n_tokens
from best where rn = 1 order by canonical_id
"""


oracle(q_dedup_keep_best, _dedup_keep_best_sql())


@entry
def q_minhash_candidate_pairs(sf_dir: str):
    """MinHash-LSH band-collision candidate pairs with collision counts
    — the banding stage without the estimate filter / union-find, so the
    signatures (min over shingles of (a·h+b) mod 2⁶¹−1) are exactly
    reproducible in DuckDB uhugeint arithmetic with the permutation
    coefficients inlined as VALUES."""
    import ray.data as rd
    from ..functions.dedup import minhash_candidate_pairs
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return minhash_candidate_pairs(ds, num_perm=32, bands=8)


def _minhash_core_cte(num_perm: int, shingle: int) -> str:
    """Shared CTE block: tokenize → word shingles → md5-derived 64-bit
    shingle hashes → the ``sig`` relation (doc_id, j, m) of per-
    permutation minhash values, with the engine's permutation
    coefficients inlined as VALUES (uhugeint arithmetic is exact mod
    2⁶¹−1, so the values are bit-identical to MinHasher's). ``sig`` is
    materialized: inside a ``with recursive`` chain DuckDB 1.0 otherwise
    re-evaluates it at every reference (``sigv``, ``bandv``, twice in
    ``vp``)."""
    from ..functions.dedup import MinHasher
    mh = MinHasher(num_perm=num_perm, shingle=shingle)
    vals = ",".join(f"({j + 1},{int(a)},{int(b)})"
                    for j, (a, b) in enumerate(zip(mh.a, mh.b)))
    return f"""tok as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
perm(j, a, b) as (select * from (values {vals})),
sh as (
  select t.doc_id,
         t.toks[g.i] || ' ' || t.toks[g.i + 1] || ' ' || t.toks[g.i + 2] as s
  from tok t cross join unnest(generate_series(1, len(t.toks) - 2)) as g(i)
  where len(t.toks) >= {shingle}
  union all
  select doc_id, array_to_string(toks, ' ') as s from tok
  where len(toks) between 1 and {shingle - 1}),
hs as (select doc_id, ('0x' || substr(md5(s), 1, 16))::ubigint as h from sh),
sig as materialized (
  select doc_id, p.j,
         min((p.a::uhugeint * h::uhugeint + p.b::uhugeint)
             % 2305843009213693951::uhugeint)::ubigint as m
  from hs cross join perm p group by doc_id, p.j
  union all
  select t.doc_id, p.j, 18446744073709551615::ubigint as m
  from tok t cross join perm p where len(t.toks) = 0)"""


def _minhash_pairs_sql(num_perm: int = 32, bands: int = 8,
                       shingle: int = 3) -> str:
    rpb = num_perm // bands
    return f"""
with {_minhash_core_cte(num_perm, shingle)},
bandv as (
  select doc_id, (j - 1) // {rpb} as band, list(m order by j) as bv
  from sig group by doc_id, band),
pairs as (
  select a.doc_id as id_a, b.doc_id as id_b, count(*)::bigint as n_bands
  from bandv a join bandv b
    on a.band = b.band and a.bv = b.bv and a.doc_id < b.doc_id
  group by 1, 2)
select id_a, id_b, n_bands from pairs
"""


oracle(q_minhash_candidate_pairs, _minhash_pairs_sql())

def _minhash_dedup_ctes(num_perm: int, bands: int, shingle: int,
                        threshold: float) -> str:
    """CTE chain through ``comp`` mirroring minhash_lsh_dedup
    (functions/dedup.py:298): global identical-signature collapse
    (member→rep edges, one rep = min id per distinct signature), band
    join over DISTINCT signatures only, full-signature Jaccard-estimate
    verification at ``threshold`` (both sides compute exact c/num_perm
    doubles, so the comparison is bit-identical), then min-label
    connected components over member ∪ verified edges."""
    rpb = num_perm // bands
    return f"""{_minhash_core_cte(num_perm, shingle)},
sigv as (select doc_id, list(m order by j) as sv from sig group by doc_id),
rep as (select sv, min(doc_id) as rep_id from sigv group by sv),
medges as (select s.doc_id as a, r.rep_id as b
           from sigv s join rep r using (sv) where s.doc_id <> r.rep_id),
bandv as (
  select sig.doc_id, (j - 1) // {rpb} as band, list(m order by j) as bv
  from sig join rep on sig.doc_id = rep.rep_id
  group by sig.doc_id, band),
cand as (
  select distinct a.doc_id as ia, b.doc_id as ib
  from bandv a join bandv b
    on a.band = b.band and a.bv = b.bv and a.doc_id < b.doc_id),
vp as (
  select c.ia as a, c.ib as b
  from cand c
  join sig sa on sa.doc_id = c.ia
  join sig sb on sb.doc_id = c.ib and sb.j = sa.j
  group by c.ia, c.ib
  having sum(case when sa.m = sb.m then 1 else 0 end) * 1.0
         / {num_perm} >= {threshold}),
edges as (select a, b from medges union select a, b from vp),{_CC_CTES}"""


def _minhash_dedup_sql(num_perm: int = 128, bands: int = 16,
                       shingle: int = 3, threshold: float = 0.8) -> str:
    return f"""
with recursive {_minhash_dedup_ctes(num_perm, bands, shingle, threshold)}
select doc_id::bigint as doc_id, canonical_id::bigint as canonical_id
from comp
"""


def _jaccard_verified_sql(num_perm: int = 128, bands: int = 16,
                          shingle: int = 3, sig_threshold: float = 0.5,
                          jac_threshold: float = 0.5) -> str:
    """minhash_lsh_dedup candidates at ``sig_threshold`` verified with
    TRUE n-gram Jaccard over distinct shingles (driver_queries
    q_jaccard_verified_dedup): pairs (member, canonical) from the
    component map, Jaccard = |∩|/|∪| with ngram_jaccard's empty-side
    conventions (both empty → 1.0, one empty → 0.0)."""
    return f"""
with recursive {_minhash_dedup_ctes(num_perm, bands, shingle, sig_threshold)},
cpairs as (select doc_id, canonical_id from comp where doc_id <> canonical_id),
dsh as (select distinct doc_id, s from sh),
tsz as (select doc_id, count(*)::double as sz from dsh group by doc_id),
inter as (
  select p.doc_id, p.canonical_id, count(*)::double as c
  from cpairs p
  join dsh a on a.doc_id = p.doc_id
  join dsh b on b.doc_id = p.canonical_id and b.s = a.s
  group by 1, 2),
jv as (
  select p.doc_id, p.canonical_id,
         case when za.sz is null and zb.sz is null then 1.0
              when za.sz is null or zb.sz is null then 0.0
              else coalesce(i.c, 0) / (za.sz + zb.sz - coalesce(i.c, 0))
         end as jac
  from cpairs p
  left join tsz za on za.doc_id = p.doc_id
  left join tsz zb on zb.doc_id = p.canonical_id
  left join inter i on i.doc_id = p.doc_id
                   and i.canonical_id = p.canonical_id)
select doc_id::bigint as doc_id, canonical_id::bigint as canonical_id,
       floor(jac * 1000000 + 0.5) / 1000000 as jaccard
from jv where jac >= {jac_threshold}
"""


oracle(q_minhash_dedup, _minhash_dedup_sql())
oracle(q_jaccard_verified_dedup, _jaccard_verified_sql())


def _ann_entry(name: str, kernel: str, sql: str | None = None, **kw):
    """Entry ``name``: ``functions.similarity.<kernel>`` top-10 for the
    first three embeddings as queries (``kw`` to the kernel). With an
    oracle the queries are float64 and the result (query_id, vec_id,
    score) is ordered and rounded; rows-only → the float32 kernel's
    raw output."""
    def fn(sf_dir: str):
        import ray.data as rd
        from ..functions import similarity
        t = pq.read_table(f"{sf_dir}/embeddings.parquet")
        qvecs = np.asarray(t["embedding"].to_pylist()[:3],
                           dtype=np.float32 if sql is None else np.float64)
        ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        out = getattr(similarity, kernel)(ds, qvecs, k=10, **kw)
        if sql is None:
            return out
        out = out.to_pandas().sort_values(
            ["query_id", "score", "vec_id"], ascending=[True, False, True],
            kind="mergesort")
        return pa.table({
            "query_id": pa.array(out["query_id"].to_numpy(), pa.int64()),
            "vec_id": pa.array(out["vec_id"].to_numpy(), pa.int64()),
            "score": pa.array(round6(out["score"].to_numpy())),
        })
    return _register(fn, name, sql)


_ann_entry("lsh_ann", "lsh_ann_topk")


def _lsh_ann_sql(k: int = 10, planes: int = 12, probe: int = 1,
                 n_queries: int = 3, seed: int = 11, d: int = 64) -> str:
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((d, planes))
    bucket_terms = " + ".join(
        f"(case when list_dot_product(v, [{','.join(repr(x) for x in H[:, j])}])"
        f" > 0 then {1 << j} else 0 end)"
        for j in range(planes))
    return f"""
with nv as materialized (
  select vec_id,
         list_transform(embedding::DOUBLE[],
           x -> x / sqrt(list_aggregate(
                 list_transform(embedding::DOUBLE[], y -> y*y), 'sum')))
           as v
  from embeddings),
b as materialized (
  select vec_id, v, ({bucket_terms})::ubigint as bucket from nv),
qb as (select vec_id as query_id, bucket, v from b
       where vec_id < {n_queries}),
cand as (
  select q.query_id, d.vec_id, list_dot_product(d.v, q.v) as s
  from b d join qb q
    on bit_count(xor(d.bucket, q.bucket)) <= {probe}),
ranked as (
  select query_id, vec_id, s,
         row_number() over (partition by query_id
                            order by s desc, vec_id asc) as rnk
  from cand)
select query_id::bigint as query_id, vec_id,
       floor(s*1000000 + 0.5)/1000000 as score
from ranked where rnk <= {k}
"""


# Hyperplane-LSH ANN in float64 so DuckDB can reproduce it
# bit-for-bit at 6 dp: the 64×12 plane matrix is inlined into the SQL
# as literal lists, bucket = sign-bit integer, probe = Hamming ≤ 1
# bucket join, exact cosine within probed buckets, top-10 per query.
# The float32 production path stays rows-only as ``lsh_ann``.
_ann_entry("lsh_ann_oracle", "lsh_ann_topk", _lsh_ann_sql(), dtype=np.float64)


_ann_entry("ivf_ann", "ivf_ann_topk")


def _ivf_fixed_centroids(n_lists: int = 4, d: int = 64,
                         seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n_lists, d))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def _ivf_ann_sql(k: int = 10, n_probe: int = 2, n_queries: int = 3) -> str:
    cent = _ivf_fixed_centroids()
    rows = ",".join(
        f"({cid}, [{','.join(repr(x) for x in cent[cid])}]::DOUBLE[])"
        for cid in range(cent.shape[0]))
    return f"""
with nv as materialized (
  select vec_id,
         list_transform(embedding::DOUBLE[],
           x -> x / sqrt(list_aggregate(
                 list_transform(embedding::DOUBLE[], y -> y*y), 'sum')))
           as v
  from embeddings),
cents as (select * from (values {rows}) c(cid, cv)),
sims as (
  select vec_id, cid,
         row_number() over (partition by vec_id
                            order by list_dot_product(v, cv) desc,
                                     cid asc) as rn
  from nv cross join cents),
assign as (select vec_id, cid from sims where rn = 1),
qp as (select vec_id as query_id, cid from sims
       where vec_id < {n_queries} and rn <= {n_probe}),
cand as (select qp.query_id, a.vec_id
         from qp join assign a on a.cid = qp.cid),
ranked as (
  select c.query_id, c.vec_id, list_dot_product(dv.v, qv.v) as s,
         row_number() over (partition by c.query_id
                            order by list_dot_product(dv.v, qv.v) desc,
                                     c.vec_id asc) as rnk
  from cand c
  join nv dv on dv.vec_id = c.vec_id
  join nv qv on qv.vec_id = c.query_id)
select query_id::bigint as query_id, vec_id,
       floor(s*1000000 + 0.5)/1000000 as score
from ranked where rnk <= {k}
"""


# IVF ANN with PINNED centroids (kmeans_iters=0) in float64 so
# DuckDB can reproduce it at 6 dp: the 4×64 normalized centroid
# matrix is inlined into the SQL, assignment = argmax dot (ties →
# lowest cid), probe = top-2 lists per query, exact cosine within
# probed lists. The trained float32 production path stays rows-only
# as ``ivf_ann``.
_ann_entry("ivf_ann_oracle", "ivf_ann_topk", _ivf_ann_sql(), n_probe=2,
           kmeans_iters=0, centroids=_ivf_fixed_centroids(), dtype=np.float64)


@entry
def q_language_id(sf_dir: str):
    import ray.data as rd
    from ..functions.text import language_id
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return language_id(ds).select_columns(["doc_id", "detected_lang"])


def _lang_sql_set(words) -> str:
    return "(" + ",".join(f"'{w}'" for w in sorted(words)) + ")"


def _language_id_sql() -> str:
    from ..functions.text import _LANG_PROFILES
    p = {k: _lang_sql_set(v) for k, v in _LANG_PROFILES.items()}
    # tie semantics mirror LanguageId.classify: langs are probed in
    # (en, de, fr, es) order and a later language needs STRICTLY more
    # hits to displace an earlier one; all-zero → 'unknown'
    return f"""
with {_tok_cte()},
hits as (
  select doc_id,
    count(*) filter (where term in {p['en']}) as en,
    count(*) filter (where term in {p['de']}) as de,
    count(*) filter (where term in {p['fr']}) as fr,
    count(*) filter (where term in {p['es']}) as es
  from tok group by doc_id)
select d.doc_id,
  case when coalesce(h.en, 0) > 0 and h.en >= h.de and h.en >= h.fr
            and h.en >= h.es then 'en'
       when coalesce(h.de, 0) > 0 and h.de > h.en and h.de >= h.fr
            and h.de >= h.es then 'de'
       when coalesce(h.fr, 0) > 0 and h.fr > h.en and h.fr > h.de
            and h.fr >= h.es then 'fr'
       when coalesce(h.es, 0) > 0 and h.es > h.en and h.es > h.de
            and h.es > h.fr then 'es'
       else 'unknown' end as detected_lang
from documents d left join hits h using (doc_id)
"""


oracle(q_language_id, _language_id_sql())


_FP_B = 1099511628211                 # rolling-hash base (functions/text.py)
_FP_P = (1 << 61) - 1
_FP_POWS = ", ".join(f"({k}, {pow(_FP_B, k, _FP_P)}::hugeint)"
                     for k in range(8))


@entry
def q_doc_fingerprint(sf_dir: str):
    """Winnowing fingerprints EXPLODED to (doc_id, fp) rows so DuckDB
    can hash-compare them (list columns don't value-hash portably)."""
    import ray.data as rd
    from ..functions.text import doc_fingerprint
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    fps = doc_fingerprint(ds)

    def explode(b: pa.Table) -> pa.Table:
        ids, out_fp = [], []
        for i, fp in zip(b["doc_id"].to_pylist(),
                         b["fingerprint"].to_pylist()):
            for v in fp:
                ids.append(i)
                out_fp.append(int(v))          # < 2^61: safe in int64
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "fp": pa.array(out_fp, pa.int64())})

    return fps.map_batches(explode, batch_format="pyarrow")


# windows of 8 token hashes (zero-padded when a doc has < 8 tokens —
# the single s=1 window with absent positions contributing 0 mirrors
# functions/text.py's padding), keep cur % 16 == 0 plus the per-doc
# min as fallback; distinct values per doc.
oracle(q_doc_fingerprint, f"""
with tok as ({POS_TOK_SQL}),
h as (select doc_id, pos,
        (('0x' || substr(md5(term), 1, 16))::ubigint
          % {_FP_P}::ubigint)::hugeint as h
      from tok),
n as (select doc_id, max(pos) as n from h group by doc_id),
starts as (select doc_id, unnest(generate_series(1, greatest(n - 7, 1))) as s
           from n),
pw(k, v) as (values {_FP_POWS}),
win as (select st.doc_id, st.s,
          (sum(h.h * pw.v) % {_FP_P}::hugeint)::bigint as cur
        from starts st
        join h on h.doc_id = st.doc_id and h.pos between st.s and st.s + 7
        join pw on pw.k = st.s + 7 - h.pos
        group by st.doc_id, st.s),
sel as (select distinct doc_id, cur as fp from win where cur % 16 = 0),
fb as (select w.doc_id, min(w.cur) as fp from win w
       where not exists (select 1 from win w2
                         where w2.doc_id = w.doc_id and w2.cur % 16 = 0)
       group by w.doc_id)
select doc_id, fp from sel union select doc_id, fp from fb
""")


def _diversity_entry(name: str, algo: str, mode: str, queries: list[str],
                     sql: str | None = None):
    """Entry ``name``: ``query.diversity.<algo>`` (λ = 0.4, 20 results)
    reranks the BM25 top-50 of ``queries[0]`` with the top-50s of the
    other queries as intents, over the ``mode``-analyzer index. With an
    oracle → (doc_id, rank, score) at 6 dp; rows-only → the raw
    (external_id, rank, score)."""
    def fn(sf_dir: str):
        from ..query import diversity
        engine = QueryEngine(get_index(sf_dir, mode), _BM25)

        def ranking(q):
            t = engine.search(q, k=50)
            return list(zip(t["external_id"].to_pylist(),
                            t["score"].to_pylist()))

        data = diversity.build_diversity_data(
            "1", ranking(queries[0]), [ranking(q) for q in queries[1:]],
            max_input=50)
        ranked = getattr(diversity, algo)(data, lam=0.4, max_result=20)
        ext, scores = [e for e, _ in ranked], [s for _, s in ranked]
        if sql is None:
            return pa.table({
                "external_id": pa.array(ext, pa.string()),
                "rank": pa.array(np.arange(1, len(ranked) + 1,
                                           dtype=np.int32)),
                "score": pa.array(scores, pa.float64())})
        return pa.table({
            "doc_id": pa.array(_docid_of_external(ext)),
            "rank": pa.array(np.arange(1, len(ranked) + 1, dtype=np.int64)),
            "score": pa.array(round6(scores))})
    return _register(fn, name, sql)


_BATCH_QUERY_STRINGS = [" ".join(terms) for _, terms in BATCH_BM25_QUERIES]


# Diversified reranking: initial + 2 intent rankings → xQuAD.
_diversity_entry("xquad_rerank", "xquad", "lucene",
                 ["fast sort merge", "fast scan", "merge join"])


def _xquad_sql(lam: float = 0.4, steps: int = 20) -> str:
    """Loop-unrolled xQuAD: cand = (doc_id, ord, s0, s1, s2) from three
    BM25 rankings (+ the >1-score normalization of Diversity.java:133),
    then ``steps`` chained (pick_i → st_i) CTEs implementing
    argmax((1−λ)s0 + λ·Σᵢ ½·sᵢ·covᵢ) with covᵢ *= (1−sᵢ(picked))."""
    w0, wl = 1.0 - lam, lam
    r = {qid: _bm25_sql(terms, 50, raw=True)
         for qid, terms in BATCH_BM25_QUERIES}
    parts = [f"""
with r0 as materialized (select doc_id, raw,
            row_number() over (order by raw desc, doc_id asc) as rk
            from ({r['q1']})),
r1 as materialized (select doc_id, raw,
       row_number() over (order by raw desc, doc_id asc) as rk
       from ({r['q2']})),
r2 as materialized (select doc_id, raw,
       row_number() over (order by raw desc, doc_id asc) as rk
       from ({r['q3']})),
alld as materialized (
  select doc_id, min(ord) as ord from (
    select doc_id, rk as ord from r0
    union all select doc_id, 100 + rk from r1
    union all select doc_id, 200 + rk from r2) u group by doc_id),
cand0 as materialized (
  select a.doc_id, a.ord,
         coalesce(r0.raw, 0.0) as s0, coalesce(r1.raw, 0.0) as s1,
         coalesce(r2.raw, 0.0) as s2
  from alld a
  left join r0 on r0.doc_id = a.doc_id
  left join r1 on r1.doc_id = a.doc_id
  left join r2 on r2.doc_id = a.doc_id),
nf as materialized (select case when max(greatest(s0, s1, s2)) <= 1.0 then 1.0
              else greatest(sum(s0), sum(s1), sum(s2)) end as f from cand0),
cand as materialized (select doc_id, ord, s0/f as s0, s1/f as s1, s2/f as s2
         from cand0 cross join nf),
st0 as materialized (select 1.0 as cov1, 1.0 as cov2, []::bigint[] as picked)"""]
    for i in range(1, steps + 1):
        p = f"st{i - 1}"
        parts.append(f""",
pick{i} as materialized (
  select doc_id, s1, s2, sc from (
    select c.doc_id, c.s1, c.s2, c.ord,
           {w0}*c.s0 + {wl}*(0.5*c.s1*{p}.cov1 + 0.5*c.s2*{p}.cov2) as sc
    from cand c cross join {p}
    where not list_contains({p}.picked, c.doc_id)) t
  order by sc desc, ord asc limit 1),
st{i} as materialized (
  select pick{i}.doc_id, pick{i}.sc,
         {p}.cov1 * (1.0 - pick{i}.s1) as cov1,
         {p}.cov2 * (1.0 - pick{i}.s2) as cov2,
         list_append({p}.picked, pick{i}.doc_id) as picked
  from {p} cross join pick{i})""")
    sel = "\nunion all\n".join(
        f"select {i}::bigint as rank, doc_id, sc from st{i}"
        for i in range(1, steps + 1))
    parts.append(f"""
select doc_id, rank, floor(sc*1000000 + 0.5)/1000000 as score
from ({sel}) z order by rank""")
    return "".join(parts)


# xQuAD over SIMPLE-index BM25 rankings (initial + 2 intents) so
# the whole flow is SQL-expressible: the greedy argmax loop is a
# LOOP-UNROLLED chain of 20 pick/state CTEs generated by
# ``_xquad_sql`` (coverage per intent is scalar state; tie-break =
# candidate insertion order, mirrored by the ``ord`` column). The
# lucene-mode ``xquad_rerank`` entry stays rows-only.
_diversity_entry("xquad_rerank_simple", "xquad", "simple",
                 _BATCH_QUERY_STRINGS, _xquad_sql())


def _pm2_sql(lam: float = 0.4, steps: int = 20) -> str:
    """Loop-unrolled PM2 (k=2 intents): v = max_result/k votes;
    qtᵢ = v/(2sᵢ+1); i* = argmax(qtᵢ, −i); score = λ·qt*·s* +
    (1−λ)·qt_other·s_other; slots += last vec's normalized intent mass
    (reset when it was all-zero, Diversity.java:519-524); early-stop
    after a zero-score pick via the ``go`` flag."""
    w1, w0 = lam, 1.0 - lam
    v = steps / 2.0                    # (1/k)·max_result, k=2
    r = {qid: _bm25_sql(terms, 50, raw=True)
         for qid, terms in BATCH_BM25_QUERIES}
    parts = [f"""
with r0 as materialized (select doc_id, raw,
            row_number() over (order by raw desc, doc_id asc) as rk
            from ({r['q1']})),
r1 as materialized (select doc_id, raw,
       row_number() over (order by raw desc, doc_id asc) as rk
       from ({r['q2']})),
r2 as materialized (select doc_id, raw,
       row_number() over (order by raw desc, doc_id asc) as rk
       from ({r['q3']})),
alld as materialized (
  select doc_id, min(ord) as ord from (
    select doc_id, rk as ord from r0
    union all select doc_id, 100 + rk from r1
    union all select doc_id, 200 + rk from r2) u group by doc_id),
cand0 as materialized (
  select a.doc_id, a.ord,
         coalesce(r0.raw, 0.0) as s0, coalesce(r1.raw, 0.0) as s1,
         coalesce(r2.raw, 0.0) as s2
  from alld a
  left join r0 on r0.doc_id = a.doc_id
  left join r1 on r1.doc_id = a.doc_id
  left join r2 on r2.doc_id = a.doc_id),
nf as materialized (select case when max(greatest(s0, s1, s2)) <= 1.0 then 1.0
              else greatest(sum(s0), sum(s1), sum(s2)) end as f from cand0),
cand as materialized (select doc_id, ord, s1/f as s1, s2/f as s2
         from cand0 cross join nf),
st0 as materialized (select 0.0 as sl1, 0.0 as sl2,
               null::double as last1, null::double as last2,
               []::bigint[] as picked, true as go)"""]
    for i in range(1, steps + 1):
        p = f"st{i - 1}"
        parts.append(f""",
slots{i} as materialized (
  select case when last1 is null then sl1
              when (last1 + last2) != 0 then sl1 + last1/(last1 + last2)
              else 0.0 end as sl1,
         case when last2 is null then sl2
              when (last1 + last2) != 0 then sl2 + last2/(last1 + last2)
              else 0.0 end as sl2,
         picked, go from {p}),
sq{i} as materialized (select sl1, sl2, {v}/(2*sl1 + 1) as q1, {v}/(2*sl2 + 1) as q2,
                 picked, go from slots{i}),
pick{i} as materialized (
  select doc_id, cs1, cs2, sc from (
    select c.doc_id, c.s1 as cs1, c.s2 as cs2, c.ord,
           case when s.q1 >= s.q2
                then {w1}*s.q1*c.s1 + {w0}*s.q2*c.s2
                else {w1}*s.q2*c.s2 + {w0}*s.q1*c.s1 end as sc
    from cand c cross join sq{i} s
    where s.go and not list_contains(s.picked, c.doc_id)) t
  order by sc desc, ord asc limit 1),
st{i} as materialized (
  select s.sl1, s.sl2, p.cs1 as last1, p.cs2 as last2,
         list_append(s.picked, p.doc_id) as picked,
         (p.sc != 0) as go, p.doc_id, p.sc
  from sq{i} s cross join pick{i} p)""")
    sel = "\nunion all\n".join(
        f"select {i}::bigint as rank, doc_id, sc from st{i}"
        for i in range(1, steps + 1))
    parts.append(f"""
select doc_id, rank, floor(sc*1000000 + 0.5)/1000000 as score
from ({sel}) z order by rank""")
    return "".join(parts)


# PM2 over SIMPLE-index BM25 rankings — same loop-unrolling trick
# as ``xquad_rerank_simple``: per-step state is (slot₁, slot₂,
# last-picked intent vector, picked set, early-stop flag), all scalar
# columns, so each iteration is one pick/state CTE pair.
_diversity_entry("pm2_rerank_simple", "pm2", "simple", _BATCH_QUERY_STRINGS,
                 _pm2_sql())


_diversity_entry("pm2_rerank", "pm2", "lucene",
                 ["hash join table", "hash scan", "join merge"])


@entry
def q_letor_rerank(sf_dir: str):
    from ..query.letor import letor_rerank
    reader = get_index(sf_dir, "lucene")
    engine = QueryEngine(reader, _BM25)
    t = engine.search("fast sort merge", k=50)
    initial = list(zip(t["external_id"].to_pylist(),
                       t["score"].to_pylist()))
    ranked = letor_rerank(reader, "fast sort merge", initial, k=20)
    return pa.table({
        "external_id": pa.array([e for e, _ in ranked], pa.string()),
        "rank": pa.array(np.arange(1, len(ranked) + 1, dtype=np.int32)),
        "score": pa.array([s for _, s in ranked], pa.float64()),
    })


@entry
def q_letor_rerank_simple(sf_dir: str):
    """The FULL LeToR flow (BM25 top-50 candidates → 18-slot features →
    per-query min-max → LinearRanker → re-sort) over the SIMPLE index,
    where it is SQL-expressible: on a body-only index with no side
    files, the surviving feature columns are f5 BM25, f6 Indri, f7
    overlap, f17 coverage, f18 mean query-tf (url-depth/wiki columns are
    constant → min-max 0; spam/pagerank/title/url/inlink are absent →
    0), so score = n5 + n6 + 0.6·n7 + 0.6·n17 + 0.2·n18. The lucene-mode
    ``letor_rerank`` entry stays rows-only."""
    from ..query.letor import letor_rerank
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    t = engine.search(BM25_QUERY, k=50)
    initial = list(zip(t["external_id"].to_pylist(),
                       t["score"].to_pylist()))
    ranked = letor_rerank(reader, BM25_QUERY, initial, k=20)
    ids = _docid_of_external([e for e, _ in ranked])
    return pa.table({
        "doc_id": pa.array(ids),
        "score": pa.array(round6([s for _, s in ranked])),
    })


oracle(q_letor_rerank_simple, f"""
{_bm25_prologue()},
qterms as (select * from (values ('dup'),('line'),('hash')) t(term)),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in (select term from qterms) group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
ctfs as (select term, count(*)::double as ctf from tok
         where term in (select term from qterms) group by term),
bm25d as (
  select tfs.doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')}) as raw
  from tfs join dfs using (term) join doclen using (doc_id)
  cross join stats group by tfs.doc_id),
topd as (select doc_id, raw from bm25d
         order by raw desc, doc_id asc limit 50),
cells as (
  select topd.doc_id, q.term, coalesce(tfs.tf, 0.0) as tf,
         ctfs.ctf, doclen.dl
  from topd cross join qterms q
  join ctfs on ctfs.term = q.term
  join doclen on doclen.doc_id = topd.doc_id
  left join tfs on tfs.doc_id = topd.doc_id and tfs.term = q.term),
feats as (
  select c.doc_id,
         any_value(topd.raw) as f5,
         product(pow((1.0-0.4)*(c.tf + 2500.0*(c.ctf/stats.suml))
                     / (c.dl + 2500.0) + 0.4*(c.ctf/stats.suml),
                 1.0/3.0)) as f6,
         (sum(case when c.tf > 0 then 1 else 0 end)::double / 3.0) as f7,
         (sum(c.tf)::double / 3.0) as f18
  from cells c join topd using (doc_id) cross join stats
  group by c.doc_id),
mm as (select min(f5) as lo5, max(f5) as hi5, min(f6) as lo6,
              max(f6) as hi6, min(f7) as lo7, max(f7) as hi7,
              min(f18) as lo18, max(f18) as hi18 from feats),
norm as (
  select doc_id,
    case when hi5 > lo5 then (f5 - lo5)/(hi5 - lo5) else 0.0 end as n5,
    case when hi6 > lo6 then (f6 - lo6)/(hi6 - lo6) else 0.0 end as n6,
    case when hi7 > lo7 then (f7 - lo7)/(hi7 - lo7) else 0.0 end as n7,
    case when hi18 > lo18 then (f18 - lo18)/(hi18 - lo18) else 0.0 end as n18
  from feats cross join mm),
final as (
  select doc_id,
         1.0*n5 + 1.0*n6 + 0.6*n7 + 0.6*n7 + 0.2*n18 as s
  from norm)
select doc_id, floor(s*1000000 + 0.5)/1000000 as score from final
order by s desc, doc_id asc limit 20
""")


@entry
def q_multimodal_decode(sf_dir: str):
    """Media decode plumbing over a payload DERIVED from the documents
    table (payload = utf-8 text bytes) so the fake md5 decoder is
    SQL-mirrorable; features exploded to (doc_id, i, feature)."""
    import ray.data as rd
    from ..functions.multimodal import decode_features
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def to_media(b: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": b["doc_id"],
            "kind": pa.array(["text"] * b.num_rows),
            "payload": pa.array([(t or "").encode() for t in
                                 b["text"].to_pylist()], pa.binary()),
        })

    feats = decode_features(docs.map_batches(to_media,
                                             batch_format="pyarrow"),
                            fake=True, batch_size=64)

    def explode(b: pa.Table) -> pa.Table:
        ids, idxs, vals = [], [], []
        for mid, fv in zip(b["media_id"].to_pylist(),
                           b["features"].to_pylist()):
            for i, f in enumerate(fv):
                ids.append(mid)
                idxs.append(i)
                vals.append(f)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "i": pa.array(idxs, pa.int32()),
                         "feature": pa.array(round6(np.asarray(vals)))})

    return feats.map_batches(explode, batch_format="pyarrow")


# byte i of md5(text) / 255 as float32, then 6-dp half-away rounding —
# the FLOAT cast reproduces the decoder's float32 precision exactly
oracle(q_multimodal_decode, """
with idx as (select unnest(generate_series(0, 15)) as i),
b as (select d.doc_id, idx.i,
        ('0x' || substr(md5(d.text), 2 * idx.i + 1, 2))::int as byte
      from documents d cross join idx)
select doc_id, i::int as i,
       floor(((byte / 255.0)::FLOAT)::DOUBLE * 1000000 + 0.5) / 1000000
         as feature
from b
""")


@entry
def q_window_aggregate(sf_dir: str):
    """Tumbling 1-hour event-time windows per event_type (combiner
    pattern: per-batch partial aggregation before the groupby, exact
    integer-cents sums so the float result is order-independent)."""
    import ray.data as rd
    from ..functions.events import tumbling_window_aggregate
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    return tumbling_window_aggregate(ds, window_s=3600)


oracle(q_window_aggregate, """
select (epoch_us(ts) // 3600000000) * 3600 as window_start,
       event_type,
       count(*)::bigint as n_events,
       sum(round(value * 100)::bigint) / 100.0 as sum_value,
       min(round(value * 100)::bigint) / 100.0 as min_value,
       max(round(value * 100)::bigint) / 100.0 as max_value
from events group by 1, 2
""")


@entry
def q_sliding_window_aggregate(sf_dir: str):
    """Sliding 1-hour windows hopping every 15 min: the ×4 event
    replication happens inside each batch and folds to (window, key)
    partials before the shuffle — the exchange carries window partials,
    not replicated events."""
    import ray.data as rd
    from ..functions.events import sliding_window_aggregate
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])
    return sliding_window_aggregate(ds, window_s=3600, stride_s=900)


oracle(q_sliding_window_aggregate, """
with e as (select epoch_us(ts) as t, event_type,
                  round(value * 100)::bigint as cents from events),
offs as (select unnest(range(0, 4)) as i)
select ((t // 900000000) - i) * 900 as window_start, event_type,
       count(*)::bigint as n_events,
       sum(cents) / 100.0 as sum_value
from e cross join offs
group by 1, 2
""")


@entry
def q_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min gap) per user — one hash
    shuffle at partition grain, vectorized lexsort+reduceat session
    assembly inside each partition."""
    import ray.data as rd
    from ..functions.events import sessionize
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id", "value"])
    return sessionize(ds, gap_s=1800)


oracle(q_sessionize, """
with e as (select user_id, epoch_us(ts) as t,
                  round(value * 100)::bigint as cents from events),
s as (select user_id, t, cents,
             case when lag(t) over w is null
                       or t - lag(t) over w > 1800000000
                  then 1 else 0 end as is_new
      from e window w as (partition by user_id order by t)),
sess as (select user_id, t, cents,
                sum(is_new) over (partition by user_id order by t
                                  rows unbounded preceding) - 1 as sid
         from s)
select user_id, sid::bigint as session_id,
       min(t)::bigint as session_start, max(t)::bigint as session_end,
       count(*)::bigint as n_events,
       sum(cents) / 100.0 as sum_value
from sess group by user_id, sid
""")


@entry
def q_asof_join(sf_dir: str):
    """Backward as-of join: each event picks the latest order of the
    same customer placed at or before the event time (ties by largest
    o_orderkey; -1 when the user never ordered). One tagged-union
    shuffle, pandas merge_asof per partition."""
    import ray.data as rd
    from ..functions.events import asof_join
    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey",
                                      "o_orderdate"])
    return asof_join(ev, orders, left_key="user_id", right_key="o_custkey",
                     left_ts="ts", right_ts="o_orderdate",
                     left_id="event_id", right_val="o_orderkey")


oracle(q_asof_join, """
with m as (
  select e.event_id, o.o_orderkey,
         row_number() over (partition by e.event_id
                            order by o.o_orderdate desc,
                                     o.o_orderkey desc) as rn
  from events e join orders o
    on o.o_custkey = e.user_id and o.o_orderdate <= e.ts)
select e.event_id,
       coalesce(m.o_orderkey, -1)::bigint as o_orderkey
from events e left join m on m.event_id = e.event_id and m.rn = 1
""")


@entry
def q_percentile_ranks(sf_dir: str):
    """ES percentile_ranks agg (inverse quantiles): % of event values
    ≤ each probe per event_type, exact, from the same distinct-cents
    counting histogram as ``value_quantiles``."""
    import ray.data as rd
    from ..functions.sketch import percentile_ranks
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return percentile_ranks(ds, value_col="value", group_col="event_type",
                            values=(10.0, 50.0, 100.0))


def _percentile_ranks_sql() -> str:
    from ..functions.sketch import percentile_ranks_sql
    return percentile_ranks_sql("events", "value", "event_type",
                                values=(10.0, 50.0, 100.0))


oracle(q_percentile_ranks, _percentile_ranks_sql())


@entry
def q_hll_distinct(sf_dir: str):
    """Distributed HyperLogLog (p=12) distinct-text count per language —
    the mergeable-sketch pattern: per-batch registers, groupby max-merge,
    exact-integer harmonic sum. The SQL mirror rebuilds the identical
    sketch, and test_sketch checks the estimate against the true count."""
    import ray.data as rd
    from ..functions.sketch import hyperloglog_distinct
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", "lang"])
    return hyperloglog_distinct(ds, value_col="text", group_col="lang",
                                auditable=True)


def _hll_sql() -> str:
    from ..functions.sketch import hyperloglog_sql
    return hyperloglog_sql("documents", "text", "lang")


oracle(q_hll_distinct, _hll_sql())


@entry
def q_frequent_terms(sf_dir: str):
    """Heavy-hitter terms over ``documents`` via the mergeable
    Misra-Gries summary (``functions.sketch.frequent_terms``): each
    block emits ≤ capacity counters + its decrement, one groupby merges
    them. At this capacity no block decrements, so the sketch is EXACT
    (count_hi == count_lo) and the oracle is plain top-k term counts;
    the pruning regime's lo/hi/presence guarantees are unit-tested
    (``test_sketch``)."""
    import ray.data as rd
    from ..functions.sketch import frequent_terms
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    t = frequent_terms(ds, text_col="text", k=25, capacity=4096)
    if t.num_rows and not pa.compute.all(
            pa.compute.equal(t["count_hi"], t["count_lo"])).as_py():
        raise AssertionError(
            "frequent_terms left the exact regime (a block's vocab "
            "exceeded capacity=4096) — raise capacity so the exact "
            "oracle comparison stays valid")
    return t


oracle(q_frequent_terms, f"""
with tok as (
  select unnest({SIMPLE_TOKS_SQL}) as term from documents)
select term, count(*)::bigint as count_lo, count(*)::bigint as count_hi
from tok group by term
order by count_lo desc, term asc limit 25
""")


@entry
def q_value_quantiles(sf_dir: str):
    """Exact p50/p90/p99 of event value per event_type via the
    counting-histogram sketch (shuffle carries distinct cents, not
    rows)."""
    import ray.data as rd
    from ..functions.sketch import value_quantiles
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return value_quantiles(ds, value_col="value", group_col="event_type")


def _quantiles_sql() -> str:
    from ..functions.sketch import value_quantiles_sql
    return value_quantiles_sql("events", "value", "event_type")


oracle(q_value_quantiles, _quantiles_sql())


@entry
def q_value_stats(sf_dir: str):
    """ES ``extended_stats``: count/min/max/mean/population-variance of
    event value per event_type, bit-exact under any partitioning —
    integer-cents Σc/Σc² partials merge as arbitrary-precision ints and
    convert to doubles once, in the same final expression the SQL
    mirror uses (``sketch.value_stats``)."""
    import ray.data as rd
    from ..functions.sketch import value_stats
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return value_stats(ds, value_col="value", group_col="event_type")


def _stats_sql() -> str:
    from ..functions.sketch import value_stats_sql
    return value_stats_sql("events", "value", "event_type")


oracle(q_value_stats, _stats_sql())


@entry
def q_value_histogram(sf_dir: str):
    """ES ``histogram`` aggregation: fixed-interval (25.0) buckets of
    event value per event_type — the counting-histogram exchange of
    ``value_quantiles`` at bucket grain (``sketch.value_histogram``;
    distinct buckets cross the shuffle, never rows)."""
    import ray.data as rd
    from ..functions.sketch import value_histogram
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return value_histogram(ds, value_col="value", group_col="event_type",
                           interval=25.0)


def _histogram_sql() -> str:
    from ..functions.sketch import value_histogram_sql
    return value_histogram_sql("events", "value", "event_type",
                               interval=25.0)


oracle(q_value_histogram, _histogram_sql())


@entry
def q_quality_quantile_gate(sf_dir: str):
    """Global-statistic-then-filter composition: the corpus median of
    n_chars computes distributively (exact counting-histogram
    quantile), broadcasts as a scalar threshold, and gates the stream —
    per-lang survivor counts. The pattern behind 'drop the bottom X%
    by quality' curation rules at 100 TB: no sort, no materialization,
    one bounded-cardinality exchange for the quantile."""
    import ray.data as rd
    from ray.data.aggregate import Sum
    from ..functions.sketch import value_quantiles
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "n_chars"])

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("g", pa.array(["all"] * b.num_rows))

    thr_tbl = value_quantiles(ds.map_batches(tag, batch_format="pyarrow"),
                              value_col="n_chars", group_col="g",
                              ps=(0.5,)).to_pandas()
    thr = float(thr_tbl["value"].iloc[0])

    def survivors(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        kept = b.filter(pc.greater_equal(b["n_chars"], thr))
        langs, counts = np.unique(
            np.asarray(kept["lang"].to_pylist(), object), return_counts=True)
        return pa.table({"lang": pa.array(list(langs), pa.string()),
                         "n_kept": pa.array(counts.astype(np.int64))})

    return ds.map_batches(survivors, batch_format="pyarrow") \
        .groupby("lang").aggregate(Sum("n_kept", alias_name="n_kept"))


def _quality_quantile_gate_sql() -> str:
    from ..functions.sketch import value_quantiles_sql
    inner = value_quantiles_sql(
        "(select 'all' as g, n_chars from documents) dq", "n_chars", "g",
        ps=(0.5,))
    return f"""
with thr as (select value from ({inner}) where p = 0.5)
select lang, count(*)::bigint as n_kept
from documents cross join thr
where n_chars >= thr.value group by lang
"""


oracle(q_quality_quantile_gate, _quality_quantile_gate_sql())


def _lineitem_semijoin_entry(name: str, priority: str, join: str, **kw):
    """Entry ``name``: the lineitem rows whose order has
    ``o_orderpriority = priority``, kept by ``functions.join.<join>``
    against those order keys (``kw`` to the join), rolled up per
    l_returnflag to (n, sum_qty) from per-batch partials."""
    def fn(sf_dir: str):
        import pyarrow.compute as pc
        import ray.data as rd
        from ray.data.aggregate import Sum
        from ..functions import join as joins

        keys = rd.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey"],
                               filter=pc.field("o_orderpriority") == priority)
        li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                             columns=["l_orderkey", "l_quantity",
                                      "l_returnflag"])
        hit = getattr(joins, join)(li, keys, "l_orderkey",
                                   keys_col="o_orderkey", **kw)

        def partial(b: pa.Table) -> pd.DataFrame:
            qty = np.rint(b["l_quantity"].to_numpy(
                zero_copy_only=False)).astype(np.int64)
            df = pd.DataFrame({"l_returnflag": b["l_returnflag"].to_pylist(),
                               "q": qty})
            g = df.groupby("l_returnflag", sort=False)["q"]
            out = pd.DataFrame({"n": g.size().astype(np.int64),
                                "sum_qty": g.sum().astype(np.int64)})
            return out.reset_index()

        return hit.map_batches(partial, batch_format="pyarrow") \
            .groupby("l_returnflag") \
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_qty", alias_name="sum_qty"))
    return _register(fn, name, f"""
select l_returnflag, count(*)::bigint as n,
       sum(round(l_quantity)::bigint)::bigint as sum_qty
from lineitem
where l_orderkey in (select o_orderkey from orders
                     where o_orderpriority = '{priority}')
group by l_returnflag
""")


# Zero-shuffle broadcast semijoin: the urgent order keys are
# gathered once and filter the lineitem fact stream inside
# map_batches; the fact table never enters an exchange — only the
# per-batch (flag, n, sum_qty) partials reach the tiny groupby.
_lineitem_semijoin_entry("semijoin_urgent_lineitem", "1-URGENT",
                         "broadcast_semijoin")


# Bloom-accelerated semijoin (``functions.join.bloom_semijoin``,
# ``verify="shuffle"``): the 2-HIGH order keys become a broadcast
# bit array (~1.25 B/key) that kills definite non-matches map-side;
# only the bloom-surviving sliver of the lineitem stream enters the
# exact tagged-union verify exchange — the key-set-too-big-to-
# broadcast shape of ``semijoin_urgent_lineitem``. Same per-flag
# aggregate, same SQL shape as the plain semijoin oracle.
_lineitem_semijoin_entry("bloom_semijoin_high", "2-HIGH", "bloom_semijoin",
                         verify="shuffle")


@entry
def q_antijoin_idle_customers(sf_dir: str):
    """Broadcast ANTI-semijoin: customers that never placed an URGENT
    order, counted per nation. The key side (distinct o_custkey of
    urgent orders) broadcasts; the customer stream is filtered per batch
    with an inverted is_in. (The plain no-orders variant is degenerate
    on this synthetic corpus — every customer has orders.)"""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum
    from ..functions.join import broadcast_semijoin

    keys = rd.read_parquet(f"{sf_dir}/orders.parquet",
                           columns=["o_custkey"],
                           filter=pc.field("o_orderpriority") == "1-URGENT")
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    idle = broadcast_semijoin(cust, keys, "c_custkey",
                              keys_col="o_custkey", anti=True)

    def partial(b: pa.Table) -> pd.DataFrame:
        nk = b["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"c_nationkey": nk})
        out = df.groupby("c_nationkey", sort=False).size().rename("n")
        return out.astype(np.int64).reset_index()

    return idle.map_batches(partial, batch_format="pyarrow") \
        .groupby("c_nationkey").aggregate(Sum("n", alias_name="n"))


oracle(q_antijoin_idle_customers, """
select c_nationkey::bigint as c_nationkey, count(*)::bigint as n
from customer
where not exists (select 1 from orders
                  where o_custkey = c_custkey
                    and o_orderpriority = '1-URGENT')
group by c_nationkey
""")


@entry
def q_broadcast_join_nation_revenue(sf_dir: str):
    """Two broadcast hash joins around a pre-aggregated fact stream:
    orders widen with the (small) customer nation key per batch, fold to
    integer-cent partials, groupby-sum the ≤25-row nation totals, then
    widen with nation names — the fact table crosses no exchange."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum
    from ..functions.join import broadcast_hash_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    nation = rd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])

    j = broadcast_hash_join(orders, cust, left_on="o_custkey",
                            right_on="c_custkey")

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.rint(b["o_totalprice"].to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        nk = b["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"c_nationkey": nk, "revenue_cents": cents})
        return df.groupby("c_nationkey", sort=False).sum().reset_index()

    per_nation = j.map_batches(partial, batch_format="pyarrow") \
        .groupby("c_nationkey") \
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))

    def widen_key(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("n_nationkey")
        return b.set_column(i, "n_nationkey",
                            pc.cast(b["n_nationkey"], pa.int64()))

    named = broadcast_hash_join(per_nation,
                                nation.map_batches(widen_key,
                                                   batch_format="pyarrow"),
                                left_on="c_nationkey",
                                right_on="n_nationkey")
    return named.select_columns(["n_name", "revenue_cents"])


oracle(q_broadcast_join_nation_revenue, """
select n_name, sum(round(o_totalprice * 100)::bigint)::bigint
         as revenue_cents
from orders
join customer on o_custkey = c_custkey
join nation on c_nationkey = n_nationkey
group by n_name
""")


@entry
def q_shuffle_join_priority_revenue(sf_dir: str):
    """Large × large shuffle hash join (neither side broadcast):
    lineitem ⨝ orders on the order key in one tagged-union exchange,
    then integer-cent revenue per order priority. The per-batch partial
    fold after the join keeps the second shuffle at ≤ 5 rows per
    partition."""
    import ray.data as rd
    from ray.data.aggregate import Sum
    from ..functions.join import shuffle_hash_join

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    j = shuffle_hash_join(li, orders, left_on="l_orderkey",
                          right_on="o_orderkey")

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.rint(b["l_extendedprice"].to_numpy(zero_copy_only=False)
                        * 100.0).astype(np.int64)
        df = pd.DataFrame({"o_orderpriority":
                           b["o_orderpriority"].to_pylist(),
                           "revenue_cents": cents, "n": np.int64(1)})
        g = df.groupby("o_orderpriority", sort=False)
        return g.agg(n=("n", "sum"),
                     revenue_cents=("revenue_cents", "sum")).reset_index()

    return j.map_batches(partial, batch_format="pyarrow") \
        .groupby("o_orderpriority") \
        .aggregate(Sum("n", alias_name="n"),
                   Sum("revenue_cents", alias_name="revenue_cents"))


oracle(q_shuffle_join_priority_revenue, """
select o_orderpriority, count(*)::bigint as n,
       sum(round(l_extendedprice * 100)::bigint)::bigint as revenue_cents
from lineitem join orders on l_orderkey = o_orderkey
group by o_orderpriority
""")


@entry
def q_hash_sample(sf_dir: str):
    """Deterministic uniform 100-row sample by smallest md5(doc_id) —
    reproducible across runs/cluster sizes, unlike random_sample."""
    import ray.data as rd
    from ..functions.sample import hash_sample
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return hash_sample(ds, k=100, auditable=True)


oracle(q_hash_sample, """
with h as (select doc_id,
                  ('0x' || substr(md5(doc_id::varchar), 1, 16))::ubigint as h
           from documents),
r as (select doc_id,
             row_number() over (order by h, doc_id) - 1 as sample_rank
      from h)
select doc_id, sample_rank::bigint as sample_rank
from r where sample_rank < 100
""")


@entry
def q_shuffle_export(sf_dir: str):
    """Deterministic training-shard shuffle: md5(id) picks the shard
    and the within-shard order — reproducible across runs and
    partitionings, auditable by SQL, resumable per shard
    (``sample.shuffle_to_shards``); one shard-keyed exchange."""
    import ray.data as rd
    from ..functions.sample import shuffle_to_shards
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])
    return shuffle_to_shards(ds, num_shards=8, auditable=True)


oracle(q_shuffle_export, """
with h as (select doc_id,
                  ('0x' || substr(md5(doc_id::varchar), 1, 16))::ubigint as h
           from documents)
select doc_id, (h % 8)::int as shard,
       (row_number() over (partition by h % 8 order by h, doc_id)
        - 1)::bigint as pos
from h
""")


@entry
def q_topk_per_group(sf_dir: str):
    """Top-3 events by value per user (ties by smallest event_id) —
    per-batch partial top-k bounds the shuffle to candidates."""
    import ray.data as rd
    from ..functions.sample import topk_per_group
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "value"])
    return topk_per_group(ds, group_col="user_id", sort_col="value",
                          id_col="event_id", k=3)


oracle(q_topk_per_group, """
with r as (select user_id, event_id, value,
                  row_number() over (partition by user_id
                                     order by value desc, event_id) as rnk
           from events)
select user_id, event_id, value, rnk::bigint as "rank"
from r where rnk <= 3
""")


@entry
def q_repetition_stats(sf_dir: str):
    """Gopher-style per-doc repetition signals (duplicate-token /
    top-token / duplicate-bigram fractions) — the standard web-text
    repetition filters, fully vectorized per batch."""
    import ray.data as rd
    from ..functions.text import repetition_stats
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return repetition_stats(ds).select_columns(
        ["doc_id", "dup_token_frac", "top_token_frac", "dup_bigram_frac"])


oracle(q_repetition_stats, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
b as (select doc_id, len(toks) as n, len(list_distinct(toks)) as nd,
        case when len(toks) >= 2 then len(toks) - 1 else 0 end as nbg,
        case when len(toks) >= 2 then len(list_distinct(
          list_transform(range(1, len(toks)),
                         i -> toks[i] || ' ' || toks[i+1])))
        else 0 end as nbgd
      from t),
tc as (select doc_id, max(c) as topc from (
        select doc_id, tok, count(*) as c
        from (select doc_id, unnest(toks) as tok from t)
        group by doc_id, tok) group by doc_id)
select b.doc_id,
  floor((case when n > 0 then 1.0 - nd::double / n else 0.0 end)
        * 1000000 + 0.5) / 1000000 as dup_token_frac,
  floor((case when n > 0 then coalesce(tc.topc, 0)::double / n
         else 0.0 end) * 1000000 + 0.5) / 1000000 as top_token_frac,
  floor((case when nbg > 0 then 1.0 - nbgd::double / nbg else 0.0 end)
        * 1000000 + 0.5) / 1000000 as dup_bigram_frac
from b left join tc on tc.doc_id = b.doc_id
""")


@entry
def q_heuristic_filter(sf_dir: str):
    """C4/Gopher-style quality gate producing an auditable boolean
    ``keep`` per doc (token-count band, mean-token-length band,
    stopword floor, duplicate-token ceiling). Thresholds chosen to
    split this corpus non-trivially."""
    import ray.data as rd
    from ..functions.text import heuristic_filter
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = heuristic_filter(ds, min_tokens=40, max_tokens=100_000,
                           min_mean_len=2.0, max_mean_len=10.0,
                           min_stopword_ratio=0.0,
                           max_dup_token_frac=0.55)
    return out.select_columns(["doc_id", "keep"])


oracle(q_heuristic_filter, f"""
with t as (select doc_id, text, {SIMPLE_TOKS_SQL} as toks from documents),
q as (select doc_id, len(toks) as n,
        floor((case when len(toks) > 0
              then list_aggregate(list_transform(toks, x -> len(x)),
                                  'sum')::double / len(toks)
              else 0.0 end) * 1000000 + 0.5) / 1000000 as mtl,
        floor((case when len(toks) > 0
              then len(list_filter(toks, x -> x in {_STOPLIST_SQL}))::double
                   / len(toks)
              else 0.0 end) * 1000000 + 0.5) / 1000000 as stopr,
        floor((case when len(toks) > 0
              then 1.0 - len(list_distinct(toks))::double / len(toks)
              else 0.0 end) * 1000000 + 0.5) / 1000000 as dup
      from t)
select doc_id,
       (n >= 40 and n <= 100000 and mtl >= 2.0 and mtl <= 10.0
        and stopr >= 0.0 and dup <= 0.55) as keep
from q
""")


@entry
def q_pii_scrub(sf_dir: str):
    """PII redaction (emails → <EMAIL>, phones → <PHONE>, IPv4 → <IP>)
    with per-doc match counts. The corpus carries no PII, so both sides
    first inject deterministic doc_id-derived contact strings — the
    oracle then verifies counts AND the md5 of the scrubbed text, i.e.
    the full redaction transform, not a vacuous all-zeros pass."""
    import hashlib
    import ray.data as rd
    from ..functions.text import pii_scrub

    def inject(b):
        ids = b["doc_id"].to_pylist()
        texts = b["text"].to_pylist()
        out = []
        for i, t in zip(ids, texts):
            s = (t or "") + " u{}@ex.com".format(i) * (i % 3)
            s += " 555-123-{:04d}".format(i % 10000) * (i % 2)
            if i % 5 == 0:
                s += " 10.0.{}.{}".format(i % 256, (i // 256) % 256)
            out.append(s)
        return pa.table({"doc_id": pa.array(ids),
                         "text": pa.array(out, pa.string())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    scrubbed = pii_scrub(ds.map_batches(inject, batch_format="pyarrow"))

    def digest(b):
        md5 = [hashlib.md5(s.encode()).hexdigest()
               for s in b["scrubbed"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "n_emails": b["n_emails"],
                         "n_phones": b["n_phones"],
                         "n_ipv4": b["n_ipv4"],
                         "scrub_md5": pa.array(md5, pa.string())})

    return scrubbed.map_batches(digest, batch_format="pyarrow")


oracle(q_pii_scrub, r"""
with inj as (select doc_id,
    text || repeat(' u' || doc_id::varchar || '@ex.com', doc_id % 3)
         || repeat(' 555-123-' || lpad((doc_id % 10000)::varchar, 4, '0'),
                   doc_id % 2)
         || case when doc_id % 5 = 0
                 then ' 10.0.' || (doc_id % 256)::varchar || '.'
                      || ((doc_id // 256) % 256)::varchar
                 else '' end as s0
  from documents),
e as (select doc_id,
        len(regexp_extract_all(s0,
            '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}'))::bigint as n_emails,
        regexp_replace(s0, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}',
                       '<EMAIL>', 'g') as s1
      from inj),
p as (select doc_id, n_emails,
        len(regexp_extract_all(s1, '\d{3}-\d{3}-\d{4}'))::bigint as n_phones,
        regexp_replace(s1, '\d{3}-\d{3}-\d{4}', '<PHONE>', 'g') as s2
      from e),
i as (select doc_id, n_emails, n_phones,
        len(regexp_extract_all(s2,
            '\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}'))::bigint as n_ipv4,
        regexp_replace(s2, '\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}',
                       '<IP>', 'g') as s3
      from p)
select doc_id, n_emails, n_phones, n_ipv4, md5(s3) as scrub_md5 from i
""")


@entry
def q_top_bigrams(sf_dir: str):
    """Corpus-level top-50 word bigrams (count desc, bigram asc) via
    per-batch Counter partials → hash-partitioned exact per-part sums →
    single tiny merge; the exchange carries per-(batch, bigram) rows,
    never per-occurrence rows."""
    import ray.data as rd
    from ..functions.text import top_bigrams
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_bigrams(ds, k=50)


oracle(q_top_bigrams, f"""
with t as (select {SIMPLE_TOKS_SQL} as toks from documents),
b as (select unnest(list_transform(range(1, len(toks)),
                    i -> toks[i] || ' ' || toks[i+1])) as bigram from t)
select bigram, count(*)::bigint as n
from b group by bigram order by n desc, bigram limit 50
""")


@entry
def q_stratified_sample(sf_dir: str):
    """Per-language deterministic 10-doc sample by smallest md5(doc_id)
    within each stratum — equal depth regardless of stratum skew."""
    import ray.data as rd
    from ..functions.sample import stratified_sample
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "doc_id"])
    return stratified_sample(ds, strata_col="lang", id_col="doc_id", k=10,
                             auditable=True)


oracle(q_stratified_sample, """
with h as (select lang, doc_id,
                  ('0x' || substr(md5(doc_id::varchar), 1, 16))::ubigint as h
           from documents),
r as (select lang, doc_id,
             row_number() over (partition by lang
                                order by h, doc_id) as sample_rank
      from h)
select lang, doc_id, sample_rank::bigint as sample_rank
from r where sample_rank <= 10
""")


@entry
def q_dup_span_stats(sf_dir: str):
    """Exact duplicate-span signal (Lee et al. 2021 substring-dedup,
    shingle-approximated): per doc, the fraction of its 8-token
    shingles occurring ≥ 2 times corpus-wide. Inverted-index-shaped:
    one hash-keyed exchange of (shingle-hash, doc, cnt) rows marks
    duplicated shingles, a doc-keyed fold sums per-doc fractions."""
    import ray.data as rd
    from ..functions.dedup import dup_span_stats
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return dup_span_stats(ds, w=8)


_DUP_SPAN_W = 8

oracle(q_dup_span_stats, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
s as (select doc_id,
        unnest(list_transform(range(1, len(toks) - {_DUP_SPAN_W} + 2),
               i -> array_to_string(toks[i:i+{_DUP_SPAN_W}-1], ' '))) as sh
      from t where len(toks) >= {_DUP_SPAN_W}),
h as (select doc_id, ('0x' || substr(md5(sh), 1, 16))::ubigint as h from s),
g as (select h, doc_id, count(*)::bigint as cnt from h group by h, doc_id),
tot as (select h, sum(cnt)::bigint as total from g group by h)
select g.doc_id,
  sum(cnt)::bigint as n_shingles,
  sum(case when total >= 2 then cnt else 0 end)::bigint as n_dup_shingles,
  floor((sum(case when total >= 2 then cnt else 0 end)::double
         / sum(cnt)) * 1000000 + 0.5) / 1000000 as dup_span_frac
from g join tot using (h) group by g.doc_id
""")


@entry
def q_kwic_snippets(sf_dir: str):
    """Keyword-in-context snippets for the term 'merge': first match
    position, match count, ±40-char snippet — the search-results
    surface. Exact string semantics mirrored in SQL (strpos/substr on
    the lowered text)."""
    import ray.data as rd
    from ..functions.text import kwic_snippets
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return kwic_snippets(ds, term="merge", context_chars=40)


oracle(q_kwic_snippets, """
with m as (select doc_id, text, strpos(lower(text), 'merge') as p
           from documents where strpos(lower(text), 'merge') > 0)
select doc_id, p::bigint as first_pos,
  ((len(lower(text)) - len(replace(lower(text), 'merge', '')))
   / len('merge'))::bigint as n_matches,
  substr(text, greatest(1, p - 40),
         p + len('merge') + 40 - greatest(1, p - 40)) as snippet
from m
""")


@entry
def q_search_with_snippets(sf_dir: str):
    """The full SERP surface in one pipeline: BM25 top-10 for 'merge'
    (index engine) + keyword-in-context snippet per hit. The hit set is
    the SMALL side (k ids), so the snippet pass is a broadcast semijoin
    against the streamed documents table — the fact table never
    shuffles; scores re-join driver-side (k rows)."""
    import ray.data as rd
    from ..functions.join import broadcast_semijoin
    from ..functions.text import kwic_snippets
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    res = engine.search("merge", k=10)
    ids = _docid_of_external(res["external_id"].to_pylist())
    score = dict(zip(ids.tolist(), round6(res["score"].to_pylist())))
    small = rd.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    snip = kwic_snippets(broadcast_semijoin(docs, small, "doc_id"),
                         term="merge", context_chars=40)

    def attach(b: pa.Table) -> pa.Table:
        s = [score[int(i)] for i in b["doc_id"].to_pylist()]
        return b.append_column("score", pa.array(np.asarray(s)))

    return snip.map_batches(attach, batch_format="pyarrow")


oracle(q_search_with_snippets, f"""
{_bm25_prologue()},
tfs as (select doc_id, count(*)::double as tf from tok
        where term = 'merge' group by doc_id),
dfs as (select count(*)::double as df from tfs),
scored as (
  select tfs.doc_id,
         {_idf_sql('stats.n', 'dfs.df')}
           * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')} as raw
  from tfs cross join dfs
  join doclen on tfs.doc_id = doclen.doc_id cross join stats),
topd as (select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
         from scored order by raw desc, doc_id asc limit 10),
m as (select d.doc_id, d.text, strpos(lower(d.text), 'merge') as p
      from documents d join topd using (doc_id))
select m.doc_id, p::bigint as first_pos,
  ((len(lower(text)) - len(replace(lower(text), 'merge', '')))
   / len('merge'))::bigint as n_matches,
  substr(text, greatest(1, p - 40),
         p + len('merge') + 40 - greatest(1, p - 40)) as snippet,
  topd.score
from m join topd using (doc_id)
""")


@entry
def q_sq8_ann_top10(sf_dir: str):
    """INT8 scalar-quantized ANN (the SQ8 memory tier): approximate
    dot-product top-10 for the first embedding as query. The integer
    dot is exact and the scale multiplies are ordered identically on
    both sides, so the oracle hash-checks the quantized math itself."""
    import ray.data as rd
    from ..functions.similarity import sq8_ann_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = sq8_ann_topk(ds, qvec, k=10).to_pandas()
    out = out.sort_values(["score", "vec_id"], ascending=[False, True],
                          kind="mergesort")
    return pa.table({
        "vec_id": pa.array(out["vec_id"].to_numpy(), pa.int64()),
        "score": pa.array(round6(out["score"].to_numpy())),
    })


oracle(q_sq8_ann_top10, """
with e as (select vec_id, generate_subscripts(embedding, 1) as i,
             unnest(embedding)::double as x
           from embeddings),
sc as (select vec_id, max(abs(x)) / 127 as s from e group by vec_id),
qn as (select e.i, floor(e.x / sc.s + 0.5)::bigint as q
       from e join sc using (vec_id)
       where e.vec_id = (select min(vec_id) from embeddings)
         and sc.s > 0),
vq as (select e.vec_id, e.i,
         case when sc.s > 0
              then floor(e.x / sc.s + 0.5)::bigint else 0 end as q
       from e join sc using (vec_id)),
dots as (select vq.vec_id, sum(vq.q * qn.q)::bigint as dotq
         from vq join qn using (i) group by vq.vec_id),
s as (select dots.vec_id,
        dots.dotq::double * sc.s
          * (select s from sc
             where vec_id = (select min(vec_id) from embeddings)) as raw
      from dots join sc using (vec_id))
select vec_id, floor(raw*1000000 + 0.5)/1000000 as score from s
order by raw desc, vec_id asc limit 10
""")


@entry
def q_pmi_collocations(sf_dir: str):
    """Top-20 collocations by PMI (Church & Hanks 1990), bigram count
    ≥ 5 — phrase mining over the corpus; probabilities over unigram /
    bigram occurrence totals, ties broken bigram-asc."""
    import ray.data as rd
    from ..functions.text import pmi_collocations
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return pmi_collocations(ds, k=20, min_count=5)


oracle(q_pmi_collocations, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tok as (select doc_id, unnest(toks) as w from t),
uni as (select w, count(*)::bigint as n from tok group by w),
nu as (select sum(n)::double as v from uni),
bi as (select doc_id,
         unnest(list_transform(range(1, len(toks)),
                i -> toks[i] || ' ' || toks[i + 1])) as g
       from t where len(toks) >= 2),
bic as (select g, count(*)::bigint as n from bi group by g),
nb as (select sum(n)::double as v from bic),
s as (select bic.g as bigram, bic.n,
        ln((bic.n / (select v from nb))
           / ((ua.n / (select v from nu)) * (ub.n / (select v from nu))))
          as pmi
      from bic
      join uni ua on ua.w = string_split(bic.g, ' ')[1]
      join uni ub on ub.w = string_split(bic.g, ' ')[2]
      where bic.n >= 5)
select bigram, n, floor(pmi*1000000 + 0.5)/1000000 as pmi from s
order by pmi desc, bigram asc limit 20
""")


@entry
def q_more_like_this(sf_dir: str):
    """'More Like This' for doc 7: tf·idf cosine top-10 over the
    corpus (Lucene MLT, distributed via the term-keyed df exchange +
    doc-keyed fold with per-partition combiners)."""
    import ray.data as rd
    from ..functions.text import more_like_this
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return more_like_this(ds, query_doc_id=7, k=10)


oracle(q_more_like_this, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tok as (select doc_id, unnest(toks) as term from t),
nn as (select count(*)::double as n from t where len(toks) > 0),
tf as (select doc_id, term, count(*)::double as tf from tok
       group by doc_id, term),
df as (select term, count(*)::double as df from tf group by term),
vec as (select tf.doc_id, tf.term,
          tf.tf * ln((select n from nn) / df.df) as wgt
        from tf join df using (term)),
nrm as (select doc_id, sqrt(sum(wgt * wgt)) as nrm
        from vec group by doc_id),
qv as (select term, wgt as wq from vec where doc_id = 7),
dt as (select vec.doc_id, sum(vec.wgt * qv.wq) as dt
       from vec join qv using (term) group by vec.doc_id),
s as (select dt.doc_id,
        dt.dt / (nrm.nrm * (select nrm from nrm where doc_id = 7)) as raw
      from dt join nrm using (doc_id)
      where dt.doc_id <> 7 and dt.dt > 0)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from s
order by raw desc, doc_id asc limit 10
""")


@entry
def q_significant_terms(sf_dir: str):
    """ES ``significant_terms`` over a search RESULT SET: terms
    overrepresented in the BM25 top-50 docs vs the corpus background,
    scored by JLH = (fg% − bg%)·(fg%/bg%), min fg_df 3, positively
    significant only. Foreground term sets come from the index's
    FORWARD term vectors (result-set-sized fetch, the PRF pattern);
    background df comes from the index lexicon (``term_stats``, no blob
    read). → (term, fg_df, bg_df, score) top-15 by raw score
    desc, term asc."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    res = engine.search(BM25_QUERY, k=50)
    ids = reader.internal_docids_for(res["external_id"].to_pylist())
    tvs = reader.term_vectors([int(i) for i in ids], "body")
    # fg_n is the RETRIEVED-set size (the oracle's fgn = count(*) of the
    # BM25 top-50), not the term-vector map length — a retrieved doc
    # with an empty body has no term vector but still counts in the
    # foreground denominator (ADVICE r4)
    fg_n = float(res.num_rows)
    fg_df: dict[str, int] = {}
    for terms, _pos, _len in tvs.values():
        for t in set(terms):
            fg_df[t] = fg_df.get(t, 0) + 1
    cand = sorted(t for t, c in fg_df.items() if c >= 3)
    bg_df = {t: d for t, (d, _) in reader.term_stats(cand, "body").items()}
    n = float(reader.doc_count("body"))
    rows = []
    for t in cand:
        fgp = fg_df[t] / fg_n
        bgp = bg_df.get(t, 0) / n
        if bgp <= 0.0 or fgp <= bgp:
            continue
        raw = (fgp - bgp) * (fgp / bgp)
        rows.append((t, fg_df[t], bg_df[t], raw))
    rows.sort(key=lambda r: (-r[3], r[0]))
    rows = rows[:15]
    return pa.table({
        "term": pa.array([r[0] for r in rows], pa.string()),
        "fg_df": pa.array([r[1] for r in rows], pa.int64()),
        "bg_df": pa.array([r[2] for r in rows], pa.int64()),
        "score": pa.array(round6(np.array([r[3] for r in rows],
                                          dtype=np.float64))),
    })


oracle(q_significant_terms, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tok as (select doc_id, unnest(toks) as term from t),
bm as ( {_bm25_sql(BM25_QUERY_TERMS, 50, raw=True)} ),
fgn as (select count(*)::double as fn from bm),
nn as (select count(*)::double as n from t where len(toks) > 0),
fg as (select term, count(distinct tok.doc_id)::bigint as fg_df
       from tok where tok.doc_id in (select doc_id from bm)
       group by term having count(distinct tok.doc_id) >= 3),
bg as (select term, count(distinct doc_id)::bigint as bg_df
       from tok group by term),
s as (select fg.term, fg.fg_df, bg.bg_df,
        ((fg.fg_df / fgn.fn) - (bg.bg_df / nn.n))
          * ((fg.fg_df / fgn.fn) / (bg.bg_df / nn.n)) as raw
      from fg join bg using (term), fgn, nn
      where (fg.fg_df / fgn.fn) > (bg.bg_df / nn.n))
select term, fg_df, bg_df, floor(raw*1000000 + 0.5)/1000000 as score
from s order by raw desc, term asc limit 15
""")


@entry
def q_distinctive_terms(sf_dir: str):
    """Top-5 distinctive terms per doc (tf desc, df asc, term asc) —
    integer-exact tf·idf-style doc profiling; one term-keyed exchange
    annotates df inside the term partition, then a per-doc top-k cut."""
    import ray.data as rd
    from ..functions.text import distinctive_terms
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return distinctive_terms(ds, k=5)


oracle(q_distinctive_terms, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tok as (select doc_id, unnest(toks) as term from t),
tf as (select doc_id, term, count(*)::bigint as tf
       from tok group by doc_id, term),
df as (select term, count(*)::bigint as df from tf group by term),
r as (select tf.doc_id, tf.term, tf.tf, df.df,
        row_number() over (partition by tf.doc_id
                           order by tf.tf desc, df.df, tf.term) as rnk
      from tf join df using (term))
select doc_id, term, tf, df, rnk::bigint as rank from r where rnk <= 5
""")


@entry
def q_group_significant_terms(sf_dir: str):
    """Per-language significant terms (the facet-level JLH sibling of
    ``significant_terms``): which terms characterize each lang subset
    vs the corpus — ``text.group_significant_terms``, one term-keyed
    exchange, corpus df summed inside the term partition, per-part
    top-k before the driver merge."""
    import ray.data as rd
    from ..functions.text import group_significant_terms
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "text"])
    return group_significant_terms(ds, group_col="lang", k=5)


oracle(q_group_significant_terms, f"""
with t as (select lang, doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tokd as (select lang, doc_id, unnest(list_distinct(toks)) as term from t),
fg as (select lang, term, count(*)::bigint as fg_df
       from tokd group by lang, term),
sz as (select lang, count(*)::double as n_g from documents group by lang),
nn as (select count(*)::double as n from documents),
bg as (select term, sum(fg_df)::bigint as bg_df from fg group by term),
s as (select fg.lang, fg.term, fg.fg_df, bg.bg_df,
        ((fg.fg_df / sz.n_g) - (bg.bg_df / nn.n))
          * ((fg.fg_df / sz.n_g) / (bg.bg_df / nn.n)) as raw
      from fg join bg using (term) join sz using (lang), nn
      where fg.fg_df >= 3
        and (fg.fg_df / sz.n_g) > (bg.bg_df / nn.n)),
r as (select *, row_number() over (partition by lang
        order by raw desc, term asc) as rnk from s)
select lang, term, fg_df, bg_df,
       floor(raw*1000000 + 0.5)/1000000 as score
from r where rnk <= 5
""")


@entry
def q_unigram_surprisal(sf_dir: str):
    """CCNet-style LM quality score: mean per-token surprisal under a
    corpus-fit add-one unigram LM (= log2 unigram perplexity), token
    surprisals integer-quantized to 1e-4 bits so sums are associative
    and libm/numpy log2 ulp differences cannot flip the oracle."""
    import ray.data as rd
    from ..functions.text import unigram_lm_surprisal
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return unigram_lm_surprisal(ds)


oracle(q_unigram_surprisal, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tok as (select doc_id, unnest(toks) as term from t),
cnt as (select term, count(*)::bigint as c from tok group by term),
tot as (select count(*)::bigint as n,
               (select count(*) from cnt)::bigint as v from tok),
s as (select doc_id,
        floor(-log2((c + 1)::double / (n + v)) * 10000 + 0.5)::bigint as su
      from tok join cnt using (term), tot)
select doc_id, count(*)::bigint as n_tokens,
  floor((sum(su)::double / count(*) / 10000) * 1000000 + 0.5) / 1000000
    as mean_surprisal
from s group by doc_id
""")


@entry
def q_facet_counts(sf_dir: str):
    """Faceted search: per-language counts of the docs matching the
    boolean #AND(fast sort merge) query. Candidates come from the index
    engine; the facet join is a broadcast semijoin of the match-id set
    against the streamed documents table (the match set is the small
    side — the fact table never shuffles), then a tiny per-lang count."""
    import ray.data as rd
    from ray.data.aggregate import Count
    from ..functions.join import broadcast_semijoin
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, UnrankedBooleanModel())
    res = engine.search("#and(fast sort merge)", k=10**9)
    ids = _docid_of_external(res["external_id"].to_pylist())
    small = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.asarray(ids, np.int64))}))
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    return broadcast_semijoin(docs, small, "doc_id") \
        .groupby("lang").aggregate(Count(alias_name="n"))


oracle(q_facet_counts, f"""
with {_tok_cte()},
m as (select doc_id from tok where term in ('fast','sort','merge')
      group by doc_id having count(distinct term) = 3)
select lang, count(*)::bigint as n
from documents join m using (doc_id) group by lang
""")


@entry
def q_top_hits_per_lang(sf_dir: str):
    """ES ``top_hits`` inside a ``terms`` aggregation: the BM25 match
    set's top-3 hits PER LANGUAGE facet — SERP-style grouped results.
    Shape: the candidate score set (small) broadcasts against the
    streamed documents table for the facet attach (the fact table
    never shuffles — ``facet_counts``' pattern), then one per-facet
    vectorized top-k cut; ranks are cut on the RAW score exactly like
    every ranked oracle, 6-dp rounding at emit only."""
    import ray.data as rd
    from ..functions.join import broadcast_hash_join
    from ..functions.text import round6
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    res = engine.search(BM25_QUERY, k=10**9)
    ids = _docid_of_external(res["external_id"].to_pylist())
    small = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.asarray(ids, np.int64)),
        "score": res["score"]}))
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    joined = broadcast_hash_join(docs, small, "doc_id")

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="mergesort", ignore_index=True).head(3)
        return pd.DataFrame({
            "lang": g["lang"],
            "doc_id": g["doc_id"].astype(np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
            "score": round6(g["score"].to_numpy())})

    return joined.groupby("lang").map_groups(cut, batch_format="pandas")


oracle(q_top_hits_per_lang, f"""
with bm as ( {_bm25_sql(BM25_QUERY_TERMS, 1000000000, raw=True)} ),
r as (select d.lang, bm.doc_id, bm.raw,
        row_number() over (partition by d.lang
                           order by bm.raw desc, bm.doc_id asc) as rnk
      from bm join documents d using (doc_id))
select lang, doc_id, rnk::bigint as rank,
       floor(raw*1000000 + 0.5)/1000000 as score
from r where rnk <= 3
""")


@entry
def q_bm25_filtered_top10(sf_dir: str):
    """Metadata-filtered ranked retrieval: BM25 top-10 over docs with
    lang='en' only — the facet filter applies BEFORE the top-k cut,
    corpus statistics stay corpus-wide (standard filtered-search
    semantics, QueryEngine.search(allowed=...))."""
    import ray.data as rd
    import pyarrow.compute as pc
    from .corpus import doc_url
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    en = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"],
                         filter=pc.field("lang") == "en").to_pandas()
    allowed = reader.internal_docids_for(
        [doc_url(i) for i in en["doc_id"]])
    res = engine.search(BM25_QUERY, k=10, allowed=allowed)
    return _ranked_to_table(res)


oracle(q_bm25_filtered_top10, _bm25_sql(
    BM25_QUERY_TERMS, 10,
    doc_filter="tfs.doc_id in (select doc_id from documents "
               "where lang = 'en')"))


@entry
def q_prefix_suggest(sf_dir: str):
    """Autocomplete: top-10 corpus terms with prefix 's' by document
    frequency desc, term asc — map-side prefix pruning, exact per-part
    df sums, one tiny merge."""
    import ray.data as rd
    from ..functions.text import prefix_suggest
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return prefix_suggest(ds, prefix="s", k=10)


oracle(q_prefix_suggest, f"""
with tok as (
  select doc_id, unnest(list_distinct({SIMPLE_TOKS_SQL})) as term
  from documents),
d as (select term, count(*)::bigint as df from tok
      where term like 's%' group by term)
select term, df,
       row_number() over (order by df desc, term)::bigint as rank
from d order by df desc, term limit 10
""")


@entry
def q_spell_suggest(sf_dir: str):
    """Did-you-mean: for each misspelled query term, the vocabulary
    term minimizing (edit distance, −df, term asc) within distance 3.
    The DP kernel runs inside hash partitions of the vocabulary df
    table; DuckDB's ``levenshtein`` mirrors the Python DP exactly
    (parity fuzz-tested in tests)."""
    import ray.data as rd
    from ..functions.text import spell_suggest
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return spell_suggest(ds, ["mrge", "hach", "custmer", "windoow"])


oracle(q_spell_suggest, f"""
with tok as (
  select doc_id, unnest(list_distinct({SIMPLE_TOKS_SQL})) as term
  from documents),
v as (select term, count(*)::bigint as df from tok group by term),
q as (select unnest(['mrge','hach','custmer','windoow']) as query_term),
c as (select q.query_term, v.term as suggestion,
             levenshtein(q.query_term, v.term)::bigint as distance, v.df
      from q cross join v
      where levenshtein(q.query_term, v.term) <= 3),
r as (select *, row_number() over (partition by query_term
        order by distance, df desc, suggestion) as rn from c)
select query_term, suggestion, distance, df from r where rn = 1
""")


@entry
def q_boosting_search(sf_dir: str):
    """ES ``boosting`` query: BM25 over the standard 3-term positive
    clause, with docs also containing 'scan' demoted ×0.5 BEFORE the
    top-10 cut (``QueryEngine.search_boosting``) — soft negation, vs
    ``negation_search``'s hard MUST_NOT."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    res = engine.search_boosting(BM25_QUERY, "scan",
                                 negative_boost=0.5, k=10)
    return _ranked_to_table(res)


oracle(q_boosting_search, f"""
with pos as ( {_bm25_sql(BM25_QUERY_TERMS, 10**9, raw=True)} ),
{_tok_cte()},
neg as (select distinct doc_id from tok where term = 'scan'),
boosted as (
  select pos.doc_id,
         pos.raw * (case when neg.doc_id is null then 1.0 else 0.5 end)
           as raw
  from pos left join neg using (doc_id))
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from boosted
order by raw desc, doc_id asc limit 10
""")


@entry
def q_did_you_mean_phrase(sf_dir: str):
    """Phrase-level did-you-mean ('fsat sortt' → 'fast sort'): per-term
    spell candidates (the ``spell_suggest`` (distance, −df, term) rule,
    top-8) re-ranked by corpus BIGRAM counts — the suggestion maximizes
    (bigram count, −total edit distance, terms asc). Two corpus passes,
    no all-to-all; candidate pairs (≤64) are the only bigrams that
    survive the map."""
    import ray.data as rd
    from ..functions.text import phrase_did_you_mean
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return phrase_did_you_mean(ds, "fsat sortt")


oracle(q_did_you_mean_phrase, f"""
with tokl as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
tokd as (select doc_id, unnest(list_distinct(toks)) as term from tokl),
v as (select term, count(*)::bigint as df from tokd group by term),
c1 as (select term, df, levenshtein('fsat', term)::bigint as d from v
       where levenshtein('fsat', term) <= 2),
r1 as (select *, row_number() over (order by d, df desc, term) as rn
       from c1),
c2 as (select term, df, levenshtein('sortt', term)::bigint as d from v
       where levenshtein('sortt', term) <= 2),
r2 as (select *, row_number() over (order by d, df desc, term) as rn
       from c2),
tok as ({POS_TOK_SQL}),
big as (select a.term as t1, b.term as t2, count(*)::bigint as n
        from tok a join tok b
          on a.doc_id = b.doc_id and b.pos = a.pos + 1
        group by a.term, b.term),
pairs as (
  select r1.term as w1, r2.term as w2, coalesce(big.n, 0) as n,
         r1.d + r2.d as td
  from r1 cross join r2
  left join big on big.t1 = r1.term and big.t2 = r2.term
  where r1.rn <= 8 and r2.rn <= 8)
select 'fsat sortt' as query, w1 || ' ' || w2 as suggestion,
       n::bigint as bigram_n, td::bigint as total_distance
from pairs order by n desc, td asc, w1 asc, w2 asc limit 1
""")


@entry
def q_chunk_documents(sf_dir: str):
    """Training-data chunking: overlapping 32-token windows every 24
    tokens (final partial window kept, md5 of each chunk verified) —
    the context-window split step of an LLM data pipeline; no exchange,
    output rows bounded per batch."""
    import ray.data as rd
    from ..functions.text import chunk_documents
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return chunk_documents(ds, max_tokens=32, stride=24)


_CHUNK_W, _CHUNK_S = 32, 24

oracle(q_chunk_documents, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
n as (select doc_id, toks, len(toks) as n from t where len(toks) > 0),
-- last emitted start: first stride multiple s with s + W >= n
-- (0 when the doc fits one window)
s as (select doc_id, toks, n,
        case when n > {_CHUNK_W}
             then {_CHUNK_S} * ((n - {_CHUNK_W} + {_CHUNK_S} - 1)
                               // {_CHUNK_S})
             else 0 end as slast
      from n),
w as (select doc_id, toks, n,
        unnest(range(0, slast + 1, {_CHUNK_S})) as s0
      from s)
select doc_id,
  (s0 / {_CHUNK_S} + 1)::bigint as chunk_id,
  (least(s0 + {_CHUNK_W}, n) - s0)::bigint as n_tokens,
  md5(array_to_string(toks[s0 + 1:least(s0 + {_CHUNK_W}, n)], ' '))
    as chunk_md5
from w
""")


@entry
def q_strip_html(sf_dir: str):
    """General-HTML text extraction (tags → space, entity unescape,
    whitespace collapse): both sides build the same deterministic HTML
    wrapper (title = first 5 words, plus an entity-bearing suffix) and
    the oracle verifies the md5 of the cleaned text — the lossy-HTML
    sibling of the index build's byte-exact extract_text."""
    import hashlib
    import ray.data as rd
    from ..functions.text import strip_html

    def inject(b):
        ids = b["doc_id"].to_pylist()
        htmls = []
        for t in b["text"].to_pylist():
            t = t or ""
            title = " ".join(t.split()[:5])
            aug = t + " x &amp; y &lt;z&gt; &quot;w&#39;s&quot;&nbsp;end"
            htmls.append(f"<html><title>{title}</title>"
                         f"<body>{aug}</body></html>")
        return pa.table({"doc_id": pa.array(ids),
                         "html": pa.array(htmls, pa.string())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    cleaned = strip_html(ds.map_batches(inject, batch_format="pyarrow"))

    def digest(b):
        md5 = [hashlib.md5(s.encode()).hexdigest()
               for s in b["clean_text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "clean_md5": pa.array(md5, pa.string())})

    return cleaned.map_batches(digest, batch_format="pyarrow")


SQL_STRIP_HTML = r"""
with inj as (select doc_id,
    '<html><title>'
    || array_to_string(list_filter(string_split_regex(text, '\s+'),
                                   x -> len(x) > 0)[1:5], ' ')
    || '</title><body>' || text
    || ' x &amp; y &lt;z&gt; &quot;w&#39;s&quot;&nbsp;end'
    || '</body></html>' as h
  from documents),
c as (select doc_id,
        trim(regexp_replace(
          replace(replace(replace(replace(replace(replace(
            regexp_replace(h, '<[^>]*>', ' ', 'g'),
            '&amp;', '&'), '&lt;', '<'), '&gt;', '>'),
            '&quot;', '"'), '&#39;', chr(39)), '&nbsp;', ' '),
          '\s+', ' ', 'g')) as clean
      from inj)
select doc_id, md5(clean) as clean_md5 from c
"""


@entry
def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: fraction of each doc's 8-token
    shingles that appear in the 'benchmark' subset (doc_id % 97 = 0) —
    the eval-overlap audit every LLM data pipeline runs before
    training. Benchmark shingle hashes broadcast once (byte-guarded);
    the corpus streams through a stateless sorted-probe map."""
    import ray.data as rd
    from ..functions.dedup import decontaminate
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    def bench_only(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 97 == 0))

    bench = rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"]) \
        .map_batches(bench_only, batch_format="pyarrow")
    return decontaminate(ds, bench, w=8)


oracle(q_decontaminate, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents
           where len({SIMPLE_TOKS_SQL}) >= 8),
s as (select doc_id,
        unnest(list_transform(range(1, len(toks) - 8 + 2),
               i -> array_to_string(toks[i:i+7], ' '))) as sh
      from t),
h as (select doc_id, ('0x' || substr(md5(sh), 1, 16))::ubigint as h from s),
bench as (select distinct h from h where doc_id % 97 = 0),
agg as (select h.doc_id, count(*)::bigint as n_sh,
          sum(case when b.h is not null then 1 else 0 end)::bigint as n_hit
        from h left join bench b using (h) group by h.doc_id)
select doc_id, n_sh as n_shingles, n_hit as n_contaminated,
  floor((n_hit::double / n_sh) * 1000000 + 0.5) / 1000000 as contam_frac
from agg
""")


def _pr_graph(sf_dir: str):
    """The deterministic synthetic link graph shared by every PageRank
    oracle: docs with ``doc_id % 7 == 0`` are dangling (crawl frontier
    leaves), the rest emit 1–3 out-links ``(doc_id*131 + k*7919) % n``.
    → (edges Dataset, nodes Dataset)."""
    import ray.data as rd
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    n = docs.count()

    def edges_fn(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids % 7 != 0]
        kc = ids % 3 + 1
        src = np.repeat(ids, kc)
        off = np.repeat(np.cumsum(kc) - kc, kc)
        k = np.arange(len(src), dtype=np.int64) - off + 1
        dst = (src * 131 + k * 7919) % n
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    edges = docs.map_batches(edges_fn, batch_format="pyarrow")
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b["doc_id"]}), batch_format="pyarrow")
    return edges, nodes, n


@entry
def q_pagerank(sf_dir: str):
    """Integer fixed-point PageRank (3 iterations, damping 85/100) over
    the synthetic link graph. Every arithmetic step is int64
    (contribution = rank // outdeg, damped sum = (85*s)//100), so
    distributed partials associate exactly and the unrolled-CTE oracle
    hash-matches bit for bit — the producer side of the PageRank prior
    file the reference only consumes."""
    from ..functions.graph import pagerank
    edges, nodes, _ = _pr_graph(sf_dir)
    return pagerank(edges, nodes, iters=3)


@entry
def q_personalized_pagerank(sf_dir: str):
    """Topic-sensitive PageRank (Haveliwala WWW'02): teleport/start/
    dangling mass flow ONLY to the seed set (docs with
    ``doc_id % 13 == 0``); non-seeds hold rank purely through
    in-links. Same int64 fixed-point arithmetic, seed-aware unrolled
    CTEs as the oracle."""
    import ray.data as rd
    import pyarrow.compute as pc
    from ..functions.graph import pagerank
    edges, nodes, n = _pr_graph(sf_dir)
    seeds = np.arange(0, n, 13, dtype=np.int64)
    return pagerank(edges, nodes, iters=3, seeds=seeds)


_PR_SCALE = 10 ** 12


def _pr_iter_sql(prev: str, cur: str) -> str:
    """One unrolled PageRank iteration as a CTE — the exact integer
    mirror of ``graph.pagerank``'s update rule."""
    return f""",
{cur} as (
  select nd.node, nd.od,
    ((((100 - 85) * {_PR_SCALE}) // 100) // (select n from nn))
      + (85 * coalesce(s.s, 0)) // 100
      + ((85 * (select coalesce(sum(ru), 0)::bigint
                from {prev} where od = 0)) // 100)
        // (select n from nn) as ru
  from nd left join (
      select e.dst as node, sum(r.ru // r.od)::bigint as s
      from e join {prev} r on e.src = r.node
      group by e.dst) s on nd.node = s.node)"""


_PPR_NT = "(select count(*)::bigint from documents where doc_id % 13 = 0)"


def _ppr_iter_sql(prev: str, cur: str) -> str:
    """One unrolled PERSONALIZED-PageRank iteration: teleport and the
    dangling donation are gated on the seed predicate and divided by
    the seed count — the exact mirror of ``graph.pagerank(seeds=...)``."""
    return f""",
{cur} as (
  select nd.node, nd.od,
    case when nd.node % 13 = 0 then
      ((((100 - 85) * {_PR_SCALE}) // 100) // {_PPR_NT})
      + ((85 * (select coalesce(sum(ru), 0)::bigint
                from {prev} where od = 0)) // 100) // {_PPR_NT}
    else 0 end
      + (85 * coalesce(s.s, 0)) // 100 as ru
  from nd left join (
      select e.dst as node, sum(r.ru // r.od)::bigint as s
      from e join {prev} r on e.src = r.node
      group by e.dst) s on nd.node = s.node)"""


oracle(q_pagerank, f"""
with nn as (select count(*)::bigint as n from documents),
e as (select d.doc_id as src,
        (d.doc_id * 131 + k.k * 7919) % (select n from nn) as dst
      from documents d cross join (values (1), (2), (3)) k(k)
      where d.doc_id % 7 <> 0 and k.k <= d.doc_id % 3 + 1),
deg as (select src as node, count(*)::bigint as od from e group by src),
nd as (select doc_id as node, coalesce(od, 0::bigint) as od
       from documents left join deg on doc_id = node),
r0 as (select node, od,
         ({_PR_SCALE} // (select n from nn))::bigint as ru
       from nd){_pr_iter_sql('r0', 'r1')}{_pr_iter_sql('r1', 'r2')}{_pr_iter_sql('r2', 'r3')}
select node, od as outdeg, ru as rank_u from r3
""")


oracle(q_personalized_pagerank, f"""
with nn as (select count(*)::bigint as n from documents),
e as (select d.doc_id as src,
        (d.doc_id * 131 + k.k * 7919) % (select n from nn) as dst
      from documents d cross join (values (1), (2), (3)) k(k)
      where d.doc_id % 7 <> 0 and k.k <= d.doc_id % 3 + 1),
deg as (select src as node, count(*)::bigint as od from e group by src),
nd as (select doc_id as node, coalesce(od, 0::bigint) as od
       from documents left join deg on doc_id = node),
r0 as (select node, od,
         case when node % 13 = 0
              then ({_PR_SCALE} // {_PPR_NT})::bigint
              else 0::bigint end as ru
       from nd){_ppr_iter_sql('r0', 'r1')}{_ppr_iter_sql('r1', 'r2')}{_ppr_iter_sql('r2', 'r3')}
select node, od as outdeg, ru as rank_u from r3
""")


_HITS_SCALE = 10 ** 9


@entry
def q_hits(sf_dir: str):
    """Kleinberg HITS (2 iterations) over the synthetic link graph —
    division-only int64 fixed-point (normalize by v // max(1, max//S))
    so distributed sums associate exactly and the unrolled-CTE oracle
    hash-matches bit for bit; the hubs/authorities companion to the
    PageRank prior."""
    from ..functions.graph import hits
    edges, nodes, _ = _pr_graph(sf_dir)
    out = hits(edges, nodes, iters=2,
               scale=_HITS_SCALE).to_pandas().sort_values(
        "node", ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def _hits_half_sql(prev: str, raw: str, out: str, key: str,
                   tgt: str) -> str:
    """One HITS half-step: sum ``prev`` over edges keyed ``key``→``tgt``
    then divide by the max-derived divisor."""
    return f""",
{raw} as (select d.doc_id as node, coalesce(s.v, 0)::bigint as v
  from documents d left join (
    select e.{tgt} as t, sum(p.v)::bigint as v
    from e join {prev} p on p.node = e.{key} group by e.{tgt}) s
  on s.t = d.doc_id),
{out} as (select node,
  v // greatest(1, (select max(v) from {raw}) // {_HITS_SCALE}) as v
  from {raw})"""


oracle(q_hits, f"""
with nn as (select count(*)::bigint as n from documents),
e as (select d.doc_id as src,
        (d.doc_id * 131 + k.k * 7919) % (select n from nn) as dst
      from documents d cross join (values (1), (2), (3)) k(k)
      where d.doc_id % 7 <> 0 and k.k <= d.doc_id % 3 + 1),
h0 as (select doc_id as node, {_HITS_SCALE}::bigint as v from documents)
{_hits_half_sql('h0', 'a1r', 'a1', 'src', 'dst')}
{_hits_half_sql('a1', 'h1r', 'h1', 'dst', 'src')}
{_hits_half_sql('h1', 'a2r', 'a2', 'src', 'dst')}
{_hits_half_sql('a2', 'h2r', 'h2', 'dst', 'src')}
select h2.node, h2.v as hub_u, a2.v as auth_u
from h2 join a2 using (node) order by node
""")


@entry
def q_bm25_pagerank_blend(sf_dir: str):
    """Static-prior blended ranking: BM25 candidates re-scored as
    ``raw + rank_u / 1e12`` with the integer fixed-point PageRank of
    the synthetic link graph — the producer (``graph.pagerank``)
    feeding the consumer role the reference gives PageRank priors
    (``FeatureVector.java:65`` loads them per doc as a LeToR feature).
    The prior joins the candidate set driver-side here (the rank table
    is small); at cluster scale it shards like the doclens and the
    blend happens inside the distributed scorer."""
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    res = engine.search(BM25_QUERY, k=10 ** 9)
    ids = _docid_of_external(res["external_id"].to_pylist())
    raw = res["score"].to_numpy()
    pr = q_pagerank(sf_dir).to_pandas()
    pr_map = dict(zip(pr["node"], pr["rank_u"]))
    blend = raw + np.array([pr_map[int(i)] for i in ids],
                           np.int64) / 1e12
    order = np.lexsort((ids, -blend))[:10]
    return pa.table({"doc_id": pa.array(ids[order]),
                     "score": pa.array(round6(blend[order]))})


oracle(q_bm25_pagerank_blend, f"""
{_bm25_prologue()},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ({",".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
        group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select tfs.doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')}) as raw
  from tfs join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats group by tfs.doc_id),
nn as (select count(*)::bigint as n from documents),
e as (select d.doc_id as src,
        (d.doc_id * 131 + k.k * 7919) % (select n from nn) as dst
      from documents d cross join (values (1), (2), (3)) k(k)
      where d.doc_id % 7 <> 0 and k.k <= d.doc_id % 3 + 1),
deg as (select src as node, count(*)::bigint as od from e group by src),
nd as (select doc_id as node, coalesce(od, 0::bigint) as od
       from documents left join deg on doc_id = node),
r0 as (select node, od,
         ({_PR_SCALE} // (select n from nn))::bigint as ru
       from nd){_pr_iter_sql('r0', 'r1')}{_pr_iter_sql('r1', 'r2')}{_pr_iter_sql('r2', 'r3')}
select s.doc_id,
  floor((s.raw + r.ru / 1000000000000.0) * 1000000 + 0.5) / 1000000
    as score
from scored s join r3 r on s.doc_id = r.node
order by (s.raw + r.ru / 1000000000000.0) desc, s.doc_id asc limit 10
""")


def _raw_url_of(i: int) -> str:
    """Deterministic messy-url family: every canonicalization rule is
    exercised (case, www, :80, tracking params, fragment, trailing
    slash), and the canonical form is analytically
    ``http://host{i%17}.example.{com|org}/p/{(i*7)%50}`` — which is
    what the SQL oracle constructs directly, making it ground truth
    rather than a re-implementation of the kernel."""
    scheme = "HTTP" if i % 3 == 0 else "http"
    www = "WWW." if i % 4 == 0 else ""
    host = f"Host{i % 17}.Example.{'com' if i % 2 == 0 else 'org'}"
    port = ":80" if i % 5 == 0 else ""
    trail = "/" if i % 6 == 0 else ""
    frag = "#frag" if i % 8 == 0 else ""
    return (f"{scheme}://{www}{host}{port}/p/{(i * 7) % 50}{trail}"
            f"?utm_source=x&fbclid=42{frag}")


@entry
def q_url_canonicalize(sf_dir: str):
    """URL canonicalization over the deterministic messy-url family;
    the oracle builds the expected canonical form analytically from
    doc_id (the general regex kernel must land exactly on it)."""
    import ray.data as rd
    from ..functions.web import url_canonicalize
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def inject(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        return pa.table({"doc_id": b["doc_id"],
                         "url": pa.array([_raw_url_of(i) for i in ids],
                                         pa.string())})

    return url_canonicalize(docs.map_batches(inject,
                                             batch_format="pyarrow")) \
        .select_columns(["doc_id", "canonical_url", "host"])


oracle(q_url_canonicalize, """
select doc_id,
  'http://host' || (doc_id % 17) || '.example.'
    || case when doc_id % 2 = 0 then 'com' else 'org' end
    || '/p/' || ((doc_id * 7) % 50) as canonical_url,
  'host' || (doc_id % 17) || '.example.'
    || case when doc_id % 2 = 0 then 'com' else 'org' end as host
from documents
""")


@entry
def q_domain_stats(sf_dir: str):
    """Per-domain crawl rollup over the messy-url family: docs per
    host, DISTINCT canonical urls per host (the alias-collapse rate —
    tracking params/case/slash variants fold), total chars. Partials
    pre-aggregate per batch (hash-set distinct), one tiny host
    groupby folds them."""
    import ray.data as rd
    from ..functions.web import domain_stats
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])

    def inject(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        return pa.table({"doc_id": b["doc_id"],
                         "n_chars": b["n_chars"],
                         "url": pa.array([_raw_url_of(i) for i in ids],
                                         pa.string())})

    return domain_stats(docs.map_batches(inject, batch_format="pyarrow"),
                        size_col="n_chars")


oracle(q_domain_stats, """
with c as (select doc_id, n_chars,
    'host' || (doc_id % 17) || '.example.'
      || case when doc_id % 2 = 0 then 'com' else 'org' end as host,
    '/p/' || ((doc_id * 7) % 50) as path
  from documents)
select host, count(*)::bigint as n_docs,
  count(distinct path)::bigint as n_distinct_canonical,
  sum(n_chars)::bigint as sum_size
from c group by host
""")


@entry
def q_remove_dup_spans(sf_dir: str):
    """Exact-substring dedup (Lee et al. 2021): tokens covered by any
    corpus-duplicated 8-token shingle are cut; the oracle re-derives
    coverage with an interval-EXISTS join and verifies the cleaned
    text's md5, token and removal counts."""
    import ray.data as rd
    from ..functions.dedup import remove_dup_spans
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return remove_dup_spans(ds, w=8)


oracle(q_remove_dup_spans, f"""
with t as (select doc_id, {SIMPLE_TOKS_SQL} as toks from documents),
s as (select doc_id, toks, unnest(range(1, len(toks) - 8 + 2)) as i
      from t where len(toks) >= 8),
h as (select doc_id, i,
        ('0x' || substr(md5(array_to_string(toks[i:i+7], ' ')), 1, 16))
          ::ubigint as h
      from s),
dup as (select h from h group by h having count(*) >= 2),
starts as (select doc_id, i from h join dup using (h)),
tokpos as (select doc_id, unnest(toks) as tok,
             generate_subscripts(toks, 1) as j from t),
cov as (select tk.doc_id, tk.j, tk.tok,
          exists (select 1 from starts st where st.doc_id = tk.doc_id
                  and tk.j between st.i and st.i + 7) as covered
        from tokpos tk),
clean as (select doc_id,
            coalesce(string_agg(tok, ' ' order by j)
                     filter (where not covered), '') as txt,
            count(*)::bigint as n_tokens,
            sum(case when covered then 1 else 0 end)::bigint as n_removed
          from cov group by doc_id)
select d.doc_id,
  coalesce(c.n_tokens, 0::bigint) as n_tokens,
  coalesce(c.n_removed, 0::bigint) as n_removed,
  coalesce(md5(c.txt), md5('')) as clean_md5
from documents d left join clean c using (doc_id)
""")


@entry
def q_warc_roundtrip(sf_dir: str):
    """Crawl-format ingest: the corpus serializes to WARC response
    records (fixed WARC-Date — byte-reproducible), reads back via the
    per-file parse tasks, and extracts text with the general-HTML
    kernel; the cleaned-text digests must equal the direct
    ``strip_html`` path's, so the oracle is shared — what the check
    pins is the WARC write→read hop itself."""
    import hashlib as _h
    import ray.data as rd
    from ..functions.text import strip_html
    from ..io.warc import read_warc, write_warc

    tag = hashlib.md5(f"{sf_dir}|warc".encode()).hexdigest()[:8]
    out = os.path.join("/tmp/se_ray_warc", tag)

    def inject(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        htmls, urls = [], []
        for i, t in zip(ids, b["text"].to_pylist()):
            t = t or ""
            title = " ".join(t.split()[:5])
            aug = t + " x &amp; y &lt;z&gt; &quot;w&#39;s&quot;&nbsp;end"
            htmls.append(f"<html><title>{title}</title>"
                         f"<body>{aug}</body></html>")
            urls.append(f"http://docs.example.com/{i:08d}")
        return pa.table({"url": pa.array(urls, pa.string()),
                         "html": pa.array(htmls, pa.string())})

    if not (os.path.isdir(out) and os.listdir(out)):
        docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
        write_warc(docs.map_batches(inject, batch_format="pyarrow"), out,
                   compress=True)

    cleaned = strip_html(read_warc(out))

    def digest(b: pa.Table) -> pa.Table:
        ids = [int(u.rsplit("/", 1)[1]) for u in b["url"].to_pylist()]
        md5 = [_h.md5(s.encode()).hexdigest()
               for s in b["clean_text"].to_pylist()]
        return pa.table({"doc_id": pa.array(np.asarray(ids, np.int64)),
                         "clean_md5": pa.array(md5, pa.string())})

    return cleaned.map_batches(digest, batch_format="pyarrow")
oracle(q_strip_html, SQL_STRIP_HTML)
oracle(q_warc_roundtrip, SQL_STRIP_HTML)


@entry
def q_curation_pipeline(sf_dir: str):
    """The composed LLM-data curation flagship, end to end in ONE
    streamed pipeline: quality gate (C4/Gopher heuristics) →
    exact dedup (canonical doc per distinct content among survivors)
    → training-window chunking (32-token windows, md5 digests). Each
    stage is individually oracle-checked elsewhere; this entry pins
    the COMPOSITION (filter semantics feed dedup feed chunker, one
    keyed exchange for dedup + one for the canonical semijoin).
    Output = chunk-level rows for surviving canonical docs."""
    import ray.data as rd
    from ..functions.dedup import exact_dedup
    from ..functions.join import shuffle_hash_join
    from ..functions.text import chunk_documents, heuristic_filter
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
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
        left_on="doc_id", num_parts=16)
    return chunk_documents(survivors, max_tokens=32)


oracle(q_curation_pipeline, f"""
with t0 as (select doc_id, text, {SIMPLE_TOKS_SQL} as toks from documents),
q as (select doc_id, len(toks) as n,
        floor((case when len(toks) > 0
              then list_aggregate(list_transform(toks, x -> len(x)),
                                  'sum')::double / len(toks)
              else 0.0 end) * 1000000 + 0.5) / 1000000 as mtl,
        floor((case when len(toks) > 0
              then 1.0 - len(list_distinct(toks))::double / len(toks)
              else 0.0 end) * 1000000 + 0.5) / 1000000 as dup
      from t0),
kept as (select doc_id from q
         where n >= 40 and n <= 100000 and mtl >= 2.0 and mtl <= 10.0
           and dup <= 0.55),
canon as (select min(t0.doc_id) as doc_id
          from t0 join kept using (doc_id) group by md5(t0.text)),
surv as (select t0.doc_id, t0.toks from t0 join canon using (doc_id)),
nn2 as (select doc_id, toks, len(toks) as n from surv where len(toks) > 0),
sw as (select doc_id, toks, n,
        case when n > 32 then 32 * ((n - 32 + 31) // 32) else 0 end as slast
      from nn2),
w as (select doc_id, toks, n,
        unnest(range(0, slast + 1, 32)) as s0
      from sw)
select doc_id,
  (s0 / 32 + 1)::bigint as chunk_id,
  (least(s0 + 32, n) - s0)::bigint as n_tokens,
  md5(array_to_string(toks[s0 + 1:least(s0 + 32, n)], ' ')) as chunk_md5
from w
""")


def _read_jsonl_dump(sf_dir: str, columns: list[str]):
    """The documents table as a gzipped JSONL dump (written once,
    byte-reproducible), read back pruned to ``columns``."""
    import ray.data as rd
    from ..io.jsonl import read_jsonl, write_jsonl
    tag = hashlib.md5(f"{sf_dir}|jsonl".encode()).hexdigest()[:8]
    out = os.path.join("/tmp/se_ray_jsonl", tag)
    if not (os.path.isdir(out) and os.listdir(out)):
        docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
        write_jsonl(docs, out, compress=True)
    return read_jsonl(out, columns=columns) \
        .map_batches(lambda b: b.drop_columns(["_bad_lines"]),
                     batch_format="pyarrow")


@entry
def q_jsonl_roundtrip(sf_dir: str):
    """LLM-corpus interchange: documents serialize to gzipped JSONL
    (byte-reproducible writer), read back with column pruning (only
    the 3 asked-for fields parse out of each object) — values must
    survive the hop exactly."""
    return _read_jsonl_dump(sf_dir, ["doc_id", "lang", "n_chars"])


oracle(q_jsonl_roundtrip, "select doc_id, lang, n_chars from documents")


@entry
def q_line_dedup(sf_dir: str):
    """C4-style global line dedup over a deterministic line view of the
    corpus (8 space-tokens per line — the synthetic docs ship without
    newlines, so the query constructs the line structure analytically
    on BOTH sides): every distinct line survives only at its first
    (doc_id, line_no); output is the per-doc cleaned-text md5 +
    removed-line count."""
    import ray.data as rd
    from ..functions.dedup import dedup_lines
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def to_lines(b: pa.Table) -> pa.Table:
        out = []
        for t in b["text"].to_pylist():
            toks = (t or "").split(" ")
            out.append("\n".join(" ".join(toks[i:i + 8])
                                 for i in range(0, len(toks), 8)))
        return pa.table({"doc_id": b["doc_id"],
                         "text": pa.array(out, pa.string())})

    res = dedup_lines(docs.map_batches(to_lines, batch_format="pyarrow"))

    def digest(b: pa.Table) -> pa.Table:
        md5s = [hashlib.md5(t.encode()).hexdigest()
                for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"],
                         "clean_md5": pa.array(md5s, pa.string()),
                         "n_removed": b["n_removed"]})

    return res.map_batches(digest, batch_format="pyarrow")


oracle(q_line_dedup, """
with tok as (
  select doc_id, unnest(string_split(text, ' ')) as w,
         generate_subscripts(string_split(text, ' '), 1) as i
  from documents),
lines as (
  select doc_id, (i - 1) // 8 as ln, string_agg(w, ' ' order by i) as line
  from tok group by doc_id, (i - 1) // 8),
ranked as (
  select doc_id, ln, line,
         row_number() over (partition by line order by doc_id, ln) as rn
  from lines),
kept as (select doc_id, ln, line from ranked where rn = 1),
agg as (select doc_id, string_agg(line, chr(10) order by ln) as txt,
               count(*) as n_kept from kept group by doc_id),
tot as (select doc_id, count(*) as n_lines from lines group by doc_id)
select t.doc_id, md5(coalesce(a.txt, '')) as clean_md5,
       (t.n_lines - coalesce(a.n_kept, 0))::bigint as n_removed
from tot t left join agg a using (doc_id)
""")


def _jsonl_index(sf_dir: str) -> IndexReader:
    from .corpus import documents_to_pages_batch
    pages = _read_jsonl_dump(sf_dir, ["doc_id", "text", "lang"]) \
        .map_batches(documents_to_pages_batch, batch_format="pyarrow")
    return _resumed_index(sf_dir, "jsonl", pages)


# End-to-end source-format composition: documents → gzipped JSONL dump
# → ``read_jsonl`` (pruned to the 3 build columns) → the SAME
# tokenize/build plane → BM25 top-10. Must rank byte-identically to the
# parquet-sourced ``index_bm25_top10`` (same oracle SQL): the
# interchange hop may not perturb the index.
_search_entry("bm25_jsonl_top10", _jsonl_index, _BM25, BM25_QUERY, 10,
              SQL_INDEX_BM25_TOP10)


@entry
def q_event_transitions(sf_dir: str):
    """Clickstream first-order Markov matrix: per-user (ts, event_id)-
    ordered consecutive event-type pairs, counted globally
    (``events.event_transitions`` — user-keyed shuffle, one lexsort +
    adjacency mask per partition, |types|²-row partials)."""
    import ray.data as rd
    from ..functions.events import event_transitions
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id",
                                  "event_type"])
    return event_transitions(ds)


oracle(q_event_transitions, """
with ordered as (
  select user_id, event_type,
         lead(event_type) over (partition by user_id
                                order by ts, event_id) as next_type
  from events)
select event_type as from_type, next_type as to_type,
       count(*)::bigint as n
from ordered where next_type is not null
group by 1, 2 order by 1, 2
""")


@entry
def q_json_field_agg(sf_dir: str):
    """Parse the events' JSON ``props`` sidecar, extract the numeric
    ``k`` field, aggregate (count, sum, 6-dp mean) per event_type —
    parse once per payload in the map stage, exchange only per-(batch,
    type) partials."""
    import ray.data as rd
    from ..functions.events import json_field_agg
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])
    return json_field_agg(ds, field="k", json_col="props",
                          group_col="event_type")


oracle(q_json_field_agg, """
select event_type,
  count(json_extract_string(props, '$.k'))::bigint as n_vals,
  coalesce(sum(json_extract_string(props, '$.k')::double), 0)::double
    as sum_val,
  floor((sum(json_extract_string(props, '$.k')::double)
         / count(json_extract_string(props, '$.k')))
        * 1000000 + 0.5) / 1000000 as mean_val
from events group by event_type
""")


def _tfidf_sql(terms: tuple[str, ...], k: int) -> str:
    """DuckDB ClassicSimilarity top-k — the TF-IDF twin of
    ``_bm25_sql`` (single query and batch oracles)."""
    in_list = ",".join(f"'{t}'" for t in terms)
    return f"""
with {_tok_cte()},
{_doclen_cte()},
stats as (select (select count(*) from documents)::double as n),
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ({in_list})
        group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select tfs.doc_id,
         sum(sqrt(tfs.tf) * pow(1.0 + ln(stats.n / (dfs.df + 1.0)), 2)
             / sqrt(greatest(doclen.dl, 1.0))) as raw
  from tfs join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats group by tfs.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
from scored order by raw desc, doc_id asc limit {k}
"""


# Lucene ClassicSimilarity (TF-IDF vector-space) ranking — the
# pre-BM25 Lucene default the reference's 4.3 backend shipped:
# per-term ``sqrt(tf) * (1 + ln(N/(df+1)))^2 / sqrt(dl)``, summed
# over the standard 3-term query (``models.TFIDFModel``).
_search_entry("tfidf_classic_top10", _simple_index, TFIDFModel(), BM25_QUERY,
              10, _tfidf_sql(BM25_QUERY_TERMS, 10))


@entry
def q_time_decay_top10(sf_dir: str):
    """Recency-boosted retrieval (Elasticsearch ``function_score``
    exponential decay / Solr ``recip(ms(NOW,date))``): BM25 top-100
    rescore window, each candidate's raw score multiplied by
    ``2^(-age_s / half_life)`` where age comes from the ``ts``
    crawl-timestamp doc-value in the index's attribute plane
    (``reader.attributes_for`` — candidate-set pruned, never
    O(n_docs)) and NOW is the deterministic crawl end
    (base + n_docs seconds). Window semantics match Elasticsearch
    rescore: docs outside the lexical top-100 cannot enter."""
    reader = _docvalues_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    res = engine.search(BM25_QUERY, k=100)
    exts = res["external_id"].to_pylist()
    if not exts:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    docids = np.asarray(reader.internal_docids_for(exts), np.int64)
    ts = reader.attributes_for(docids, ["ts"])["ts"]
    ts_us = np.asarray(ts).astype("datetime64[us]").astype(np.int64)
    now_us = _TS_BASE_US + reader.n_docs * 1_000_000
    age_s = (now_us - ts_us) / 1e6
    raw = res["score"].to_numpy() * np.power(2.0, -age_s / 256.0)
    ids = _docid_of_external(exts)
    order = np.lexsort((ids, -raw))[:10]
    return pa.table({"doc_id": pa.array(ids[order]),
                     "score": pa.array(round6(raw[order]))})


# The multi-query DISTRIBUTED path under ClassicSimilarity — the
# same per-salt zero-shuffle machinery as ``bm25_batch_distributed``
# with the TF-IDF kernel (``bm25_batch_search(model=TFIDFModel())``),
# against a per-query UNION ALL of the single-query TF-IDF oracle.
_batch_entry("tfidf_batch_distributed", "bm25_batch_search",
             [(qid, " ".join(terms)) for qid, terms in BATCH_BM25_QUERIES],
             "\nunion all\n".join(
                 f"select '{qid}' as qid, * from ({_tfidf_sql(terms, 10)})"
                 for qid, terms in BATCH_BM25_QUERIES),
             model=TFIDFModel(), k=10)


# the deterministic ts mapping (corpus.documents_to_pages_batch:
# ts_us = base + doc_id*1e6) makes age_s = n_docs - doc_id in SQL
oracle(q_time_decay_top10, f"""
with bm as (select doc_id, raw from (
  {_bm25_sql(BM25_QUERY_TERMS, 100, raw=True)}
)),
n as (select count(*)::double as nn from documents),
blended as (
  select doc_id, bm.raw * pow(2.0, -((n.nn - doc_id) / 256.0)) as raw
  from bm, n)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
from blended order by raw desc, doc_id asc limit 10
""")


@entry
def q_rrf_fusion_top10(sf_dir: str):
    """Hybrid retrieval: BM25 top-50 over ``documents`` fused with
    embedding-cosine top-50 over ``embeddings`` (query vector =
    vec_id 0's embedding, as in ``ann_cosine_top10``) by Reciprocal
    Rank Fusion, ``Σ 1/(60 + rank)`` (``query.fusion.rrf_fuse``).
    Cosine scores are 6-dp rounded BEFORE ranking on both sides so
    rank assignment is reduction-order independent; BM25 ranks come
    from the raw engine ordering (score desc, externalId asc) exactly
    as every BM25 oracle's."""
    import ray.data as rd
    from ..functions.similarity import ann_cosine_topk
    from ..query.fusion import rrf_fuse
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    lex = engine.search(BM25_QUERY, k=50)
    lex_ids = _docid_of_external(lex["external_id"].to_pylist())

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    ann = ann_cosine_topk(ds, qvec, k=50, dtype=np.float64).to_pandas()
    ann["r6"] = np.floor(ann["score"].to_numpy() * 1e6 + 0.5) / 1e6
    ann = ann.sort_values(["r6", "vec_id"], ascending=[False, True],
                          kind="mergesort")
    fused = rrf_fuse([lex_ids, ann["vec_id"].to_numpy()], k0=60.0, k=10)
    return pa.table({"doc_id": fused["doc_id"],
                     "score": pa.array(round6(fused["score"].to_numpy()))})


oracle(q_rrf_fusion_top10, f"""
with bm as (
  select doc_id, row_number() over (order by raw desc, doc_id asc) as r
  from ( {_bm25_sql(BM25_QUERY_TERMS, 50, raw=True)} )),
q as (select embedding::DOUBLE[] as qv from embeddings where vec_id = 0),
csim as (
  select vec_id as doc_id,
         floor(list_cosine_similarity(embedding::DOUBLE[], q.qv)*1000000
               + 0.5)/1000000 as c6
  from embeddings, q),
ann as (
  select doc_id, row_number() over (order by c6 desc, doc_id asc) as r
  from csim order by c6 desc, doc_id asc limit 50),
fused as (
  select coalesce(bm.doc_id, ann.doc_id) as doc_id,
         coalesce(1.0/(60.0 + bm.r), 0) + coalesce(1.0/(60.0 + ann.r), 0)
           as raw
  from bm full outer join ann on bm.doc_id = ann.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
from fused order by raw desc, doc_id asc limit 10
""")


@entry
def q_mmr_rerank(sf_dir: str):
    """Embedding-space MMR diversification (λ=0.7, top-5 of the cosine
    top-20 for vec 0's embedding) — ``similarity.mmr_rerank``. The
    oracle unrolls the 5 greedy steps as CTEs (the HITS pattern);
    rel/sims are 6-dp rounded before the loop and the penalty
    coefficient is written ``(1.0-0.7)`` on both sides so every float
    comparison is bit-identical."""
    import ray.data as rd
    from ..functions.similarity import mmr_rerank
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return mmr_rerank(ds, qvec, k=5, lambda_=0.7, cand_k=20)


def _mmr_step(i: int) -> str:
    """CTEs for greedy step i ≥ 2: score remaining candidates against
    sel{i-1}, pick the max (sc desc, vec_id asc), extend the set."""
    return f"""
m{i} as (select c.vec_id, 0.7*c.r6 - (1.0-0.7)*(
           select max(s.s6) from sims s
           where s.a = c.vec_id
             and s.b in (select vec_id from sel{i-1})) as sc
         from cand c
         where c.vec_id not in (select vec_id from sel{i-1})),
s{i} as (select vec_id, sc from m{i} order by sc desc, vec_id asc limit 1),
sel{i} as (select vec_id from sel{i-1} union all select vec_id from s{i})"""


oracle(q_mmr_rerank, f"""
with q as (select embedding::DOUBLE[] as qv from embeddings
           where vec_id = 0),
c0 as (select vec_id,
              floor(list_cosine_similarity(embedding::DOUBLE[], q.qv)
                    *1000000 + 0.5)/1000000 as r6,
              embedding::DOUBLE[] as v
       from embeddings, q),
cand as (select * from c0 order by r6 desc, vec_id asc limit 20),
sims as (select a.vec_id as a, b.vec_id as b,
                floor(list_cosine_similarity(a.v, b.v)*1000000
                      + 0.5)/1000000 as s6
         from cand a join cand b on a.vec_id <> b.vec_id),
s1 as (select vec_id, 0.7*r6 as sc from cand
       order by r6 desc, vec_id asc limit 1),
sel1 as (select vec_id from s1),{_mmr_step(2)},{_mmr_step(3)},{_mmr_step(4)},{_mmr_step(5)}
select rank, vec_id, floor(sc*1000000 + 0.5)/1000000 as score from (
  select 1::bigint as rank, vec_id, sc from s1
  union all select 2::bigint, vec_id, sc from s2
  union all select 3::bigint, vec_id, sc from s3
  union all select 4::bigint, vec_id, sc from s4
  union all select 5::bigint, vec_id, sc from s5)
order by rank
""")


@entry
def q_combsum_fusion(sf_dir: str):
    """Score-based hybrid fusion (Fox & Shaw CombSUM/CombMNZ): the same
    BM25 top-50 + embedding-cosine top-50 inputs as ``rrf_fusion_top10``
    but fused on min-max-normalized SCORES — sum, and sum × systems-hit
    (MNZ) — instead of ranks (``query.fusion.combsum_fuse``). Both
    sides' raw scores are 6-dp rounded BEFORE normalization so the
    min-max inputs are bit-identical to the oracle's; the fused score
    rounds to 6 dp at the end like every ranked oracle. Returns both
    methods as (method, doc_id, score) rows."""
    import ray.data as rd
    from ..functions.similarity import ann_cosine_topk
    from ..functions.text import round6
    from ..query.fusion import combsum_fuse
    reader = _simple_index(sf_dir)
    engine = QueryEngine(reader, _BM25)
    lex = engine.search(BM25_QUERY, k=50)
    lex_ids = _docid_of_external(lex["external_id"].to_pylist())
    lex_s6 = round6(lex["score"].to_numpy())

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    # the oracle cuts the ANN top-50 on the 6-dp-ROUNDED score (order by
    # s6 desc, vec_id asc limit 50) while ann_cosine_topk cuts on the
    # raw float64 cosine — over-fetch and re-cut on (r6, id) so a
    # rounded tie straddling the k boundary selects the same candidate
    # set (and therefore the same min-max normalization min) on both
    # sides (ADVICE r4). The fetch is TIE-GROUP-COMPLETE, not a fixed
    # buffer: rounding is monotone, so once the smallest fetched r6 is
    # strictly below the boundary value every unfetched row is too —
    # grow the fetch until that holds (or the corpus is exhausted)
    kk, n_total = 58, t.num_rows
    while True:
        ann = ann_cosine_topk(ds, qvec, k=kk, dtype=np.float64).to_pandas()
        ann["r6"] = round6(ann["score"].to_numpy())
        cut = ann.sort_values(["r6", "vec_id"], ascending=[False, True],
                              kind="mergesort").head(50)
        if len(ann) < kk or kk >= n_total or len(ann) <= 50 \
                or float(ann["r6"].min()) < float(cut["r6"].iloc[-1]):
            ann = cut
            break
        kk = min(kk * 4, n_total)
    ann_s6 = ann["r6"].to_numpy()
    systems = [(lex_ids, lex_s6), (ann["vec_id"].to_numpy(), ann_s6)]

    out = []
    for method, mnz in (("combsum", False), ("combmnz", True)):
        f = combsum_fuse(systems, k=10, mnz=mnz)
        out.append(pa.table({
            "method": pa.array([method] * f.num_rows),
            "doc_id": f["doc_id"],
            "score": pa.array(round6(f["score"].to_numpy()))}))
    return pa.concat_tables(out)


oracle(q_combsum_fusion, f"""
with bm as (
  select doc_id, floor(raw*1000000 + 0.5)/1000000 as s6
  from ( {_bm25_sql(BM25_QUERY_TERMS, 50, raw=True)} ) limit 50),
bmn as (
  select doc_id, case when max(s6) over () = min(s6) over () then 1.0
    else (s6 - min(s6) over ()) / (max(s6) over () - min(s6) over ())
    end as nv
  from bm),
q as (select embedding::DOUBLE[] as qv from embeddings where vec_id = 0),
csim as (
  select vec_id as doc_id,
         floor(list_cosine_similarity(embedding::DOUBLE[], q.qv)*1000000
               + 0.5)/1000000 as s6
  from embeddings, q),
ann as (select doc_id, s6 from csim order by s6 desc, doc_id asc limit 50),
annn as (
  select doc_id, case when max(s6) over () = min(s6) over () then 1.0
    else (s6 - min(s6) over ()) / (max(s6) over () - min(s6) over ())
    end as nv
  from ann),
fused as (
  select coalesce(b.doc_id, a.doc_id) as doc_id,
         coalesce(b.nv, 0) + coalesce(a.nv, 0) as ssum,
         (case when b.doc_id is null then 0 else 1 end
          + case when a.doc_id is null then 0 else 1 end) as nhit
  from bmn b full outer join annn a on b.doc_id = a.doc_id),
sum10 as (
  select 'combsum' as method, doc_id,
         floor(ssum*1000000 + 0.5)/1000000 as score
  from fused order by ssum desc, doc_id asc limit 10),
mnz10 as (
  select 'combmnz' as method, doc_id,
         floor(ssum*nhit*1000000 + 0.5)/1000000 as score
  from fused order by ssum*nhit desc, doc_id asc limit 10)
select * from sum10 union all select * from mnz10
""")


# engine positions are 0-based (pos < 10) — POS_TOK_SQL's
# generate_subscripts is 1-based, hence pos <= 10
# Lucene SpanFirstQuery: ``#FIRST/10(dup)`` keeps only the 'dup'
# occurrences among a doc's first 10 token positions — a derived Iop
# (df/ctf recomputed from survivors) scored under BM25 #SUM next to
# a plain term, so lead-paragraph matches rank while deep-body ones
# drop out of the derived leaf entirely.
_search_entry("span_first_search", _simple_index, _BM25,
              "#sum(#first/10(dup) line)", 10, f"""
{_bm25_prologue(pos=True)},
ftf as (select doc_id, count(*)::double as tf from tok
        where term = 'dup' and pos <= 10 group by doc_id),
fdf as (select count(*)::double as df from ftf),
ltf as (select doc_id, count(*)::double as tf from tok
        where term = 'line' group by doc_id),
ldf as (select count(*)::double as df from ltf),
fsc as (
  select ftf.doc_id,
         {_idf_sql('stats.n', 'fdf.df')}
         * {_tfw_sql('ftf.tf', 'doclen.dl', 'stats')} as s
  from ftf join doclen using (doc_id) cross join stats cross join fdf),
lsc as (
  select ltf.doc_id,
         {_idf_sql('stats.n', 'ldf.df')}
         * {_tfw_sql('ltf.tf', 'doclen.dl', 'stats')} as s
  from ltf join doclen using (doc_id) cross join stats cross join ldf),
scored as (
  select coalesce(f.doc_id, l.doc_id) as doc_id,
         coalesce(f.s, 0.0) + coalesce(l.s, 0.0) as raw
  from fsc f full outer join lsc l on f.doc_id = l.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
""")


# two raw BM25 clause scores (no top-k cut inside: k = corpus bound),
# dismax-combined with tie 0.30
# Lucene DisjunctionMaxQuery: ``#DISMAX/30(#sum(dup line)
# #sum(hash sort))`` scores each doc max(clause scores) + 0.30 × the
# rest — the best-fields combiner (Solr defType=dismax), here over
# two BM25 #SUM clauses.
_search_entry("dismax_search", _simple_index, _BM25,
              "#dismax/30(#sum(dup line) #sum(hash sort))", 10, f"""
with a as (select doc_id, raw from (
  {_bm25_sql(("dup", "line"), 1000000000, raw=True)}
)),
b as (select doc_id, raw from (
  {_bm25_sql(("hash", "sort"), 1000000000, raw=True)}
)),
scored as (
  select coalesce(a.doc_id, b.doc_id) as doc_id,
         greatest(coalesce(a.raw, 0.0), coalesce(b.raw, 0.0))
         + 0.30 * (coalesce(a.raw, 0.0) + coalesce(b.raw, 0.0)
                   - greatest(coalesce(a.raw, 0.0), coalesce(b.raw, 0.0)))
           as raw
  from a full outer join b on a.doc_id = b.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score from scored
order by raw desc, doc_id asc limit 10
""")


@entry
def q_ann_filtered_top10(sf_dir: str):
    """Pre-filtered vector search (Elasticsearch knn ``filter`` /
    Qdrant payload filter): exact cosine top-10 restricted to
    ``label = 1`` vectors. The predicate pushes to the parquet READ
    (row-group stats prune), so the ANN kernel never materializes an
    excluded vector; the query vector (vec_id 0, as in
    ``ann_cosine_top10``) is independent of the filter."""
    import pyarrow.compute as pc_
    import ray.data as rd
    from ..functions.similarity import ann_cosine_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"],
                         filter=pc_.field("label") == 1)
    out = ann_cosine_topk(ds, qvec, k=10, dtype=np.float64).to_pandas()
    out = out.sort_values(["score", "vec_id"], ascending=[False, True],
                          kind="mergesort")
    return pa.table({
        "vec_id": pa.array(out["vec_id"].to_numpy(), pa.int64()),
        "score": pa.array(round6(out["score"].to_numpy())),
    })


oracle(q_ann_filtered_top10, """
with q as (select embedding::DOUBLE[] as qv from embeddings where vec_id = 0)
select vec_id,
       floor(list_cosine_similarity(embedding::DOUBLE[], q.qv)*1000000 + 0.5)/1000000
         as score
from embeddings, q
where label = 1
order by list_cosine_similarity(embedding::DOUBLE[], q.qv) desc, vec_id asc
limit 10
""")


@entry
def q_date_histogram(sf_dir: str):
    """Elasticsearch ``date_histogram``: minute-bucket doc counts of
    the crawl timestamp doc-value, one column-pruned distributed pass
    over the forward plane with per-batch partials
    (``inspect.attribute_histogram``)."""
    from ..index.inspect import attribute_histogram
    reader = _docvalues_index(sf_dir)
    return attribute_histogram(reader.index_dir, "ts",
                               bucket_us=60_000_000)


@entry
def q_attr_terms_agg(sf_dir: str):
    """Elasticsearch ``terms`` aggregation over the ``lang`` doc-value
    (``inspect.attribute_value_counts``): value → doc count, one
    column-pruned pass over the forward plane."""
    from ..index.inspect import attribute_value_counts
    reader = _docvalues_index(sf_dir)
    return attribute_value_counts(reader.index_dir, "lang")


oracle(q_attr_terms_agg, """
select lang as value, count(*)::bigint as n_docs
from documents group by lang order by lang
""")


# the deterministic doc_id→ts map: ts_us = base + doc_id*1e6
oracle(q_date_histogram, f"""
select (({_TS_BASE_US} + doc_id*1000000) // 60000000)::bigint as bucket,
       count(*)::bigint as n_docs
from documents group by 1 order by 1
""")


@entry
def q_date_histogram_cumulative(sf_dir: str):
    """ES pipeline aggregation (``cumulative_sum`` over a
    ``date_histogram``): the minute-bucket counts from the distributed
    forward-plane pass, then the running total — a driver-side cumsum
    over the bucket-sized result (pipeline aggs post-process the
    parent agg's buckets; they never touch the corpus)."""
    from ..index.inspect import attribute_histogram
    reader = _docvalues_index(sf_dir)
    t = attribute_histogram(reader.index_dir, "ts",
                            bucket_us=60_000_000)
    if hasattr(t, "to_pandas"):
        t = t.to_pandas()
    t = t.sort_values("bucket", ignore_index=True)
    t["cum_docs"] = t["n_docs"].cumsum().astype(np.int64)
    return pa.table({"bucket": pa.array(t["bucket"], pa.int64()),
                     "n_docs": pa.array(t["n_docs"], pa.int64()),
                     "cum_docs": pa.array(t["cum_docs"], pa.int64())})


oracle(q_date_histogram_cumulative, f"""
with h as (
  select (({_TS_BASE_US} + doc_id*1000000) // 60000000)::bigint as bucket,
         count(*)::bigint as n_docs
  from documents group by 1)
select bucket, n_docs,
       (sum(n_docs) over (order by bucket))::bigint as cum_docs
from h order by bucket
""")


# INDEX-TIME synonyms (Lucene SynonymFilter, posIncrement=0; the
# build-plane twin of the query-time ``synonym_search``): the index is
# built with ``index_synonyms={'dup': ['duplicate']}``, so every 'dup'
# occurrence also indexes 'duplicate' at the same position — field
# length unchanged, tf/df grow. A plain ``duplicate line`` BM25 query
# then reaches the 'dup' docs with no query rewrite. The oracle's token
# stream carries the synonym at the same positions; doclen and corpus
# stats stay on the PLAIN stream (field length unchanged).
_search_entry("index_synonym_search", _synonym_index, _BM25, "duplicate line",
              10, f"""
with {_tok_cte()},
stok as (
  select doc_id, term from tok
  union all
  select doc_id, 'duplicate' as term from tok where term = 'dup'),
{_doclen_cte()},
{_stats_cte()},
tfs as (select doc_id, term, count(*)::double as tf from stok
        where term in ('duplicate','line') group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select tfs.doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')}) as raw
  from tfs join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats group by tfs.doc_id)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
from scored order by raw desc, doc_id asc limit 10
""")


@entry
def q_bigram_perplexity(sf_dir: str):
    """CCNet-style quality filter one LM order up: per-doc mean
    per-bigram surprisal (log2 bigram perplexity) under a corpus-fit
    Laplace bigram LM, integer-grid quantized per bigram
    (``text.bigram_lm_perplexity``)."""
    import ray.data as rd
    from ..functions.text import bigram_lm_perplexity
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = bigram_lm_perplexity(ds).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


oracle(q_bigram_perplexity, f"""
with tok as ({POS_TOK_SQL}),
big as (
  select a.doc_id, a.term as w1, b.term as w2
  from tok a join tok b on a.doc_id = b.doc_id and b.pos = a.pos + 1),
bc as (select w1, w2, count(*)::bigint as c from big group by w1, w2),
c1 as (select w1, sum(c)::bigint as c from bc group by w1),
v as (select count(distinct term)::double as v from tok),
lp as (select bc.w1, bc.w2,
       floor(-log2((bc.c + 1.0)/(c1.c + v.v)) * 10000 + 0.5)::bigint as q
       from bc join c1 using (w1) cross join v),
doc as (select big.doc_id, sum(lp.q)::bigint as total,
               count(*)::bigint as nb
        from big join lp on big.w1 = lp.w1 and big.w2 = lp.w2
        group by big.doc_id)
select doc_id, nb as n_bigrams,
       floor((total/(nb*10000.0))*1000000 + 0.5)/1000000 as bits
from doc order by doc_id
""")


@entry
def q_label_centroids(sf_dir: str):
    """Per-label element-wise embedding centroids (cluster statistics):
    1e-6 integer-grid quantized components, per-batch (label, dim)
    partial sums, one tiny groupby (``similarity.label_centroids``)."""
    import ray.data as rd
    from ..functions.similarity import label_centroids
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["embedding", "label"])
    return label_centroids(ds)


oracle(q_label_centroids, """
with ex as (
  select label::bigint as label, unnest(embedding)::double as v,
         generate_subscripts(embedding, 1)::bigint as dim
  from embeddings)
select label, dim,
       floor((sum(floor(v*1000000 + 0.5)::bigint) / (count(*)*1000000.0))
             *1000000 + 0.5)/1000000 as mean
from ex group by label, dim order by label, dim
""")


@entry
def q_dense_prf_top10(sf_dir: str):
    """Dense pseudo-relevance feedback (Rocchio in embedding space —
    the ANN twin of the Indri PRF pipeline): round 1 retrieves the
    cosine top-10 for the vec-0 query, the feedback vector is their
    element-wise mean on the 1e-6 integer grid (associative, mirrored
    literally in SQL), round 2 re-searches with it. Both rounds are
    the broadcast-query distributed kernel; only 10 ids + one vector
    cross the driver between rounds."""
    import pyarrow.compute as pc_
    import ray.data as rd
    from ..functions.similarity import ann_cosine_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    qvec = np.asarray(t["embedding"][0].as_py(), dtype=np.float64)[None, :]
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    r1 = ann_cosine_topk(ds, qvec, k=10, dtype=np.float64).to_pandas()
    r1["c6"] = np.floor(r1["score"].to_numpy() * 1e6 + 0.5) / 1e6
    r1 = r1.sort_values(["c6", "vec_id"], ascending=[False, True],
                        kind="mergesort").head(10)
    sel = sorted(int(i) for i in r1["vec_id"])
    # feedback centroid: pruned read of the 10 vectors, integer-grid mean
    fb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=pc_.field("vec_id").isin(sel))
    m = np.asarray(fb["embedding"].to_pylist(), dtype=np.float64)
    q1 = (np.floor(m * 1e6 + 0.5).astype(np.int64).sum(axis=0)
          / (len(sel) * 1e6))[None, :]
    r2 = ann_cosine_topk(ds, q1, k=10, dtype=np.float64).to_pandas()
    r2 = r2.sort_values(["score", "vec_id"], ascending=[False, True],
                        kind="mergesort")
    return pa.table({
        "vec_id": pa.array(r2["vec_id"].to_numpy(), pa.int64()),
        "score": pa.array(round6(r2["score"].to_numpy())),
    })


oracle(q_dense_prf_top10, """
with q0 as (select embedding::DOUBLE[] as qv from embeddings where vec_id = 0),
c1 as (
  select vec_id,
         floor(list_cosine_similarity(embedding::DOUBLE[], q0.qv)*1000000
               + 0.5)/1000000 as c6
  from embeddings, q0),
sel as (select vec_id from c1 order by c6 desc, vec_id asc limit 10),
ex as (
  select generate_subscripts(e.embedding, 1) as dim,
         unnest(e.embedding)::double as v
  from embeddings e join sel using (vec_id)),
q1 as (
  select list(s order by dim) as qv from (
    select dim, sum(floor(v*1000000 + 0.5)::bigint) / 10000000.0 as s
    from ex group by dim))
select vec_id,
       floor(list_cosine_similarity(embedding::DOUBLE[], q1.qv)*1000000
             + 0.5)/1000000 as score
from embeddings, q1
order by list_cosine_similarity(embedding::DOUBLE[], q1.qv) desc,
         vec_id asc
limit 10
""")


@entry
def q_rbo_runs(sf_dir: str):
    """Rank-biased overlap (Webber et al. TOIS'10) between two BM25
    parameterizations' top-10 (k1=1.2 vs k1=2.0) — the top-weighted
    run-diff metric; → per-depth (d, overlap, contrib) rows whose sum
    is RBO@10 (``metrics.rank_biased_overlap``)."""
    reader = _simple_index(sf_dir)
    q = BM25_QUERY
    a = QueryEngine(reader, _BM25) \
        .search(q, k=10)["external_id"].to_pylist()
    b = QueryEngine(reader, BM25Model(k1=2.0, b=0.75)) \
        .search(q, k=10)["external_id"].to_pylist()
    p, rows = 0.9, []
    sa: set = set()
    sb: set = set()
    for d in range(1, 11):
        if d <= len(a):
            sa.add(a[d - 1])
        if d <= len(b):
            sb.add(b[d - 1])
        c = len(sa & sb)
        rows.append((d, c, (1.0 - p) * p ** (d - 1) * c / d))
    return pa.table({
        "d": pa.array([r[0] for r in rows], pa.int64()),
        "overlap": pa.array([r[1] for r in rows], pa.int64()),
        "contrib": pa.array(round6([r[2] for r in rows])),
    })


oracle(q_rbo_runs, f"""
with a as (
  select doc_id, row_number() over (order by raw desc, doc_id asc) as r
  from ( {_bm25_sql(BM25_QUERY_TERMS, 10, raw=True)} )),
b as (
  select doc_id, row_number() over (order by raw desc, doc_id asc) as r
  from ( {_bm25_sql(BM25_QUERY_TERMS, 10, raw=True, k1=2.0)} )),
depths as (select unnest(range(1, 11))::bigint as d),
ov as (
  select depths.d,
         (select count(*) from a join b using (doc_id)
          where a.r <= depths.d and b.r <= depths.d)::bigint as overlap
  from depths)
select d, overlap,
       floor(((1.0-0.9) * pow(0.9, d-1) * overlap / d)*1000000 + 0.5)
         /1000000 as contrib
from ov order by d
""")


def _attr_updated_index(sf_dir: str) -> IndexReader:
    """The doc-values index with every ``doc_id % 10 == 0`` doc's
    crawl-ts bumped 10M seconds by ``merge.update_attributes``."""
    import datetime
    from ..index.merge import update_attributes
    from .corpus import doc_url
    src = _docvalues_index(sf_dir)

    def make(path: str) -> None:
        epoch = datetime.datetime(1970, 1, 1)
        vals = {doc_url(i): epoch + datetime.timedelta(
                    microseconds=_TS_BASE_US + (i + 10_000_000) * 1_000_000)
                for i in range(0, src.n_docs, 10)}
        update_attributes(src.index_dir, path, "ts", vals)
    return _derived_index(sf_dir, "attrupd", "simple_attrupd", make)


# Updatable doc-values (Lucene updateDocValues —
# ``merge.update_attributes``): every ``doc_id % 10 == 0`` doc's
# crawl-ts doc-value is bumped far into the future WITHOUT reindex
# (forward-plane column rewrite, postings bytes untouched); the
# [ts(10), ts(300)) range query then excludes the bumped docs while
# corpus stats stay as-built.
_ts_range_entry("attr_update_range_top10", _attr_updated_index, _bm25_sql(
    BM25_QUERY_TERMS, 10,
    doc_filter="tfs.doc_id in (select doc_id from documents "
               "where doc_id >= 10 and doc_id < 300 and doc_id % 10 <> 0)"))


@entry
def q_maxsim_top10(sf_dir: str):
    """ColBERT-style late interaction over multi-vector documents:
    pseudo-docs bag 5 consecutive vectors (``vec_id // 5``), the query
    bag is doc 0's vectors, score(doc) = Σ_q max_v cos(q, v)
    (``similarity.maxsim_topk`` — per-batch (doc, q)-max partials,
    associative max merge, integer-grid Σ)."""
    import ray.data as rd
    from ..functions.similarity import maxsim_topk
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    qm = np.asarray(t["embedding"][:5].to_pylist(), dtype=np.float64)

    def add_doc(b: pa.Table) -> pa.Table:
        vid = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.append_column("doc_id",
                               pa.array((vid // 5).astype(np.int64)))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"]) \
        .map_batches(add_doc, batch_format="pyarrow")
    return maxsim_topk(ds, qm, k=10)


oracle(q_maxsim_top10, """
with q as (select vec_id as qi, embedding::DOUBLE[] as qv
           from embeddings where vec_id < 5),
sims as (
  select e.vec_id // 5 as doc_id, q.qi,
         max(list_cosine_similarity(e.embedding::DOUBLE[], q.qv)) as mx
  from embeddings e, q group by 1, 2),
agg as (select doc_id, sum(floor(mx*1000000 + 0.5)::bigint) as s6
        from sims group by doc_id)
select doc_id, s6/1000000.0 as score
from agg order by s6 desc, doc_id asc limit 10
""")


def _get_upserted_index(sf_dir: str) -> IndexReader:
    """Update-by-url lifecycle (``merge.upsert_docs``): every
    ``doc_id % 7 == 0`` doc gets a refreshed text (three appended
    ``freshness`` tokens), every ``doc_id % 11 == 3`` doc spawns a
    brand-new page (id + 10M, ``brand new page`` prefix); the segment
    indexes alone, folds into the main index by metadata merge, and
    the stale main versions tombstone."""
    import shutil
    from ..index.merge import upsert_docs
    from .corpus import documents_to_pages_batch

    def make(path: str) -> None:
        import ray.data as rd
        shutil.rmtree(path + ".seg", ignore_errors=True)
        main = _simple_index(sf_dir)

        def upd_fn(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_pylist()
            texts = b["text"].to_pylist()
            langs = b["lang"].to_pylist()
            out_ids, out_txt, out_lang = [], [], []
            for i, t, lg in zip(ids, texts, langs):
                if i % 7 == 0:
                    out_ids.append(i)
                    out_txt.append((t or "") + " freshness freshness"
                                   " freshness")
                    out_lang.append(lg)
                if i % 11 == 3:
                    out_ids.append(i + 10_000_000)
                    out_txt.append("brand new page " + (t or ""))
                    out_lang.append(lg)
            return documents_to_pages_batch(pa.table({
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_txt, pa.string()),
                "lang": pa.array(out_lang, pa.string())}))

        seg = rd.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text", "lang"]) \
            .map_batches(upd_fn, batch_format="pyarrow")
        upsert_docs(main.index_dir, seg, path,
                    _build_cfg(docid_partitions=4),
                    input_token=f"{sf_dir}|upseg")
    return _derived_index(sf_dir, "upsert", "simple_upserted", make,
                          done="deletes.json")


# BM25 over the UPSERTED index — latest-version-wins: updated urls
# score from the segment postings only (stale main versions are
# tombstoned), new urls appear, stats stay as-built across old+new
# versions (deletes-until-merge freshness, like
# ``bm25_deleted_top10``).
# The oracle's corpus is the one the merged index sees: every original
# row, plus the segment (updated versions at id+20M — an oracle-internal
# alias that maps back to the original id, since the url is unchanged —
# and new docs at id+10M, their real external id). Stale originals are
# tombstone-filtered AFTER scoring; stats/df stay as-built over the
# union, mirroring deletes-until-merge.
_search_entry("bm25_upsert_top10", _get_upserted_index, _BM25, BM25_QUERY, 10,
              f"""
with udocs as (
  select doc_id, text from documents
  union all
  select doc_id + 20000000, text || ' freshness freshness freshness'
  from documents where doc_id % 7 = 0
  union all
  select doc_id + 10000000, 'brand new page ' || text
  from documents where doc_id % 11 = 3),
tok as (
  select doc_id, unnest({SIMPLE_TOKS_SQL}) as term from udocs),
{_doclen_cte()},
{_stats_cte(docs='udocs')},
tfs as (select doc_id, term, count(*)::double as tf from tok
        where term in ({",".join(f"'{t}'" for t in BM25_QUERY_TERMS)})
        group by doc_id, term),
dfs as (select term, count(*)::double as df from tfs group by term),
scored as (
  select case when tfs.doc_id >= 20000000 then tfs.doc_id - 20000000
              else tfs.doc_id end as doc_id,
         sum({_idf_sql('stats.n', 'dfs.df')}
             * {_tfw_sql('tfs.tf', 'doclen.dl', 'stats')}) as raw
  from tfs
  join dfs on tfs.term = dfs.term
  join doclen on tfs.doc_id = doclen.doc_id
  cross join stats
  where not (tfs.doc_id % 7 = 0 and tfs.doc_id < 10000000)
  group by 1)
select doc_id, floor(raw*1000000 + 0.5)/1000000 as score
from scored order by raw desc, doc_id asc limit 10
""")


