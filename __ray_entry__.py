"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()`` — flagship pipeline at sf0.001: build the inverted index
  (full analyzer chain) over the pages derived from ``documents``, then
  run a mixed BM25 + structured query batch; returns the ranked-results
  table (qid, external_id, rank, score).
- ``queries()`` / ``oracle_sql()`` — one entry per implemented operator
  (SURVEY.md §2 + training-data ops); oracle-checked entries use the
  simple (SQL-reproducible) analyzer, rows-only entries exercise the
  full engine and are covered by the pytest oracle suite instead. Both
  are copies of the registry ``pipelines/driver_queries.py`` fills as
  it declares each entry (``@entry`` / the entry builders, and
  ``oracle``).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from search_engines_ray.pipelines.driver_queries import get_index
    from search_engines_ray.query.eval import QueryEngine
    from search_engines_ray.query.models import BM25Model, IndriModel

    sf_dir = "/root/testdata/sf0.001"
    reader = get_index(sf_dir, "lucene")
    bm25 = QueryEngine(reader, BM25Model(k1=1.2, b=0.75))
    indri = QueryEngine(reader, IndriModel(mu=2500, lambda_=0.4))
    out = bm25.run_queries([
        ("q1", "fast sort merge"),
        ("q2", "hash join table"),
        ("q3", "#sum(#near/2(fast sort) scan)"),
    ], k=100)
    out2 = indri.run_queries([
        ("q4", "#wand( 0.7 #and( fast sort ) 0.3 #and( #near/1( fast sort ) ) )"),
    ], k=100)
    import pyarrow as pa
    return pa.concat_tables([out, out2])


def queries() -> dict[str, Callable[[str], Any]]:
    from search_engines_ray.pipelines.driver_queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from search_engines_ray.pipelines.driver_queries import ORACLE_SQL
    return dict(ORACLE_SQL)
