"""Mimic the grading driver: run every queries() entry at sf0.001 and
compare oracle-checked ones against DuckDB (row count, column names,
order-insensitive values)."""

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as m
    return m


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "embeddings", "events", "lineitem", "orders",
              "customer", "supplier", "part", "nation", "region"):
        c.sql(f"create view {t} as select * from "
              f"read_parquet('{SF_DIR}/{t}.parquet')")
    return c


def _to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    raise TypeError(type(obj))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(lambda v: tuple(v))
    return df.sort_values(list(df.columns), ignore_index=True)


def test_entry_smoke(entry_mod):
    res = entry_mod.entry()
    df = _to_pandas(res)
    assert len(df) > 0
    assert {"qid", "external_id", "rank", "score"} <= set(df.columns)


def test_all_queries_run(entry_mod):
    """Every registry entry runs: the rows-only ones here, the
    oracle-checked ones in test_oracle_match."""
    qs = entry_mod.queries()
    assert len(qs) >= 20
    sql = entry_mod.oracle_sql()
    assert set(sql) <= set(qs)
    for name, fn in qs.items():
        if name in sql:
            continue
        out = _to_pandas(fn(SF_DIR))
        assert len(out) >= 0, name


def _oracle_names():
    # collect-time: oracle_sql() is a pure dict of SQL strings (no Ray)
    import __ray_entry__ as m
    return sorted(m.oracle_sql())


@pytest.mark.parametrize("name", _oracle_names())
def test_oracle_match(entry_mod, con, name):
    ray_out = _canon(_to_pandas(entry_mod.queries()[name](SF_DIR)))
    sql_out = _canon(con.sql(entry_mod.oracle_sql()[name]).df())
    assert list(ray_out.columns) == list(sql_out.columns), name
    assert len(ray_out) == len(sql_out), name
    for c in ray_out.columns:
        a, b = ray_out[c].to_numpy(), sql_out[c].to_numpy()
        if np.issubdtype(ray_out[c].dtype, np.floating):
            np.testing.assert_array_equal(a, b, err_msg=f"{name}.{c}")
        else:
            assert (a == b).all(), f"{name}.{c}: {a[:5]} vs {b[:5]}"


# ------------------------------------------------- registry guards (no Ray)

def test_every_entry_function_is_registered():
    from search_engines_ray.pipelines import driver_queries as dq
    fns = {n: f for n, f in vars(dq).items()
           if n.startswith("q_") and callable(f)}
    assert fns
    for n, f in fns.items():
        assert dq.QUERIES.get(n.removeprefix("q_")) is f, n


def test_registry_refuses_a_name_twice():
    from search_engines_ray.pipelines import driver_queries as dq
    before = (dict(dq.QUERIES), dict(dq.ORACLE_SQL))

    def q_index_bm25_top10(sf_dir):
        return None

    with pytest.raises(ValueError):
        dq.entry(q_index_bm25_top10)
    with pytest.raises(ValueError):
        dq.oracle(dq.QUERIES["index_bm25_top10"], "select 1")
    with pytest.raises(ValueError):     # not the registered function
        dq.oracle(q_index_bm25_top10, "select 1")
    assert (dq.QUERIES, dq.ORACLE_SQL) == before


def test_oracle_keys_are_entries():
    import __ray_entry__ as m
    assert set(m.oracle_sql()) <= set(m.queries())


def test_sql_fragments_match_the_engine_kernels():
    """The oracle SQL's one spelling of the BM25 idf, the BM25 tf weight
    and the Indri leaf, evaluated by DuckDB over a parameter grid, equals
    ``query.kernels`` within 1e-12 relative — the idf clamp (df > N/2,
    df = 0) and b = 0 / b = 1 included."""
    from search_engines_ray.pipelines import driver_queries as dq
    from search_engines_ray.query import kernels

    c = duckdb.connect()
    grid = pd.DataFrame([(float(n), float(df)) for n in (1, 2, 7, 1000)
                         for df in sorted({0, 1, n // 2, n // 2 + 1,
                                           n - 1, n})],
                        columns=["n", "df"])
    c.register("g", grid)
    got = c.sql(f"select {dq._idf_sql('g.n', 'g.df')} as v from g") \
        .df()["v"].to_numpy()
    want = [kernels.bm25_idf(n, df) for n, df in zip(grid["n"], grid["df"])]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert (got == 0).any() and (got > 0).any()

    cells = pd.DataFrame(
        [(float(tf), float(dl), float(suml), float(dc))
         for tf in (1, 2, 5, 40) for dl in (1, 7, 300)
         for suml, dc in ((1000, 100), (37, 5), (12345, 7))],
        columns=["tf", "dl", "suml", "dc"])
    c.register("t", cells)
    for k1 in (0.9, 1.2, 2.0):
        for b in (0.0, 0.3, 0.75, 1.0):
            got = c.sql(f"select {dq._tfw_sql('t.tf', 't.dl', 't', k1, b)}"
                        f" as v from t").df()["v"].to_numpy()
            want = kernels.bm25_tfw(cells["tf"].to_numpy(),
                                    cells["dl"].to_numpy(), k1, b,
                                    (cells["suml"] / cells["dc"]).to_numpy())
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    leaf = pd.DataFrame([(float(tf), float(ctf), float(dl))
                         for tf in (0, 1, 4) for ctf in (1, 50)
                         for dl in (0, 5, 300)], columns=["tf", "ctf", "dl"])
    c.register("cells", leaf)
    for total in (1000.0, 123457.0):
        got = c.sql(f"select {dq._INDRI_LEAF_SQL} as v from cells, "
                    f"(select {total} as v) suml").df()["v"].to_numpy()
        want = kernels.dirichlet(leaf["tf"].to_numpy(), leaf["dl"].to_numpy(),
                                 leaf["ctf"].to_numpy() / total, 2500.0, 0.4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
