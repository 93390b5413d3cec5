"""Mergeable-sketch operators: distributed HyperLogLog distinct counts.

The sketch pattern at 100 TB: every batch folds its rows into a tiny
fixed-size state (here 2^p max-rho registers), states merge with an
associative/commutative op (max), so the all-to-all exchange carries
registers — kilobytes per group — never values. One ``groupby`` over
(group, bucket) rows is the whole shuffle.

Determinism contract (oracle-checked with ``auditable=True``): value
hashes are md5-derived 64-bit ints — the default is a vectorized
SipHash-family hash, C speed, same estimate quality, not
SQL-reproducible — register arithmetic is exact integers (the harmonic sum is
computed as Σ 2^(R−rho) in arbitrary precision before one float
division), and the bias-corrected small-range branch uses the same
`ln` libm call DuckDB uses, so the estimate is bit-identical to the SQL
mirror.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from .partitioning import ROWS_PER_PART, estimate_rows, exchange, part_of, plan

# Partial rows each exchange moves per input row (see partitioning.plan),
# measured on sf0.1 by the registry entries: hll_distinct over 5,000
# ``documents``, the others over 100,000 ``events``.
#   hyperloglog_distinct          0.93 (group, bucket) registers per doc;
#   value_quantiles, percentile_ranks  0.66 (group, cents) rows per event;
#   value_histogram               0.002 (group, bucket) rows per event;
#   value_stats                   0.0001 rows per event (one per group
#                                 and block).
_HLL_DOCS_PER_PART = int(ROWS_PER_PART / 0.93)
_CENTS_EVENTS_PER_PART = int(ROWS_PER_PART / 0.66)
_BUCKET_EVENTS_PER_PART = int(ROWS_PER_PART / 0.002)
_GROUP_EVENTS_PER_PART = int(ROWS_PER_PART / 0.0001)

# raw-estimator bias constant alpha_m for m = 2^p (Flajolet et al. 2007)
def _alpha(m: int) -> float:
    return 0.7213 / (1.0 + 1.079 / m)


def _hash64(vals: list, auditable: bool = False) -> np.ndarray:
    """64-bit value hash for the HLL registers. ``auditable=True`` is
    the md5-over-varchar permutation the DuckDB mirror
    (:func:`hyperloglog_sql`) reproduces verbatim (~1 µs/row Python
    loop); the default is a vectorized SipHash-family hash — same
    estimate quality, C speed, not SQL-reproducible. Oracle entries opt
    into the auditable path."""
    if auditable:
        return np.fromiter(
            (int.from_bytes(hashlib.md5(str(v if v is not None else "")
                                        .encode()).digest()[:8], "big")
             for v in vals), dtype=np.uint64, count=len(vals))
    import pandas as _pd
    a = np.asarray([v if v is not None else "" for v in vals],
                   dtype=object)
    return _pd.util.hash_array(a, hash_key="sketch.hash64.k0",
                               categorize=False)


def hyperloglog_distinct(ds, value_col: str, group_col: str, p: int = 12,
                         num_parts: int | None = None,
                         auditable: bool = False):
    """→ Dataset (``group_col``, n_distinct_est): HyperLogLog estimate
    of distinct ``value_col`` per group, with the standard linear-
    counting correction below 2.5·m.

    Stages: per-batch partial registers (vectorized; one (group, bucket,
    max rho) row per touched register) → groupby max-merge → per-group
    finalize. The rho computation uses ``np.frexp`` exponents — exact
    integer bit lengths for the (64−p)-bit remainders, mirrored in SQL
    by ``length(ltrim(bin(rest),'0'))``."""
    if not 12 <= p <= 18:
        raise ValueError(
            f"p={p}: need 12 ≤ p ≤ 18 — the (64−p)-bit remainders must "
            f"stay ≤ 52 bits for np.frexp bit lengths to be exact (and "
            f"match the SQL mirror's bin() arithmetic)")
    m = 1 << p
    rest_bits = 64 - p
    R = rest_bits + 1
    rest_mask = np.uint64((1 << rest_bits) - 1)

    def partial(b: pa.Table) -> pd.DataFrame:
        h = _hash64(b[value_col].to_pylist(), auditable)
        bucket = (h >> np.uint64(rest_bits)).astype(np.int64)
        rest = h & rest_mask
        # frexp exponent == bit_length, exact for ints < 2^53 (rest has
        # ≤ 52 bits at the default p=12); 0 for rest == 0 → rho = R
        bl = np.frexp(rest.astype(np.float64))[1]
        rho = (R - bl).astype(np.int64)
        df = pd.DataFrame({group_col: b[group_col].to_pylist(),
                           "bucket": bucket, "rho": rho})
        return df.groupby([group_col, "bucket"], sort=False)["rho"] \
            .max().reset_index()

    # whole-block batches: partial EXPANDS its input to up to
    # (groups × m) register rows, so small batches would feed the merge
    # ~5× the row count it needs. The merge itself is the house
    # int-key-partition + vectorized-map_groups pattern (hashing the
    # bucket co-locates every (group, bucket) register) — Ray's multi-key
    # hash Aggregate is orders of magnitude slower on compound
    # string+int keys (measured 9.0 s → 1.6 s at sf0.1). Parts
    # auto-size with the corpus (metadata-only) so merge parallelism
    # grows on a big cluster; results are parts-invariant (max-merge).
    parts, blocks = plan(estimate_rows(ds), _HLL_DOCS_PER_PART,
                         num_parts)

    def with_part(b: pa.Table) -> pd.DataFrame:
        df = partial(b)
        df["part"] = part_of(df["bucket"].to_numpy(), parts)
        return df

    def merge_max(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby([group_col, "bucket"], sort=False)["rho"] \
            .max().reset_index()
        return out

    regs = exchange(ds.map_batches(with_part, batch_format="pyarrow",
                                   batch_size=None),
                    blocks, merge_max, "pandas")

    alpha = _alpha(m)
    two_R = float(1 << R)

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        # duplicate (group, bucket) registers cannot survive merge_max
        # (the bucket's hash routes its registers to ONE partition),
        # so a plain scatter keeps the max
        rho = np.zeros(m, dtype=np.int64)
        rho[g["bucket"].to_numpy()] = g["rho"].to_numpy()
        # harmonic sum as an exact integer: Σ 2^-rho = S / 2^R
        s = sum(1 << (R - int(r)) for r in rho)
        v = int(np.count_nonzero(rho == 0))
        est = alpha * m * m * two_R / float(s)
        if est <= 2.5 * m and v > 0:
            est = float(m) * math.log(float(m) / v)
        return pd.DataFrame({
            group_col: [g[group_col].iloc[0]],
            "n_distinct_est": np.array([math.floor(est + 0.5)],
                                       dtype=np.int64)})

    return regs.groupby(group_col).map_groups(finalize,
                                              batch_format="pandas")


# sentinel groupby key for per-block decrements — real tokens are
# [a-z0-9]+ so a NUL-prefixed key can never collide
_MG_DEC_KEY = "\x00dec"


def frequent_terms(ds, text_col: str = "text", k: int = 20,
                   capacity: int = 4096) -> pa.Table:
    """Heavy-hitter terms via a mergeable Misra-Gries summary
    (Misra/Gries 1982; merge rule from Agarwal et al., PODS'12):
    each block folds its token stream into ≤ ``capacity`` counters
    (exact batch counts, then subtract the (capacity+1)-th largest and
    drop ≤ 0), a ``groupby('term').sum`` merges summaries, and the
    per-block decrements sum to the global error bound. → Arrow
    (term, count_lo, count_hi) top-k by count_lo desc, term asc, with
    ``count_lo ≤ true_count ≤ count_hi`` guaranteed, and any term whose
    true count exceeds the total decrement guaranteed PRESENT.

    The 100-TB shape: the exchange carries at most ``capacity`` rows
    per block regardless of block vocabulary (boilerplate-heavy web
    text can push per-block vocab into the millions), so map-side
    output — and therefore shuffle width — is bounded by a knob, not
    by the data. When every block's vocab fits ``capacity`` no
    decrement happens and the result is EXACT (count_hi == count_lo) —
    the oracle checks that regime; the pruning regime is covered by a
    guarantee-checking unit test. Tokenization is the shared
    ``analysis.tokenizer.simple_tokenize`` contract (lowercase,
    [a-z0-9]+ runs — one place to keep in sync with the analyzer).

    Map-stage memory is streaming: tokens fold into ONE Counter per
    block, document by document, so peak memory tracks per-block VOCAB
    (what the capacity prune bounds), never the raw token stream —
    boilerplate-heavy web blocks can carry 100× more tokens than
    distinct terms. Post-merge work is Arrow-mask + per-block top-k
    pushdown, no per-row Python."""
    import pyarrow.compute as pc

    from ..analysis.tokenizer import simple_tokenize

    def summarize(b: pa.Table) -> pa.Table:
        ctr: Counter = Counter()
        for t in b[text_col].to_pylist():
            if t:
                ctr.update(simple_tokenize(t))
        if not ctr:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        terms = np.asarray(list(ctr.keys()), dtype=object)
        cnts = np.fromiter(ctr.values(), dtype=np.int64, count=len(ctr))
        dec = 0
        if terms.size > capacity:
            # Misra-Gries prune: d = (capacity+1)-th largest counter;
            # subtracting d and dropping ≤0 leaves ≤ capacity counters
            d = int(np.partition(cnts, terms.size - capacity - 1)
                    [terms.size - capacity - 1])
            keep = cnts > d
            terms, cnts, dec = terms[keep], cnts[keep] - d, d
        out_t = list(terms)
        out_c = list(cnts)
        if dec:
            out_t.append(_MG_DEC_KEY)
            out_c.append(dec)
        return pa.table({"term": pa.array(out_t, pa.string()),
                         "cnt": pa.array(out_c, pa.int64())})

    agg = (ds.map_batches(summarize, batch_format="pyarrow")
           .groupby("term").sum("cnt")
           .materialize())  # aggregated summaries: ≤ blocks×capacity rows

    # groupby made terms globally unique, so the decrement sentinel
    # lives in exactly one block — extract with an Arrow mask (no
    # per-row lambda), then per-block prune to the local top-k by the
    # GLOBAL sort order (sum desc, term asc): any global top-k row is
    # in its own block's top-k under the same order, so the pushdown is
    # exact and the global sort sees ≤ k rows per block.
    def split_dec(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["term"], _MG_DEC_KEY))

    def prune_topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["term"], _MG_DEC_KEY)))
        if t.num_rows > k:
            idx = pc.sort_indices(
                t, sort_keys=[("sum(cnt)", "descending"),
                              ("term", "ascending")])[:k]
            t = t.take(idx)
        return t

    err_t = agg.map_batches(split_dec, batch_format="pyarrow").take_all()
    err = int(err_t[0]["sum(cnt)"]) if err_t else 0
    top = (agg.map_batches(prune_topk, batch_format="pyarrow")
           .sort(["sum(cnt)", "term"], descending=[True, False])
           .limit(k).take_all())
    return pa.table({
        "term": pa.array([r["term"] for r in top], pa.string()),
        "count_lo": pa.array([int(r["sum(cnt)"]) for r in top], pa.int64()),
        "count_hi": pa.array([int(r["sum(cnt)"]) + err for r in top],
                             pa.int64()),
    })


def value_quantiles(ds, value_col: str, group_col: str,
                    ps: tuple = (0.5, 0.9, 0.99),
                    num_parts: int | None = None):
    """EXACT distributed quantiles of a 2-dp metric column via a
    counting-histogram sketch: each batch folds to (group, cents, n)
    partial counts, a groupby sums them, and the per-group finalize
    walks the cumulative histogram. → Dataset (``group_col``, p, value).

    The shuffle carries one row per DISTINCT (group, cents) per block —
    bounded by the metric's value cardinality, not the row count (a
    2-dp bounded metric has at most ~10⁴–10⁶ distinct cents). Quantile
    rule: the smallest value whose cumulative count reaches
    ``ceil(p·n)`` — the classic discrete (type-1) quantile, mirrored
    literally in SQL. The partial merge is the house int-key-partition
    + vectorized-map_groups pattern (hashing ``cents`` co-locates every
    (group, cents) pair) — Ray's multi-key hash Aggregate is orders of
    magnitude slower on compound string+int keys (measured 19 → 3.5 s
    at sf0.1). Parts auto-size with the corpus (metadata-only; see
    partitioning.plan); results parts-invariant."""
    parts, blocks = plan(estimate_rows(ds), _CENTS_EVENTS_PER_PART,
                         num_parts)

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.rint(np.asarray(
            b[value_col].to_numpy(zero_copy_only=False),
            dtype=np.float64) * 100.0).astype(np.int64)
        df = pd.DataFrame({group_col: b[group_col].to_pylist(),
                           "cents": cents})
        out = df.groupby([group_col, "cents"], sort=False) \
            .size().rename("n").reset_index()
        out["part"] = part_of(out["cents"].to_numpy(), parts)
        return out

    def merge_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([group_col, "cents"], sort=False)["n"] \
            .sum().reset_index()

    # block-grain batches (the partial's compression ratio is bounded by
    # value cardinality; tiny batches would emit near-uncompressed
    # partials), then one int-key exchange to merge duplicate
    # (group, cents) rows across blocks
    counts = exchange(ds.map_batches(partial, batch_format="pyarrow",
                                     batch_size=None),
                      blocks, merge_sum, "pandas")

    ps = tuple(float(p) for p in ps)

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["cents"].to_numpy())
        cents = g["cents"].to_numpy()[order]
        cum = np.cumsum(g["n"].to_numpy()[order])
        tot = int(cum[-1])
        out_p, out_v = [], []
        for p in ps:
            idx = int(np.searchsorted(cum, math.ceil(p * tot)))
            out_p.append(p)
            out_v.append(cents[idx] / 100.0)
        return pd.DataFrame({group_col: [g[group_col].iloc[0]] * len(ps),
                             "p": np.asarray(out_p, dtype=np.float64),
                             "value": np.asarray(out_v, dtype=np.float64)})

    return counts.groupby(group_col).map_groups(finalize,
                                                batch_format="pandas")


def value_histogram(ds, value_col: str, group_col: str,
                    interval: float = 25.0,
                    num_parts: int | None = None):
    """ES ``histogram`` aggregation: fixed-interval value buckets per
    group — → Dataset (``group_col``, bucket [the bucket's lower
    bound], n). Same counting-histogram machinery as
    :func:`value_quantiles`: per-batch (group, bucket, n) partials on
    the exact integer-cents grid, one int-key partition exchange,
    vectorized merges — the shuffle carries distinct buckets, never
    rows. Bucketing is ``floor(value / interval) * interval`` on the
    cents grid (SQL-mirrored literally, negatives floor like SQL)."""
    parts, blocks = plan(estimate_rows(ds), _BUCKET_EVENTS_PER_PART,
                         num_parts)
    step = int(round(float(interval) * 100.0))
    if step <= 0:
        raise ValueError(f"interval={interval!r}: must be > 0")

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.rint(np.asarray(
            b[value_col].to_numpy(zero_copy_only=False),
            dtype=np.float64) * 100.0).astype(np.int64)
        bkt = (cents // step) * step
        df = pd.DataFrame({group_col: b[group_col].to_pylist(),
                           "bkt": bkt})
        out = df.groupby([group_col, "bkt"], sort=False) \
            .size().rename("n").reset_index()
        out["part"] = part_of(out["bkt"].to_numpy(), parts)
        return out

    def merge_sum(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby([group_col, "bkt"], sort=False)["n"] \
            .sum().reset_index()
        return pd.DataFrame({group_col: gg[group_col],
                             "bucket": gg["bkt"].to_numpy() / 100.0,
                             "n": gg["n"].astype(np.int64)})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   batch_size=None),
                    blocks, merge_sum, "pandas")


# rows per int64 Σc² chunk: 32768 · 16777215² < 2⁶³, so a chunk's dot
# is exact for |cents| ≤ _SS_MAX_CENTS (|values| ≤ ~167k on the 2-dp grid)
_SS_CHUNK = 32768
_SS_MAX_CENTS = math.isqrt((2 ** 63 - 1) // _SS_CHUNK)


def _sum_squares(c: np.ndarray) -> int:
    """Exact Σc² of int64 cents: int64 dots over chunks that cannot
    overflow, summed as Python ints; cents beyond the chunk bound sum
    as Python ints throughout."""
    if c.size and max(int(c.max()), -int(c.min())) > _SS_MAX_CENTS:
        return sum(x * x for x in c.tolist())
    return sum(int(np.dot(ch, ch))
               for ch in np.array_split(c, c.size // _SS_CHUNK + 1))


def value_stats(ds, value_col: str, group_col: str,
                num_parts: int | None = None):
    """ES ``extended_stats`` aggregation, BIT-EXACT under any
    partitioning: per-group count / min / max / mean / population
    variance of a 2-dp metric. → Dataset (``group_col``, n, min_value,
    max_value, mean, variance), mean/variance 6-dp rounded.

    The distributed-variance trap is float partials: Σx and Σx² in
    doubles depend on summation order, so results drift with block
    boundaries. Here every partial is an EXACT integer on the cents
    grid (Σc and Σc² per (group, block); the merge sums as arbitrary-
    precision Python ints, so 10¹²-row corpora cannot overflow), and
    the single float conversion happens once, in the finalize, with
    the same expression the SQL mirror uses — associative by
    construction, identical on every run. Exchange: one row per group
    per block."""
    parts, blocks = plan(estimate_rows(ds), _GROUP_EVENTS_PER_PART,
                         num_parts)

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.rint(np.asarray(
            b[value_col].to_numpy(zero_copy_only=False),
            dtype=np.float64) * 100.0).astype(np.int64)
        df = pd.DataFrame({group_col: b[group_col].to_pylist(),
                           "c": cents})
        g = df.groupby(group_col, sort=False)["c"]
        out = pd.DataFrame({
            "n": g.size().astype(np.int64),
            "s": g.sum().astype(object),          # exact int partials
            "ss": g.apply(lambda v: _sum_squares(v.to_numpy())
                          ).astype(object),
            "mn": g.min().astype(np.int64),
            "mx": g.max().astype(np.int64),
        }).reset_index()
        out["part"] = part_of(
            np.asarray(out[group_col].to_numpy(), dtype=object), parts)
        return out

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, sub in g.groupby(group_col, sort=False):
            n = int(sub["n"].sum())
            s = sum(int(x) for x in sub["s"])     # arbitrary precision
            ss = sum(int(x) for x in sub["ss"])
            mean = (float(s) / n) / 100.0
            var = ((float(ss) - float(s) * float(s) / n) / n) / 10000.0
            rows.append((key, n, int(sub["mn"].min()) / 100.0,
                         int(sub["mx"].max()) / 100.0,
                         math.floor(mean * 1e6 + 0.5) / 1e6,
                         math.floor(var * 1e6 + 0.5) / 1e6))
        return pd.DataFrame(rows, columns=[
            group_col, "n", "min_value", "max_value", "mean", "variance"])

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   batch_size=None),
                    blocks, finalize, "pandas")


def value_stats_sql(table: str, value_col: str, group_col: str) -> str:
    """DuckDB mirror of :func:`value_stats` — the identical exact-int
    cents sums (sum(bigint) is hugeint: exact) converted to doubles in
    the same final expression."""
    return f"""
with c as (select {group_col},
                  round({value_col} * 100)::bigint as cents
           from {table}),
a as (select {group_col}, count(*)::bigint as n,
             sum(cents) as s, sum(cents * cents) as ss,
             min(cents) as mn, max(cents) as mx
      from c group by 1)
select {group_col}, n, mn / 100.0 as min_value, mx / 100.0 as max_value,
       floor(((s::double / n) / 100.0) * 1000000 + 0.5) / 1000000 as mean,
       floor((((ss::double - s::double * s::double / n) / n) / 10000.0)
             * 1000000 + 0.5) / 1000000 as variance
from a
"""


def value_histogram_sql(table: str, value_col: str, group_col: str,
                        interval: float = 25.0) -> str:
    """DuckDB mirror of :func:`value_histogram` (identical cents grid
    and floor-division bucketing)."""
    step = int(round(float(interval) * 100.0))
    return f"""
with c as (select {group_col},
                  round({value_col} * 100)::bigint as cents
           from {table})
select {group_col},
       (floor(cents / {step}.0)::bigint * {step}) / 100.0 as bucket,
       count(*)::bigint as n
from c group by 1, 2
"""


def value_quantiles_sql(table: str, value_col: str, group_col: str,
                        ps: tuple = (0.5, 0.9, 0.99)) -> str:
    """DuckDB mirror of :func:`value_quantiles` (identical cents
    histogram, identical ceil(p·n) rank arithmetic in doubles)."""
    vals = ", ".join(f"({float(p)!r}::double)" for p in ps)
    return f"""
with c as (select {group_col}, round({value_col} * 100)::bigint as cents,
                  count(*)::bigint as n
           from {table} group by 1, 2),
t as (select {group_col}, cents,
             sum(n) over (partition by {group_col} order by cents) as cum,
             sum(n) over (partition by {group_col}) as tot
      from c)
select t.{group_col}, q.p, min(t.cents) / 100.0 as value
from t cross join (values {vals}) q(p)
where t.cum >= ceil(q.p * t.tot)
group by t.{group_col}, q.p
"""


def hyperloglog_sql(table: str, value_col: str, group_col: str,
                    p: int = 12) -> str:
    """DuckDB mirror of :func:`hyperloglog_distinct` (same md5-derived
    hashes, integer register arithmetic via hugeint shifts)."""
    m = 1 << p
    rest_bits = 64 - p
    R = rest_bits + 1
    rest_mask = (1 << rest_bits) - 1
    alpha = _alpha(m)
    # every float literal is cast ::double — DuckDB parses bare decimal
    # literals as DECIMAL, whose arithmetic differs from IEEE doubles
    raw = (f"({alpha!r}::double) * {m} * {m} * "
           f"({float(1 << R)!r}::double) / (s::double)")
    return f"""
with h as (select {group_col},
                  ('0x' || substr(md5(coalesce({value_col}::varchar, '')),
                                  1, 16))::ubigint as h
           from {table}),
b as (select {group_col}, (h >> {rest_bits})::bigint as bucket,
             h & {rest_mask}::ubigint as rest from h),
r as (select {group_col}, bucket,
             max(case when rest = 0 then {R}
                      else {R} - length(ltrim(bin(rest), '0')) end) as rho
      from b group by {group_col}, bucket),
agg as (select {group_col},
               sum(1::hugeint << ({R} - rho)) as s_present,
               count(*) as n_buckets
        from r group by {group_col}),
fin as (select {group_col},
               s_present + ({m} - n_buckets) * (1::hugeint << {R}) as s,
               {m} - n_buckets as v
        from agg),
est as (select {group_col}, {raw} as raw, v from fin)
select {group_col},
       case when raw <= ({2.5 * m!r}::double) and v > 0
            then floor(({float(m)!r}::double)
                       * ln(({float(m)!r}::double) / v) + 0.5)
            else floor(raw + 0.5) end::bigint as n_distinct_est
from est
"""


def percentile_ranks(ds, value_col: str, group_col: str,
                     values: tuple = (10.0, 50.0, 100.0),
                     num_parts: int | None = None):
    """EXACT inverse of :func:`value_quantiles` (ES
    ``percentile_ranks`` agg): for each probe value v, the percentage
    of rows with value ≤ v per group, from the same distributed
    (group, cents, n) counting-histogram — the shuffle carries distinct
    cents, never rows. → Dataset (``group_col``, v, pct) with
    pct = 100·|{x ≤ v}|/n computed in doubles and mirrored literally
    in SQL (:func:`percentile_ranks_sql`). Exchange parts auto-size
    with the corpus (metadata-only); results parts-invariant."""
    parts, blocks = plan(estimate_rows(ds), _CENTS_EVENTS_PER_PART,
                         num_parts)

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = np.rint(np.asarray(
            b[value_col].to_numpy(zero_copy_only=False),
            dtype=np.float64) * 100.0).astype(np.int64)
        df = pd.DataFrame({group_col: b[group_col].to_pylist(),
                           "cents": cents})
        out = df.groupby([group_col, "cents"], sort=False) \
            .size().rename("n").reset_index()
        out["part"] = part_of(out["cents"].to_numpy(), parts)
        return out

    def merge_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby([group_col, "cents"], sort=False)["n"] \
            .sum().reset_index()

    counts = exchange(ds.map_batches(partial, batch_format="pyarrow",
                                     batch_size=None),
                      blocks, merge_sum, "pandas")

    probes = tuple(float(v) for v in values)

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g["cents"].to_numpy())
        cents = g["cents"].to_numpy()[order]
        cum = np.cumsum(g["n"].to_numpy()[order])
        tot = float(cum[-1])
        out_v, out_p = [], []
        for v in probes:
            vc = int(np.rint(v * 100.0))
            i = int(np.searchsorted(cents, vc, side="right"))
            le = float(cum[i - 1]) if i > 0 else 0.0
            out_v.append(v)
            out_p.append(100.0 * le / tot)
        return pd.DataFrame({group_col: [g[group_col].iloc[0]] * len(probes),
                             "v": np.asarray(out_v, dtype=np.float64),
                             "pct": np.asarray(out_p, dtype=np.float64)})

    return counts.groupby(group_col).map_groups(finalize,
                                                batch_format="pandas")


def percentile_ranks_sql(table: str, value_col: str, group_col: str,
                         values: tuple = (10.0, 50.0, 100.0)) -> str:
    """DuckDB mirror of :func:`percentile_ranks` (identical cents
    comparison and double division)."""
    vals = ", ".join(f"({float(v)!r}::double)" for v in values)
    return f"""
with c as (select {group_col}, round({value_col} * 100)::bigint as cents
           from {table}),
t as (select {group_col}, count(*)::bigint as tot from c group by 1)
select t.{group_col}, q.v,
       100.0 * (select count(*) from c
                where c.{group_col} = t.{group_col}
                  and c.cents <= round(q.v * 100)::bigint)::double
             / t.tot::double as pct
from t cross join (values {vals}) q(v)
"""
