"""Event-stream operators over a timestamped fact table: tumbling-window
aggregation, gap-based sessionization, and a distributed backward as-of
join. These are the windowed/temporal operators a training-data pipeline
needs that Ray Data has no built-in for; each is expressed as
``map_batches`` partial work + ONE hash shuffle at partition grain
(never a Python call per key), the same discipline as
``functions/dedup.py``.

Exact-arithmetic contract: monetary/metric ``value`` columns are treated
as fixed-point with 2 decimals — batches convert to integer cents
(``_cents``) so partial sums merge associatively and the DuckDB oracles
hash-match bit for bit (float summation order would otherwise differ
between engines).

Scale notes (100 TB): the only shuffle in each op is keyed by
a hash of the key into parts that follow the row count, so skewed
event keys spread across partitions with their key groups intact;
windows/sessions for one key land on one partition. ``asof_join``
additionally assumes each partition's RIGHT-side slice fits a worker
heap — true for dimension-style right sides (users, orders); for a fact-
sized right side bucket both sides by coarse time range first.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .partitioning import ROWS_PER_PART, estimate_rows, exchange, part_of, plan

# Rows each exchange moves per input event (see partitioning.plan),
# measured on sf0.1 ``events`` (100,000 rows) by the registry entries:
#   tumbling_window_aggregate  0.036 (window, key) partials per event
#                              at 1-hour windows;
#   sliding_window_aggregate   0.144 at 1-hour windows, 15-minute stride;
#   sessionize, asof_join, event_transitions  1 row per event (both
#                              sides for asof_join), by construction.
_WINDOW_EVENTS_PER_PART = int(ROWS_PER_PART / 0.036)
_SLIDING_EVENTS_PER_PART = int(ROWS_PER_PART / 0.144)
_EVENTS_PER_PART = ROWS_PER_PART


def _cents(vals: np.ndarray) -> np.ndarray:
    """2-dp float → exact integer cents (np.rint: 28.999999999999996 →
    29). Associative partial sums + bit-identical /100.0 finalization."""
    return np.rint(np.asarray(vals, dtype=np.float64) * 100.0).astype(np.int64)


def _epoch_us(arr: pa.ChunkedArray) -> np.ndarray:
    return arr.cast(pa.timestamp("us")).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)


# ------------------------------------------------------------- windows

def tumbling_window_aggregate(ds, window_s: int = 3600,
                              ts_col: str = "ts",
                              key_col: str = "event_type",
                              value_col: str = "value",
                              num_parts: int | None = None):
    """Tumbling event-time windows: → Dataset (window_start [epoch s],
    ``key_col``, n_events, sum_value, min_value, max_value).

    Combiner pattern: each batch pre-aggregates to at most
    (windows × keys) partial rows BEFORE the shuffle, so the exchange
    moves per-window partials, not events — at web scale it is
    proportional to window count, not row count. The merge is the house
    int-key-partition + vectorized-map_groups pattern
    (hashing ``window_start`` co-locates every (window, key) partial);
    Ray's multi-key hash Aggregate is orders of magnitude slower on
    compound int+string keys.
    """
    win_us = int(window_s) * 1_000_000
    parts, blocks = plan(estimate_rows(ds), _WINDOW_EVENTS_PER_PART,
                         num_parts)

    def partial(b: pa.Table) -> pd.DataFrame:
        t = _epoch_us(b[ts_col])
        win = (t // win_us) * int(window_s)
        cents = _cents(b[value_col].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({"window_start": win,
                           key_col: b[key_col].to_pylist(),
                           "n_events": np.int64(1),
                           "sum_cents": cents,
                           "min_cents": cents, "max_cents": cents})
        g = df.groupby(["window_start", key_col], sort=False)
        out = g.agg(n_events=("n_events", "sum"),
                    sum_cents=("sum_cents", "sum"),
                    min_cents=("min_cents", "min"),
                    max_cents=("max_cents", "max")).reset_index()
        out["part"] = part_of(out["window_start"].to_numpy(), parts)
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(["window_start", key_col], sort=False) \
            .agg(n_events=("n_events", "sum"),
                 sum_cents=("sum_cents", "sum"),
                 min_cents=("min_cents", "min"),
                 max_cents=("max_cents", "max")).reset_index()
        return pd.DataFrame({
            "window_start": gg["window_start"].astype(np.int64),
            key_col: gg[key_col],
            "n_events": gg["n_events"].astype(np.int64),
            "sum_value": gg["sum_cents"].to_numpy() / 100.0,
            "min_value": gg["min_cents"].to_numpy() / 100.0,
            "max_value": gg["max_cents"].to_numpy() / 100.0})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   batch_size=None),
                    blocks, merge, "pandas")


def sliding_window_aggregate(ds, window_s: int = 3600, stride_s: int = 900,
                             ts_col: str = "ts", key_col: str = "event_type",
                             value_col: str = "value",
                             num_parts: int | None = None):
    """Overlapping (sliding/hopping) event-time windows: window starts
    step by ``stride_s``; each event lands in ``window_s / stride_s``
    windows. → Dataset (window_start [epoch s], ``key_col``, n_events,
    sum_value). Requires ``window_s % stride_s == 0``.

    Same combiner discipline as :func:`tumbling_window_aggregate`: the
    ×(w/stride) replication happens INSIDE the batch (vectorized
    np.repeat) and immediately folds to (window, key) partials, so the
    shuffle carries per-window partials — replication never crosses the
    exchange. Merge = int-key partition + vectorized map_groups (see
    the tumbling variant for why not Ray's multi-key Aggregate)."""
    if window_s % stride_s:
        raise ValueError(f"window_s={window_s} must be a multiple of "
                         f"stride_s={stride_s}")
    q = window_s // stride_s
    stride_us = int(stride_s) * 1_000_000
    parts, blocks = plan(estimate_rows(ds), _SLIDING_EVENTS_PER_PART,
                         num_parts)

    def partial(b: pa.Table) -> pd.DataFrame:
        t = _epoch_us(b[ts_col])
        cents = _cents(b[value_col].to_numpy(zero_copy_only=False))
        keys = np.asarray(b[key_col].to_pylist(), dtype=object)
        base = t // stride_us           # index of the stride containing t
        offs = np.arange(q, dtype=np.int64)
        win = (np.repeat(base, q) - np.tile(offs, len(t))) * int(stride_s)
        df = pd.DataFrame({"window_start": win,
                           key_col: np.repeat(keys, q),
                           "n_events": np.int64(1),
                           "sum_cents": np.repeat(cents, q)})
        g = df.groupby(["window_start", key_col], sort=False)
        out = g.agg(n_events=("n_events", "sum"),
                    sum_cents=("sum_cents", "sum")).reset_index()
        out["part"] = part_of(out["window_start"].to_numpy(), parts)
        return out

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(["window_start", key_col], sort=False) \
            .agg(n_events=("n_events", "sum"),
                 sum_cents=("sum_cents", "sum")).reset_index()
        return pd.DataFrame({
            "window_start": gg["window_start"].astype(np.int64),
            key_col: gg[key_col],
            "n_events": gg["n_events"].astype(np.int64),
            "sum_value": gg["sum_cents"].to_numpy() / 100.0})

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   batch_size=None),
                    blocks, merge, "pandas")


# ------------------------------------------------------------ sessions

def sessionize(ds, gap_s: int = 1800, ts_col: str = "ts",
               user_col: str = "user_id", value_col: str = "value"):
    """Gap-based sessions: a user's events sorted by time split where
    the gap to the previous event exceeds ``gap_s``. → Dataset
    (``user_col``, session_id [0-based per user], session_start /
    session_end [epoch µs], n_events, sum_value).

    One shuffle keyed by a hash of the user; inside a partition ALL users
    are sessionized in one vectorized pass (lexsort by (user, ts) +
    segment reduceat), not one Python call per user.
    """
    gap_us = int(gap_s) * 1_000_000
    parts, blocks = plan(estimate_rows(ds), _EVENTS_PER_PART)

    def keyed(b: pa.Table) -> pa.Table:
        users = b[user_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array(part_of(users, parts)),
            user_col: pa.array(users.astype(np.int64)),
            "t": pa.array(_epoch_us(b[ts_col])),
            "cents": pa.array(_cents(
                b[value_col].to_numpy(zero_copy_only=False)))})

    def sessions(g: pa.Table) -> pd.DataFrame:
        users = g[user_col].to_numpy(zero_copy_only=False)
        t = g["t"].to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        if len(users) == 0:
            return pd.DataFrame({user_col: pd.Series([], dtype=np.int64),
                                 "session_id": pd.Series([], dtype=np.int64),
                                 "session_start": pd.Series([], dtype=np.int64),
                                 "session_end": pd.Series([], dtype=np.int64),
                                 "n_events": pd.Series([], dtype=np.int64),
                                 "sum_value": pd.Series([], dtype=np.float64)})
        order = np.lexsort((t, users))
        u, ts_, c = users[order], t[order], cents[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        new_sess = new_user | np.concatenate(
            ([False], (ts_[1:] - ts_[:-1]) > gap_us))
        bounds = np.flatnonzero(new_sess)
        # per-user 0-based session index: global session ordinal minus
        # the ordinal of the user's first session
        sess_ord = np.cumsum(new_sess) - 1
        user_base = np.maximum.accumulate(np.where(new_user, sess_ord, 0))
        sid = sess_ord - user_base
        ends = np.concatenate((bounds[1:], [len(u)]))
        return pd.DataFrame({
            user_col: u[bounds],
            "session_id": sid[bounds],
            "session_start": ts_[bounds],
            "session_end": ts_[ends - 1],
            "n_events": (ends - bounds).astype(np.int64),
            "sum_value": np.add.reduceat(c, bounds) / 100.0})

    return exchange(ds.map_batches(keyed, batch_format="pyarrow"),
                    blocks, sessions, "pyarrow")


# ------------------------------------------------------------ asof join

def asof_join(left_ds, right_ds, left_key: str, right_key: str,
              left_ts: str, right_ts: str, left_id: str, right_val: str,
              no_match: int = -1):
    """Backward as-of join: each left row picks the right row of the
    same key with the LARGEST ``right_ts`` ≤ ``left_ts`` (ties on
    ``right_ts`` broken by largest ``right_val``). → Dataset
    (``left_id``, ``right_val``), unmatched rows carrying ``no_match``.

    Both sides shuffle ONCE on a hash of the key (tagged union, so one
    exchange covers both inputs); each partition then runs pandas
    ``merge_asof`` — a vectorized C galloping merge — over its complete
    key groups. The right side is first reduced to one row per
    (key, ts), so partition memory is bounded by the distinct right
    keyspace slice, not right-side row count.
    """
    nl, nr = estimate_rows(left_ds), estimate_rows(right_ds)
    parts, blocks = plan(None if nl is None or nr is None else nl + nr,
                         _EVENTS_PER_PART)

    def tag_left(b: pa.Table) -> pa.Table:
        keys = b[left_key].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "part": pa.array(part_of(keys, parts)),
            "k": pa.array(keys),
            "t": pa.array(_epoch_us(b[left_ts])),
            "rid": b[left_id].cast(pa.int64()),
            "side": pa.array(np.zeros(len(keys), dtype=np.int8))})

    def tag_right(b: pa.Table) -> pa.Table:
        keys = b[right_key].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "part": pa.array(part_of(keys, parts)),
            "k": pa.array(keys),
            "t": pa.array(_epoch_us(b[right_ts])),
            "rid": b[right_val].cast(pa.int64()),
            "side": pa.array(np.ones(len(keys), dtype=np.int8))})

    tagged = left_ds.map_batches(tag_left, batch_format="pyarrow") \
        .union(right_ds.map_batches(tag_right, batch_format="pyarrow"))

    def join_part(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0]
        right = g[g["side"] == 1]
        if not len(left):
            return pd.DataFrame({left_id: pd.Series([], dtype=np.int64),
                                 right_val: pd.Series([], dtype=np.int64)})
        lf = left.sort_values("t", kind="mergesort")
        if not len(right):
            return pd.DataFrame({
                left_id: lf["rid"].to_numpy(),
                right_val: np.full(len(lf), no_match, dtype=np.int64)})
        # one row per (key, ts): keep the largest value (tie rule)
        rf = right.sort_values(["k", "t", "rid"], kind="mergesort") \
            .drop_duplicates(["k", "t"], keep="last") \
            .sort_values("t", kind="mergesort")
        m = pd.merge_asof(lf[["k", "t", "rid"]],
                          rf[["k", "t", "rid"]].rename(
                              columns={"rid": "rv"}),
                          on="t", by="k", direction="backward")
        return pd.DataFrame({
            left_id: m["rid"].to_numpy(),
            right_val: m["rv"].fillna(no_match).astype(np.int64).to_numpy()})

    return exchange(tagged, blocks, join_part, "pandas")


def json_field_agg(ds, field: str = "k", json_col: str = "props",
                   group_col: str = "event_type"):
    """Parse a JSON-string column, extract one numeric ``field``, and
    aggregate (count of non-null, sum, 6-dp mean) per ``group_col`` —
    the semi-structured-sidecar pattern (event props, page metadata)
    that at 100 TB must parse once per payload in the map stage and
    exchange only per-(batch, group) partial rows. stdlib ``json`` per
    row is the cost floor here: the payload itself must be parsed, and
    rows-per-batch Python overhead is dwarfed by the parse. Missing
    keys / nulls / non-JSON rows contribute to neither count nor sum
    (mirrors SQL ``json_extract`` → NULL semantics)."""
    import json

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        groups = b[group_col].to_pylist()
        vals = np.full(len(groups), np.nan, dtype=np.float64)
        for i, s in enumerate(b[json_col].to_pylist()):
            if not s:
                continue
            try:
                v = json.loads(s).get(field)
            except (ValueError, AttributeError):
                continue
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                vals[i] = float(v)
        df = pd.DataFrame({group_col: groups, "v": vals})
        agg = df.groupby(group_col, sort=False)["v"].agg(
            n="count", s="sum")
        return pa.table({group_col: pa.array(agg.index.to_numpy()),
                         "n": pa.array(agg["n"].to_numpy(np.int64)),
                         "s": pa.array(agg["s"].to_numpy(np.float64))})

    def final(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = b.to_pandas().groupby(group_col, sort=True).sum().reset_index()
        from ..functions.text import round6
        mean = np.where(df["n"] > 0, df["s"] / df["n"].where(df["n"] > 0, 1),
                        np.nan)
        return pa.table({group_col: pa.array(df[group_col].to_numpy()),
                         "n_vals": pa.array(df["n"].to_numpy(np.int64)),
                         "sum_val": pa.array(df["s"].to_numpy(np.float64)),
                         "mean_val": pa.array(round6(mean))})

    # group cardinality is tiny (event types); one single-block merge
    return ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def event_transitions(ds, ts_col: str = "ts", user_col: str = "user_id",
                      type_col: str = "event_type",
                      id_col: str = "event_id") -> pa.Table:
    """Per-user event-type transition counts (the first-order Markov
    matrix of the clickstream): each user's events in (ts, event_id)
    order yield consecutive (from_type → to_type) pairs, counted
    globally. → Arrow (from_type, to_type, n) sorted by (from, to).

    One shuffle keyed by a hash of the user co-locates each user's
    stream; inside a partition ALL users' pairs fall out of one
    lexsort + adjacency mask (no per-user Python), and only the
    per-partition (from, to, count) partials — at most |types|² rows
    each — leave the task. The driver folds the tiny partials."""
    parts, blocks = plan(estimate_rows(ds), _EVENTS_PER_PART)

    def keyed(b: pa.Table) -> pa.Table:
        users = b[user_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array(part_of(users, parts)),
            user_col: pa.array(users.astype(np.int64)),
            "t": pa.array(_epoch_us(b[ts_col])),
            "eid": pa.array(b[id_col].to_numpy(zero_copy_only=False)
                            .astype(np.int64)),
            type_col: b[type_col]})

    def pairs(g: pa.Table) -> pd.DataFrame:
        users = g[user_col].to_numpy(zero_copy_only=False)
        if len(users) == 0:
            return pd.DataFrame({"from_type": pd.Series([], dtype=object),
                                 "to_type": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        t = g["t"].to_numpy(zero_copy_only=False)
        eid = g["eid"].to_numpy(zero_copy_only=False)
        types = np.asarray(g[type_col].to_pylist(), dtype=object)
        order = np.lexsort((eid, t, users))
        u, ty = users[order], types[order]
        same = u[1:] == u[:-1]
        df = pd.DataFrame({"from_type": ty[:-1][same],
                           "to_type": ty[1:][same]})
        out = df.groupby(["from_type", "to_type"], sort=False) \
            .size().reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    partials = exchange(ds.map_batches(keyed, batch_format="pyarrow"),
                        blocks, pairs, "pyarrow").to_pandas()
    if partials.empty:
        return pa.table({"from_type": pa.array([], pa.string()),
                         "to_type": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    agg = partials.groupby(["from_type", "to_type"], sort=True)["n"] \
        .sum().reset_index()
    return pa.table({"from_type": pa.array(agg["from_type"], pa.string()),
                     "to_type": pa.array(agg["to_type"], pa.string()),
                     "n": pa.array(agg["n"].to_numpy(np.int64))})
