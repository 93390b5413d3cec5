"""The one exchange plan of this package's hash-partitioned exchanges.

Every partial-merge operator here routes its combiner rows through an
int32 ``part`` column (:func:`part_of`) and reduces each part with one
vectorized ``map_groups`` call (:func:`exchange`). How many parts and
blocks an exchange gets is decided here and nowhere else (:func:`plan`):

- one part per ~2^18 exchanged rows. The input's row count comes from
  its Parquet footers (:func:`estimate_rows`, no execution, never
  ``ds.count()``); each call site divides ``ROWS_PER_PART`` by the rows
  it exchanges per input row, measured on sf0.1, so a 1,000-doc input
  is one part;
- the keyed rows are coalesced to ``blocks`` ≤ parts blocks before the
  sort, because the sort moves blocks × blocks pieces and pays a fixed
  cost for each; blocks never exceed the 16–2,048 of the fixed plans
  this one replaced;
- an input whose size is unknown (no footers: ``from_pandas``,
  ``read_json`` chains) gets ``DEFAULT_PARTS`` parts, so its exchange
  stays wide;
- an explicit ``num_parts`` wins.

Results never depend on the plan: every reduce keys on a digest, term,
node, key or window, never on the part, so the plan only decides how
wide an exchange runs.

The exchange is Ray Data's sort shuffle (``groupby("part").map_groups``).
On Ray 2.49 with a few CPUs per node the hash shuffle lost at every
size measured: ``repartition(keys=...)`` took 1.6 s at 1k rows and 9 s
at 1M rows against the sort's 0.7 s and 0.8 s, and a hash-shuffle
``groupby`` did not finish in 150 s.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

ROWS_PER_PART = 1 << 18
DEFAULT_PARTS = 256
_MAX_PARTS = 16384


def _source_files(op) -> list[str] | None:
    """Input files of every source of logical operator ``op``; None
    when any source is not a file read (``from_pandas``, a
    materialized dataset)."""
    if not op.input_dependencies:
        return list(op.infer_metadata().input_files or []) or None
    files = []
    for dep in op.input_dependencies:
        f = _source_files(dep)
        if f is None:
            return None
        files += f
    return files


def estimate_rows(ds) -> int | None:
    """Row-count estimate for ``ds`` from Parquet footers of its input
    files — metadata-only, never triggers execution. Returns ``None``
    when the dataset has no file inputs (``from_items`` /
    ``from_pandas`` chains) or any footer is unreadable.

    For transformed datasets this is the PRE-transform row count of
    the reads they start from (summed over a union's inputs) — an upper
    bound for filters, which is the safe direction for sizing an
    exchange. ``Dataset.input_files()`` cannot serve here: Ray 2.49
    returns [] for every dataset that is not a bare read."""
    try:
        files = _source_files(ds._logical_plan.dag)
    except Exception:
        return None
    if not files:
        return None
    import pyarrow.parquet as pq

    sample = files[:64]
    n = 0
    for f in sample:
        try:
            n += pq.ParquetFile(f).metadata.num_rows
        except Exception:
            return None
    if len(files) > len(sample):
        # extrapolate from the sampled footers; files in one write are
        # near-uniform so the estimate is within a few percent
        n = int(n * (len(files) / len(sample)))
    return n


def plan(n_rows: int | None, rows_per_part: int,
         num_parts: int | None = None) -> tuple[int, int]:
    """→ (parts, blocks) for an exchange over an input of ``n_rows``
    rows (None when its size is unknown), one part per
    ``rows_per_part`` input rows. Blocks are capped at
    max(16, wide // 8), wide = ``num_parts``, else one part per 2M
    input rows clamped to [256, 16384]."""
    if num_parts:
        parts = wide = int(num_parts)
    elif n_rows is None:
        parts = wide = DEFAULT_PARTS
    else:
        parts = min(_MAX_PARTS, max(1, -(-int(n_rows) // rows_per_part)))
        wide = min(_MAX_PARTS, max(256, -(-int(n_rows) // 2_000_000)))
    return parts, min(parts, max(16, wide // 8))


def part_of(values, parts: int) -> np.ndarray:
    """int32 part in [0, parts) of each value: a vectorized,
    process-independent hash of int, str or bytes values (``hash()`` is
    salted per process, and every worker must route a key alike)."""
    a = values if isinstance(values, np.ndarray) \
        else np.asarray(values, dtype=object)
    return (pd.util.hash_array(a, categorize=False)
            % np.uint64(parts)).astype(np.int32)


def exchange(keyed_ds, blocks: int, reduce, batch_format: str):
    """Coalesce ``keyed_ds`` (carrying a ``part`` column) to ``blocks``
    blocks and call ``reduce`` once per part."""
    return keyed_ds.repartition(blocks).groupby("part") \
        .map_groups(reduce, batch_format=batch_format)
