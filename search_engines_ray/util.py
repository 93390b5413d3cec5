"""Cluster-aware sizing and process-global state helpers.

Two patterns this engine uses instead of fixed-size actor pools (an
early actor-pool variant with ``concurrency == session CPUs`` starved
the upstream read; a fixed ``concurrency=2`` caps throughput at scale):

- **stateless tasks + process-global cache**: Ray reuses worker
  processes across tasks, so a module-level cache gives actor-style
  setup amortization while tasks schedule elastically on every CPU
  (``index/build.py`` ``_get_analyzer`` established this). The cache
  must sit behind a real import: this package pickles its code by value
  (``__init__.py``), and a by-value function carries its own copy of
  every module global it reads, so a cache dict referenced as a global
  is fresh and empty in each task payload. Task code reaches the one
  per-process cache with ``from ..util import proc_cached`` inside the
  function body, which resolves to the worker's imported module.
- **autoscaling actor pools** sized from ``ray.cluster_resources()``
  for stages that genuinely need per-actor state (model weights,
  media decoders): ``concurrency=(floor, pool_size())`` lets Ray grow
  the pool with demand without reserving the whole cluster up front.
"""

from __future__ import annotations

import ray

# process-global cache for per-worker reusable state (compiled
# patterns, hasher coefficient arrays, ...). Keyed by caller-chosen
# hashable tuples; Ray worker processes persist across tasks, so a
# populated entry serves every later batch on the same worker.
_PROC_CACHE: dict = {}
# capped namespaces (key[0] → its entries, oldest first)
_BOUNDED: dict[str, dict] = {}


def proc_cached(key, factory, cap: int | None = None):
    """Return the process-global value for ``key``, building it once
    per worker process with ``factory()``. With ``cap``, the entries
    sharing ``key[0]`` are capped FIFO at ``cap``, for state keyed by
    open-ended values (index builds, docid shards)."""
    store = _PROC_CACHE if cap is None else _BOUNDED.setdefault(key[0], {})
    val = store.get(key)
    if val is None:
        val = factory()
        if cap is not None and len(store) >= cap:
            store.pop(next(iter(store)))
        store[key] = val
    return val


def pool_size(frac: float = 1.0, floor: int = 2, cap: int | None = None) -> int:
    """Actor-pool width derived from the CLUSTER, not hardcoded: on a
    256-node cluster a literal ``concurrency=2`` runs the heavy stage
    on 2 actors while everything else idles."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    n = max(floor, int(cpus * frac))
    return min(n, cap) if cap is not None else n


def autoscale_pool(frac: float = 1.0, floor: int = 2,
                   cap: int | None = None) -> tuple[int, int]:
    """``concurrency`` tuple for ``map_batches``: start at ``floor``
    actors, let Ray Data grow the pool to cluster width with demand —
    upstream reads keep CPUs until scoring backlog actually forms."""
    hi = pool_size(frac=frac, floor=floor, cap=cap)
    return (min(floor, hi), hi)
