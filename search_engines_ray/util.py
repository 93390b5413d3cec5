"""Cluster-aware sizing and process-global state helpers.

Two patterns this engine uses instead of fixed-size actor pools (an
early actor-pool variant with ``concurrency == session CPUs`` starved
the upstream read; a fixed ``concurrency=2`` caps throughput at scale):

- **stateless tasks + process-global cache**: Ray reuses worker
  processes across tasks, so a module-level cache gives actor-style
  setup amortization while tasks schedule elastically on every CPU
  (``index/build.py``'s tokenize stage established this). Every
  piece of such state lives in the one per-process ``proc_cached``
  map; workers import the package (an installation or ``PYTHONPATH``),
  so task code reaches that map through its module like any global.
- **autoscaling actor pools** sized from ``ray.cluster_resources()``
  for stages that genuinely need per-actor state (model weights,
  media decoders): ``concurrency=(floor, pool_size())`` lets Ray grow
  the pool with demand without reserving the whole cluster up front.

State keyed by open-ended data (an index reader's forward shards) is
bounded by bytes instead, with ``ByteLRU``.
"""

from __future__ import annotations

from collections import OrderedDict

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
    open-ended values (index builds)."""
    store = _PROC_CACHE if cap is None else _BOUNDED.setdefault(key[0], {})
    val = store.get(key)
    if val is None:
        val = factory()
        if cap is not None and len(store) >= cap:
            store.pop(next(iter(store)))
        store[key] = val
    return val


class ByteLRU:
    """Least-recently-used map of Arrow or numpy arrays bounded by their
    resident bytes, with hit / miss / eviction counters. A value's size
    is its ``nbytes`` unless the caller passes the bytes it really holds
    (an object array's Python objects). A value larger than the whole
    budget is not kept, so resident bytes never exceed the budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self._d: OrderedDict = OrderedDict()   # key → (value, bytes)
        self.hits = self.misses = self.evictions = self.bytes = 0

    def get(self, key):
        hit = self._d.get(key)
        if hit is None:
            self.misses += 1
            return None
        self._d.move_to_end(key)
        self.hits += 1
        return hit[0]

    def put(self, key, value, size: int | None = None) -> None:
        size = int(value.nbytes if size is None else size)
        old = self._d.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        if size > self.budget:
            return
        while self.bytes + size > self.budget:
            _, (_, b) = self._d.popitem(last=False)
            self.bytes -= b
            self.evictions += 1
        self._d[key] = (value, size)
        self.bytes += size


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
