"""Driver-side spans, Ray timeline busy time and process memory.

Spans are recorded by wrapping the program's public functions and layer
boundaries from the benchmark (the program itself is not edited). Code
that runs inside Ray tasks is never patched: the package ships its
closures to workers by value, so a worker-side patch would not reach
them. Worker-side busy time comes from ``ray.timeline()`` task events
instead.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder. Each wrapped call records its self time
    (wall minus the wall of wrapped calls it made) and, for ``window``
    spans, its start and end;
    ``count`` callbacks add layer counters from the call's arguments and
    result. ``enabled`` switches recording without unwrapping."""

    def __init__(self):
        self.enabled = False
        self.self_s = defaultdict(float)    # span name -> self seconds
        self.counters = defaultdict(float)
        self.windows: list[tuple[str, float, float]] = []
        self._stack: list[float] = []       # child seconds per open span
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code (a leaf: nothing inside is
        subtracted from its self time unless it is itself a span)."""
        if not self.enabled:
            yield
            return
        self._stack.append(0.0)
        t0, w0 = time.perf_counter(), time.time()
        try:
            yield
        finally:
            self._close(name, t0, w0, window=True)

    def _close(self, name: str, t0: float, w0: float, window: bool) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.self_s[name] += dt - child
        if window:
            self.windows.append((name, w0, w0 + dt))

    def wrap(self, owner, attr: str, name: str, count=None,
             window: bool = False) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            t0, w0 = time.perf_counter(), time.time()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, t0, w0, window)
            if count is not None:
                for key, v in count(args, kwargs, out).items():
                    tracer.counters[key] += v
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from search_engines_ray.index import build, reader
    from search_engines_ray.query import distributed, eval as qeval, parser

    R = reader.IndexReader
    tracer.wrap(reader, "decode_postings", "index.varbyte.decode")
    tracer.wrap(R, "postings_many", "index.reader.postings",
                count=lambda a, k, out: {
                    "index.reader.postings_terms": len(set(a[1]))})
    tracer.wrap(R, "doclens_for", "index.reader.doclens")
    tracer.wrap(R, "external_ids_for", "index.reader.external_ids")
    tracer.wrap(parser.QueryParser, "parse", "query.parser.parse")

    def fetch_counts(a, k, out):
        return {"query.eval.term_lookups": len(out),
                "query.eval.postings_examined":
                    sum(int(inv.docids.size) for inv in out.values())}
    tracer.wrap(qeval.QueryEngine, "search", "query.eval.search",
                count=lambda a, k, out: {"query.eval.results": out.num_rows})
    tracer.wrap(qeval.QueryEngine, "_fetch", "query.eval.fetch",
                count=fetch_counts)

    for fn in ("bm25_batch_search", "indri_batch_search",
               "bm25_structured_batch_search",
               "indri_structured_batch_search"):
        tracer.wrap(distributed, fn, "query.distributed.prep", window=True)
    rows = lambda a, k, out: {"query.distributed.candidate_rows":
                              out.num_rows}
    tracer.wrap(distributed, "_run_salt_tasks", "query.distributed.salt_tasks",
                count=rows)
    tracer.wrap(distributed, "_derive_lists", "query.distributed.salt_tasks")
    tracer.wrap(distributed, "_emit_ranked", "query.distributed.emit")

    tracer.wrap(build, "build_index", "index.build", window=True)


# ---- Ray timeline -------------------------------------------------------

_SHUFFLE = ("sort_task_spec", "shuffle_task_spec", "push_based_shuffle",
            "_split_single_block", "_sample_fragment")


def task_events(windows: list[tuple[float, float]]) -> dict:
    """Completed task events of the session that started inside one of
    ``windows`` (epoch seconds): ``{"op", "fn", "start", "busy"}`` per
    task, the Ray per-task phases (argument deserialisation, output
    store) as ``phases`` and summed as ``overhead_s``, and the number of
    task executions."""
    import ray
    events = ray.timeline()
    tasks, phases, overhead, n_exec = [], [], 0.0, 0
    us = [(a * 1e6, b * 1e6) for a, b in windows]
    for ev in events:
        ts, dur = ev.get("ts"), ev.get("dur")
        if ts is None or dur is None or not any(a <= ts < b for a, b in us):
            continue
        cat = ev.get("cat", "")
        if cat in ("task:deserialize_arguments", "task:store_outputs"):
            overhead += dur / 1e6
            phases.append({"start": ts / 1e6, "busy": dur / 1e6})
        elif cat == "task:execute":
            n_exec += 1
        elif cat.startswith("task::"):
            tasks.append({"op": cat[6:], "fn": ev.get("name", ""),
                          "start": ts / 1e6, "busy": dur / 1e6})
    return {"tasks": tasks, "phases": phases, "overhead_s": overhead,
            "n_tasks": n_exec}


def is_shuffle(task: dict) -> bool:
    return any(s in task["fn"] for s in _SHUFFLE)


def busy(tasks: list[dict], pred) -> float:
    return sum(t["busy"] for t in tasks if pred(t))


def within(task: dict, windows: list[tuple[float, float]]) -> bool:
    return any(a <= task["start"] < b for a, b in windows)


# ---- memory ---------------------------------------------------------------

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids[ppid].append(int(d))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    """Every live process below ``pid`` (default: this one) — the local
    Ray cluster's gcs, raylet and workers when ``ray.init`` started it."""
    kids, out = _children(), []
    todo = [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class CpuMeter:
    """CPU seconds (user + system) spent by this process and by the Ray
    worker processes below it (command line ``ray::...``). The kernel
    does not charge a process for time the hypervisor steals, so these
    stay steady on a contended host where wall times do not. The raylet,
    GCS and other Ray daemons are left out: theirs is a per-second
    background, not work an operation asks for. The worker list is
    refreshed at most every ``refresh_s``; a worker is counted from the
    first reading that sees it."""

    def __init__(self, refresh_s: float = 1.0):
        self.refresh_s = refresh_s
        self._pids: list[int] = []
        self._listed = float("-inf")

    def _workers(self) -> list[int]:
        out = []
        for pid in descendants():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if fh.read(5) == b"ray::":
                        out.append(pid)
            except OSError:
                pass
        return out

    def read(self) -> dict[int, float]:
        """CPU seconds so far per process (this process under key 0)."""
        if time.monotonic() - self._listed > self.refresh_s:
            self._pids, self._listed = self._workers(), time.monotonic()
        out = {0: time.process_time()}
        for pid in self._pids:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    f = fh.read().rsplit(")", 1)[1].split()
                out[pid] = (int(f[11]) + int(f[12])) * _TICK_S
            except (OSError, IndexError, ValueError):
                pass
        return out

    @staticmethod
    def spent(before: dict[int, float], after: dict[int, float]) -> float:
        return sum(v - before[p] for p, v in after.items() if p in before)


def host_ticks() -> list[int]:
    """The machine-wide CPU tick counters of ``/proc/stat``."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time the hypervisor took between two
    ``host_ticks`` readings."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(1, sum(d[:8]))


def _anon_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemSampler:
    """Peak of the summed anonymous RSS (heap; object-store shared memory
    and mapped files excluded) of this process and every process below
    it, sampled every ``period`` seconds while running."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        pids = [os.getpid()] + descendants()
        self.peak_kb = max(self.peak_kb, sum(_anon_kb(p) for p in pids))

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()
