"""Layer-resolved benchmark of search_engines_ray.

    python3 perfbench/run.py --workload build --seed 1 --seconds 8 --trace 0

Run from the repository root. One process is one closed-loop client with
one outstanding operation against a local Ray session pinned to
``NUM_CPUS`` CPUs. ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics (see README.md). The last stdout line is the
JSON result; the line before it gives sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 2**20
HARD_LIMIT_S = 170
# set-up passes per run; ``setup_s`` is Ray start plus their median plus
# the one warm-up pass that follows them
SETUP_REPEATS = 3
# a run times at least this many operations, so no median rests on fewer
# samples (one dedup pass takes 2.5-7 s); a traced run at least
# ``MIN_TRACED_OPS``, half of them traced, so the tracing overhead
# compares medians of three or more
MIN_OPS = 4
MIN_TRACED_OPS = 6
# A shared host's other tenants slow the CPU under the benchmark: the same
# operation costs more CPU time when they are busy, and the hypervisor's
# steal share (``/proc/stat``) rises with their load. Over 60 runs of all
# four workloads on a 4-vCPU VM with steal shares from 0.01 to 0.29, CPU
# time per operation followed c0 * (1 + K * steal) with K between 1.9 and
# 2.3 per workload. The bounded CPU metrics divide by (1 + 2 * steal): on
# those runs that cut the ten-run spread (IQR / median) of the median
# operation's CPU time from 0.09-0.39 to 0.03-0.11. Without steal the
# factor is 1; the unadjusted figures are in the detail line.
CONTENTION_K = 2.0
# unix socket paths under Ray's temp dir must stay below 108 bytes
MAX_RAY_TEMP_LEN = 40


class Failed(Exception):
    pass


def _alarm(signum, frame):
    raise Failed(f"run exceeded {HARD_LIMIT_S} s")


def pin_environment() -> dict:
    env = {"RAY_DATA_PUSH_BASED_SHUFFLE": "0",
           # task events reach ray.timeline() within 0.1 s
           "RAY_task_events_report_interval_ms": "100",
           # workers import the package from this checkout, whatever
           # their working directory
           "PYTHONPATH": os.pathsep.join(
               [ROOT] + [p for p in os.environ.get("PYTHONPATH", "")
                         .split(os.pathsep) if p])}
    os.environ.update(env)
    return env


def start_ray(work: str) -> tuple[float, dict]:
    import logging

    import ray
    temp = os.path.join(os.path.dirname(work), "ray")
    kwargs = {}
    if len(temp) <= MAX_RAY_TEMP_LEN:
        kwargs["_temp_dir"] = temp
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=NUM_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, **kwargs)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ray_start = time.perf_counter() - t0
    return ray_start, {"num_cpus": NUM_CPUS,
                       "object_store_bytes": OBJECT_STORE_BYTES,
                       "ray_temp_dir": kwargs.get("_temp_dir", "default"),
                       "progress_bars": False}


def stop_ray() -> None:
    """Shut the local cluster down and wait until each of its processes
    has ended (SIGKILL for any that outlive the grace period)."""
    import ray

    from perfbench.spans import descendants
    pids = descendants()
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.time() + 15
    while True:
        alive = [p for p in pids if _alive(p)]
        if not alive:
            return
        if time.time() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.time() + 5
        time.sleep(0.05)
        for p in alive:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def pct(values: list[float], q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")
                 [int(q) - 1]) if len(values) > 1 else float(values[0])


def timed_loop(wl, seconds: float, failures: dict,
               traced=lambda i: False, min_ops: int = 1) -> dict:
    """Closed loop: the next operation starts when the previous one has
    returned. Stops once the operations' own time reaches ``seconds`` and
    at least ``min_ops`` have run; output checks between operations are
    not timed. Operation ``i`` is recorded by the tracer when
    ``traced(i)``."""
    from perfbench.spans import CpuMeter
    lat, cpu, windows, items, i = [], [], [], 0, 0
    meter = CpuMeter()
    while sum(lat) < seconds or i < min_ops:
        wl.tracer.enabled = traced(i)
        c0 = meter.read()
        w0, t0 = time.time(), time.perf_counter()
        items += wl.op(i)
        lat.append(time.perf_counter() - t0)
        cpu.append(meter.spent(c0, meter.read()))
        windows.append((w0, w0 + lat[-1]))
        wl.tracer.enabled = False
        bad = wl.verify(i)
        if bad:
            failures[i] = bad
        i += 1
    return {"lat": lat, "cpu": cpu, "windows": windows, "items": items}


def end_to_end(loop: dict, setup_s: float, peak_kb: int,
               steal: float) -> dict:
    """CPU metrics adjusted for host contention (``CONTENTION_K``). No
    p95 here: ``build`` and ``dedup`` time four to eight operations a run,
    so their p95 is the slowest one and too noisy to bound. Every
    percentile, p95 included, is in the detail line (``wall_times``)."""
    cpu, adj = loop["cpu"], 1 + CONTENTION_K * steal
    return {"setup_s": (setup_s, "s"),
            "items_per_adj_cpu_s": (loop["items"] * adj / sum(cpu), "1/s"),
            "op_adj_cpu_p50_ms": (pct(cpu, 50) / adj * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB")}


def wall_times(loop: dict) -> dict:
    """The wall-clock and unadjusted CPU view of the same operations,
    with sample counts."""
    lat = loop["lat"]
    out = {"items_per_s": loop["items"] / sum(lat),
           "items_per_cpu_s": loop["items"] / sum(loop["cpu"])}
    for name, xs in (("op", lat), ("op_cpu", loop["cpu"])):
        for q in (50, 95):
            v = pct(xs, q)
            out[f"{name}_p{q}_ms"] = {"value": v * 1e3, "samples": len(xs),
                                      "beyond": sum(x > v for x in xs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("search_engines_ray/__init__.py", "tests/oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, ROOT)
    from perfbench import layers, spans
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = pin_environment()
    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(HARD_LIMIT_S)
    try:
        os.makedirs(work)
        ray_start, ray_env = start_ray(work)
        env.update(ray_env)
        wl = WORKLOADS[args.workload](args.seed, work, ROOT)
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare()
            prepare_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warm_up()
        warm_up_s = time.perf_counter() - t0
        setup_s = ray_start + statistics.median(prepare_s) + warm_up_s

        failures: dict[int, list[str]] = {}
        tracer = wl.tracer
        if args.trace:
            # odd operations traced, even ones not: host drift falls on
            # both halves alike
            spans.install(tracer)
            loop = timed_loop(wl, args.seconds, failures, lambda i: i % 2,
                              min_ops=MIN_TRACED_OPS)
        else:
            host0 = spans.host_ticks()
            with spans.MemSampler() as mem:
                loop = timed_loop(wl, args.seconds, failures,
                                  min_ops=MIN_OPS)
            steal = spans.steal_share(host0, spans.host_ticks())
        n_ops = len(loop["lat"])
        t0 = time.perf_counter()
        for i, bad in wl.final_checks().items():
            failures.setdefault(i, []).extend(bad)
        checks_s = time.perf_counter() - t0

        if args.trace:
            time.sleep(0.5)   # last task events reach the GCS
            metrics = layers.per_layer(wl, tracer, loop)
        else:
            metrics = end_to_end(loop, setup_s, mem.peak_kb, steal)
        tracer.unwrap_all()
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "ops": n_ops, "unit": wl.unit,
                  "fail_ratio": len(failures) / n_ops,
                  "failures": {str(i): b[:3] for i, b in
                               list(failures.items())[:5]},
                  "setup": {"ray_start_s": ray_start, "prepare_s": prepare_s,
                            "warm_up_s": warm_up_s},
                  "checks_s": checks_s,
                  "host_steal_share": None if args.trace else steal,
                  **wall_times(loop), **wl.detail(),
                  "env": env}
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        stop_ray()
        shutil.rmtree(os.path.dirname(work), ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures, "attempted": n_ops,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
