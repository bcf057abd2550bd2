"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts one of these per repetition; it can be run by hand::

    python3 perfbench/worker.py --workload sim-steady-n4 --seed 1 --kind run

``--kind run`` measures untraced (in model mode with the host-speed probe
of ``probe.py``), ``traced`` installs the layer wrappers of ``layers.py``
first, and ``setup`` stops once the cluster is ready.  The
last line of standard output is one JSON object with the measurements.
``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (the monotonic clock is system-wide), so set-up time includes
interpreter start-up.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Span files of traced repetitions (one per workload, overwritten).
OUT = HERE / "out"


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def in_window_latencies(collector) -> list:
    """Client latencies (s) of replies inside the measurement window, sorted."""
    lo, hi = collector.window_start, collector.window_end
    return sorted(lat for now, lat in collector.latencies if lo <= now <= hi)


def percentile(samples: list, q: float) -> float:
    """The collector's own rule: the sample at index int(q * n)."""
    return samples[min(len(samples) - 1, int(q * len(samples)))]


def cluster_stats(replicas, clients, collector, fabric, events, observer_id, metrics) -> dict:
    """Counts read from the program's stats objects after the run.

    In model mode every value here is a function of the seed alone; the
    parent compares them across repetitions, traced and untraced.
    """
    observer = replicas[observer_id]
    latencies = in_window_latencies(collector)
    pacemakers = [r.pacemaker.stats for r in replicas.values()]
    syncs = [r.sync.stats for r in replicas.values()]
    checkpoints = [r.checkpoint.stats for r in replicas.values()]
    mempools = [r.mempool for r in replicas.values()]
    per_type = dict(sorted(fabric.per_type_counts.items()))
    return {
        "committed_tx_window": metrics.committed_transactions,
        "committed_tx_run": observer.stats.transactions_committed,
        "throughput_tps": metrics.throughput_tps,
        "latency_samples": len(latencies),
        "latency_p50_s": percentile(latencies, 0.50) if latencies else 0.0,
        "latency_p99_s": percentile(latencies, 0.99) if latencies else 0.0,
        "latency_mean_s": metrics.mean_latency,
        "requests_sent": sum(c.requests_sent for c in clients),
        "replies_committed": sum(c.replies_committed for c in clients),
        "replies_rejected": sum(c.replies_rejected for c in clients),
        "requests_timed_out": sum(c.requests_timed_out for c in clients),
        "messages_sent": fabric.messages_sent,
        "bytes_sent": fabric.bytes_sent,
        "reconnects": getattr(fabric, "reconnects", 0),
        "per_type_counts": per_type,
        "events": events,
        "blocks_committed": observer.stats.blocks_committed,
        "blocks_forked": len(collector.blocks_forked),
        "highest_view": observer.pacemaker.stats.highest_view,
        "local_timeouts": sum(p.local_timeouts for p in pacemakers),
        "view_changes_on_tc": sum(p.view_changes_on_tc for p in pacemakers),
        "sync_rounds": sum(s.fetch_rounds for s in syncs),
        "sync_blocks_fetched": sum(s.blocks_fetched for s in syncs),
        "checkpoints_taken": sum(c.checkpoints_taken for c in checkpoints),
        "snapshots_installed": sum(c.snapshots_installed for c in checkpoints),
        "peak_forest_blocks": max(
            [c.peak_forest_blocks for c in checkpoints]
            + [len(r.forest) for r in replicas.values()]
        ),
        "operations_applied": sum(r.kvstore.operations_applied for r in replicas.values()),
        "mempool_added": sum(m.total_added for m in mempools),
        "mempool_rejected": sum(m.total_rejected for m in mempools),
        "safety_violations": metrics.safety_violations
        + sum(r.stats.safety_violations for r in replicas.values()),
    }


def run_model(api, workload, seed: int, kind: str) -> dict:
    """Run through ``api.run(config, scenario=...)``; time the cluster build.

    Untraced runs are timed with the host-speed probe (``probe.py``) from
    the end of the build to the return of ``api.run``.
    """
    from repro.scenario.runner import ScenarioRunner

    from probe import HostProbe

    marks = {}
    build = ScenarioRunner.build

    def timed_build(runner):
        marks["build_start"] = time.monotonic()
        cluster = build(runner)
        marks["ready"] = time.monotonic()
        marks["cluster"] = cluster
        if kind == "run":
            marks["probe"] = HostProbe()
            marks["probe"].start()
        marks["run_start"] = time.perf_counter()
        return cluster

    ScenarioRunner.build = timed_build
    config = workload.config(seed)
    if kind == "setup":
        api.build(config, scenario=workload.scenario)
        return {"marks": marks}
    cpu_start = time.process_time()
    try:
        result = api.run(config, scenario=workload.scenario)
        wall = time.perf_counter() - marks["run_start"]
    finally:
        if "probe" in marks:
            marks["probe"].stop()
    cluster, probe = marks["cluster"], marks.get("probe")
    return {
        "marks": marks,
        "run_wall_s": wall - probe.total_s if probe else wall,
        "run_cpu_s": time.process_time() - cpu_start,
        "reference_s": probe.reference_s(wall) if probe else None,
        "probe_round_s": probe.mean_round_s if probe else None,
        "horizon_s": result.scenario.horizon(result.config),
        "consistent": result.consistent,
        "decode_errors": 0,
        "stats": cluster_stats(
            cluster.replicas, cluster.clients, cluster.metrics, cluster.network.stats,
            cluster.scheduler.processed_events, cluster.observer_id, result.metrics,
        ),
        "issuing_s": result.config.warmup + result.config.runtime,
        "arrival_rate": result.config.arrival_rate,
    }


async def _deploy(config, setup_only: bool) -> dict:
    from repro.transport.runtime import DeploymentRunner

    marks = {"build_start": time.monotonic()}
    runner = DeploymentRunner(config)
    try:
        await runner.start()
        marks["ready"] = time.monotonic()
        if setup_only:
            return {"marks": marks}
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        await runner.run()
    finally:
        await runner.stop()
    wall = time.perf_counter() - wall_start
    result = runner.result(wall)
    return {
        "marks": marks,
        "window": (wall_start, wall_start + wall),
        "run_wall_s": wall,
        "run_cpu_s": time.process_time() - cpu_start,
        # A deploy run lasts its horizon in wall time: no host-speed probe.
        "reference_s": wall,
        "probe_round_s": None,
        "horizon_s": config.total_duration,
        "consistent": result.consistent,
        "decode_errors": runner.transport.stats.decode_errors,
        "stats": cluster_stats(
            runner.replicas, runner.clients, runner.metrics, runner.transport.stats,
            runner.clock.processed_events, runner.observer_id, result.metrics,
        ),
        "latencies": in_window_latencies(runner.metrics),
        "issuing_s": config.warmup + config.runtime,
        "arrival_rate": config.arrival_rate,
    }


def run_deploy(api, workload, seed: int, kind: str) -> dict:
    """Run through ``DeploymentRunner``: start, horizon, stop."""
    config = api.Configuration.from_dict(workload.config(seed))
    return asyncio.run(_deploy(config, setup_only=kind == "setup"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("run", "traced", "setup"), default="run")
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.monotonic()

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    from repro import api

    imported = time.monotonic()
    import_mb = rss_mb()
    recorder = None
    if args.kind == "traced":
        from layers import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    runner = run_deploy if workload.mode == "deploy" else run_model
    out = runner(api, workload, args.seed, args.kind)
    marks = out.pop("marks")
    report = {
        "kind": args.kind,
        "setup_s": marks["ready"] - spawned,
        "import_s": imported - spawned,
        "build_s": marks["ready"] - marks["build_start"],
        "import_mb": import_mb,
        "peak_rss_mb": peak_rss_mb(),
    }
    window = out.pop("window", None)
    report.update(out)
    if recorder is not None:
        totals = recorder.layer_totals(run_window=window)
        totals["encoded_bytes"] = recorder.encoded_bytes
        totals["applies_useful"] = recorder.applies_useful
        lags = sorted(recorder.timer_lags)
        totals["timer_lag_p50_s"] = percentile(lags, 0.50) if lags else 0.0
        totals["timer_lag_p99_s"] = percentile(lags, 0.99) if lags else 0.0
        report["trace"] = totals
        OUT.mkdir(exist_ok=True)
        recorder.save(OUT / f"{args.workload}.spans.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
