#!/usr/bin/env python3
"""The repository benchmark: one workload, measured from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload sim-steady-n4 --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``perfbench/worker.py``), one
at a time, so that set-up time and peak RSS are per process and runs do not
drift inside one process.  Repetitions continue until ``--seconds`` would be
exceeded (at least ``min_reps`` of them).  Model-mode run times are
reported at reference host speed (``perfbench/probe.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced and
untraced repetitions in interleaved pairs and reports the per-layer metrics
(``perfbench/layers.py``) plus the tracing overhead.  Both check the
program's outputs and exit 1 if a check fails.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (worker processes
run), ``failed`` (repetitions that failed a check) and ``metrics``.

See ``perfbench/README.md`` for the workloads, the metric definitions and
the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Hard ceiling on one invocation, below the 180 s a run may take.
DEADLINE_S = 170.0
#: Safety valve on repetitions per invocation.
MAX_REPS = 64
#: Fewest traced/untraced pairs for the tracing-overhead median.
MIN_PAIRS = 2
#: In-window replies a run must pool before it stops, so that
#: ``latency_p99_ms`` has at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero, timed out or printed no result."""


def spawn(workload: str, seed: int, kind: str, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"out of time before a {kind} repetition of {workload}")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--kind", kind,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)], cwd=ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{kind} repetition of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{kind} repetition of {workload} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    report = json.loads(lines[-1])
    report["elapsed_s"] = time.monotonic() - spawned
    return report


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def check_runs(workload, reps: list) -> list:
    """Failed checks as (repetition index or None, message); empty if all hold."""
    problems = []
    for i, rep in enumerate(reps):
        stats = rep["stats"]
        if not rep["consistent"]:
            problems.append((i, "honest replicas' committed chains diverge"))
        if stats["safety_violations"]:
            problems.append((i, f"{stats['safety_violations']} safety violations"))
        if stats["committed_tx_window"] <= 0:
            problems.append((i, "committed no transaction in the window"))
        if rep["decode_errors"]:
            problems.append((i, f"{rep['decode_errors']} transport decode errors"))
    if workload.mode == "model":
        # The simulation is a function of the seed: every repetition, traced
        # or not, must produce the same simulated outputs.
        reference = reps[0]["stats"]
        for i, rep in enumerate(reps[1:], start=1):
            if rep["stats"] != reference:
                diff = sorted(k for k in reference if rep["stats"].get(k) != reference[k])
                problems.append((i, f"simulated outputs differ from repetition 0 in {diff}"))
    return problems


# ----------------------------------------------------------------------
# end-to-end metrics (untraced repetitions)
# ----------------------------------------------------------------------
def latency_sample_count(reps: list) -> int:
    """In-window replies behind the latency percentiles: pooled over the
    repetitions in deploy mode; one repetition's in model mode, where every
    repetition simulates the same replies."""
    if "latencies" in reps[0]:
        return sum(len(rep["latencies"]) for rep in reps)
    return reps[0]["stats"]["latency_samples"]


def cost_per_tx(rep: dict) -> float:
    """Run-phase wall seconds per transaction the observer committed."""
    return rep["run_wall_s"] / rep["stats"]["committed_tx_run"]


def end_to_end(reps: list, probes: list) -> tuple:
    """(metric values, latency sample count) from untraced repetitions."""
    if "latencies" in reps[0]:
        pooled = sorted(lat for rep in reps for lat in rep["latencies"])
        p50, p99 = percentile(pooled, 0.50), percentile(pooled, 0.99)
    else:
        p50, p99 = reps[0]["stats"]["latency_p50_s"], reps[0]["stats"]["latency_p99_s"]
    sent = sum(rep["stats"]["requests_sent"] for rep in reps)
    served = sum(rep["stats"]["replies_committed"] for rep in reps)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps + probes),
        "ref_s_per_sim_s": statistics.median(r["reference_s"] / r["horizon_s"] for r in reps),
        "ref_us_per_tx": statistics.median(
            r["reference_s"] / r["stats"]["committed_tx_run"] * 1e6 for r in reps
        ),
        "tx_per_s": statistics.fmean(r["stats"]["throughput_tps"] for r in reps),
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "served_share": served / sent,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return values, latency_sample_count(reps)


def send_shortfall(rep: dict) -> float:
    """1 - requests sent / requests due, for open-loop (scheduled) clients."""
    if rep["arrival_rate"] <= 0:
        return 0.0
    return 1.0 - rep["stats"]["requests_sent"] / (rep["arrival_rate"] * rep["issuing_s"])


def failed_share(rep: dict) -> float:
    """(client request timeouts + mempool rejections) / requests sent."""
    stats = rep["stats"]
    return (stats["requests_timed_out"] + stats["replies_rejected"]) / stats["requests_sent"]


# ----------------------------------------------------------------------
# per-layer metrics (traced repetitions)
# ----------------------------------------------------------------------
def layer_metrics(traced: dict, untraced: list) -> dict:
    """Per-layer values of one traced repetition (see README for each)."""
    stats, trace = traced["stats"], traced["trace"]
    layers, by_name = trace["layers"], trace["by_name"]
    tx = stats["committed_tx_run"]
    sent = stats["requests_sent"]
    messages = stats["messages_sent"]
    per_type = stats["per_type_counts"]
    applies = by_name["executor:KeyValueStore.apply"]["calls"]
    verifies = [v for k, v in by_name.items() if k.endswith(".verify_tag")]
    verify_calls = sum(v["calls"] for v in verifies)
    mempool_attempts = stats["mempool_added"] + stats["mempool_rejected"]
    values = {
        "sim.events": stats["events"],
        "sim.events_per_s": statistics.median(
            r["stats"]["events"] / r["run_wall_s"] for r in untraced
        ),
        "network.msgs_per_tx": messages / tx,
        "network.bytes_per_tx": stats["bytes_sent"] / tx,
        "network.client_msg_share": (
            per_type.get("ClientRequest", 0) + per_type.get("ClientReply", 0)
        ) / messages,
        "client.requests_sent": sent,
        "client.timeouts": stats["requests_timed_out"],
        "client.rejections": stats["replies_rejected"],
        "client.failed_share": failed_share(traced),
        "client.send_shortfall": statistics.median(send_shortfall(r) for r in untraced),
        "client.latency_samples": stats["latency_samples"],
        "mempool.rejected_share": stats["mempool_rejected"] / mempool_attempts,
        "executor.applies_per_tx": applies / tx,
        "executor.useful_share": trace["applies_useful"] / applies if applies else 0.0,
        "forest.blocks_forked": stats["blocks_forked"],
        "forest.peak_blocks": stats["peak_forest_blocks"],
        "pacemaker.local_timeouts": stats["local_timeouts"],
        "pacemaker.view_changes_on_tc": stats["view_changes_on_tc"],
        "pacemaker.views_per_block": stats["highest_view"] / stats["blocks_committed"],
        "sync.rounds": stats["sync_rounds"],
        "sync.blocks_fetched": stats["sync_blocks_fetched"],
        "checkpoint.taken": stats["checkpoints_taken"],
        "checkpoint.snapshots_installed": stats["snapshots_installed"],
        "crypto.sign_calls": by_name["crypto.signs"]["calls"],
        "crypto.verify_calls": verify_calls,
        "crypto.us_per_verify": (
            sum(v["total_s"] for v in verifies) * 1e6 / verify_calls if verify_calls else 0.0
        ),
        "codec.bytes_per_tx": trace["encoded_bytes"] / tx,
        "transport.reconnects": stats["reconnects"],
        "transport.timer_lag_p50_ms": trace["timer_lag_p50_s"] * 1e3,
        "transport.timer_lag_p99_ms": trace["timer_lag_p99_s"] * 1e3,
    }
    for layer, totals in layers.items():
        values[f"{layer}.self_s"] = totals["self_s"]
        # sim, sync, checkpoint and crypto report their work as the
        # domain counts above instead.
        if layer not in ("sim", "sync", "checkpoint", "crypto"):
            values[f"{layer}.calls"] = totals["calls"]
    return values


def per_layer(pairs: list) -> dict:
    """Medians over the traced repetitions, plus set-up, memory and overhead."""
    untraced = [p["run"] for p in pairs]
    traced = [p["traced"] for p in pairs]
    rows = [layer_metrics(t, untraced) for t in traced]
    values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    values.update({
        "setup.import_s": statistics.median(r["import_s"] for r in untraced),
        "setup.build_s": statistics.median(r["build_s"] for r in untraced),
        "memory.import_mb": statistics.median(r["import_mb"] for r in untraced),
        "memory.run_mb": statistics.median(r["peak_rss_mb"] - r["import_mb"] for r in untraced),
        "host.wall_s_per_sim_s": statistics.median(
            r["run_wall_s"] / r["horizon_s"] for r in untraced
        ),
        "host.probe_round_us": statistics.median(
            (r["probe_round_s"] or 0.0) * 1e6 for r in untraced
        ),
    })
    # Per committed transaction: a deploy run lasts its configured wall time
    # whatever tracing costs, so there the overhead shows as fewer commits.
    overheads = [
        (cost_per_tx(p["traced"]) / cost_per_tx(p["run"]) - 1.0) * 100.0 for p in pairs
    ]
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    values["trace.overhead_pct"] = statistics.median(overheads)
    values["trace.overhead_iqr_pct"] = q3 - q1
    return values


# ----------------------------------------------------------------------
# measurement loops and entry point
# ----------------------------------------------------------------------
def measure_untraced(workload, seed: int, seconds: float, deadline: float) -> tuple:
    """Set-up probes plus full repetitions until ``seconds`` is used up."""
    started = time.monotonic()
    probes = [spawn(workload.name, seed, "setup", deadline) for _ in range(workload.setup_probes)]
    reps = []
    while len(reps) < MAX_REPS:
        reps.append(spawn(workload.name, seed, "run", deadline))
        elapsed = time.monotonic() - started
        if len(reps) < workload.min_reps:
            continue
        if latency_sample_count(reps) < MIN_LATENCY_SAMPLES:
            continue
        if elapsed + reps[-1]["elapsed_s"] > seconds:
            break
    return reps, probes


def measure_traced(workload, seed: int, seconds: float, deadline: float) -> list:
    """Interleaved (untraced, traced) pairs, alternating which runs first."""
    started = time.monotonic()
    pairs = []
    while len(pairs) < MAX_REPS:
        order = ("run", "traced") if len(pairs) % 2 == 0 else ("traced", "run")
        pair = {kind: spawn(workload.name, seed, kind, deadline) for kind in order}
        pairs.append(pair)
        elapsed = time.monotonic() - started
        if len(pairs) >= MIN_PAIRS and elapsed + elapsed / len(pairs) > seconds:
            break
    return pairs


def declared_units(section: str) -> dict:
    """name -> unit of every metric ``BENCHMARK.json`` declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def print_table(title: str, values: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {values[name]:>16.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            pairs = measure_traced(workload, args.seed, args.seconds, deadline)
            reps = [p[kind] for p in pairs for kind in ("run", "traced")]
            probes = []
        else:
            reps, probes = measure_untraced(workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = check_runs(workload, reps)
    untraced = [r for r in reps if r["kind"] == "run"]
    print(f"perfbench: {workload.name} seed {args.seed}: "
          f"{len(untraced)} untraced, {len(reps) - len(untraced)} traced repetitions, "
          f"{len(probes)} set-up probes")
    if args.trace:
        metrics, units, notes = per_layer(pairs), declared_units("per_layer"), {}
        ranking = sorted(
            ((name[:-len(".self_s")], value) for name, value in metrics.items()
             if name.endswith(".self_s")),
            key=lambda item: -item[1],
        )
        print("  self-time ranking: " + ", ".join(f"{n} {v:.3f}s" for n, v in ranking[:6]))
    else:
        metrics, count = end_to_end(untraced, probes)
        units = declared_units("end_to_end")
        if count < MIN_LATENCY_SAMPLES:
            problems.append((None, f"p99 rests on {count} replies, fewer than "
                                   f"{MIN_LATENCY_SAMPLES}"))
        notes = {
            "latency_p50_ms": f"n={count}",
            "latency_p99_ms": f"n={count}, {count - int(0.99 * count)} beyond it",
        }
        shortfall = statistics.median(map(send_shortfall, untraced))
        failed = statistics.median(map(failed_share, untraced))
        print(f"  client.send_shortfall {shortfall:.4f}, "
              f"(timeouts + rejections) / sent {failed:.4f}")
    if set(metrics) != set(units):
        print(f"perfbench: measured and declared metrics differ: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print_table("metrics:", metrics, units, notes)
    for index, problem in problems:
        where = "" if index is None else f"{reps[index]['kind']} repetition {index}: "
        print(f"perfbench: CHECK FAILED: {where}{problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps) + len(probes),
        "failed": len({index for index, _ in problems if index is not None}),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
