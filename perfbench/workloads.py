"""The benchmark's workloads: what each runs, and why it is in the set.

Every workload is a function of the benchmark seed only: ``config(seed)``
returns the plain configuration dict the program receives, and
``scenario`` the fault schedule (model mode).  The rationale, the layer
shares that motivated each workload and the layer -> end-to-end mapping
are in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One named workload: mode, configuration, scenario, repetition policy."""

    name: str
    #: "model" runs through ``repro.api.run(config, scenario=...)``;
    #: "deploy" through ``repro.transport.runtime.DeploymentRunner``.
    mode: str
    config: Callable[[int], Dict]
    scenario: Optional[Dict]
    #: Fewest full repetitions one benchmark run makes, whatever ``--seconds``.
    min_reps: int
    #: Set-up-only repetitions (fresh interpreter to cluster ready, no run)
    #: added so that ``setup_s`` is a median of at least five set-ups.
    setup_probes: int = 0


def _steady(seed: int) -> Dict:
    # The tools/perf_smoke.py ``hotstuff_n4_b400`` case, lengthened from
    # 2.4 to 13 simulated seconds.
    return {
        "protocol": "hotstuff", "num_nodes": 4, "block_size": 400,
        "payload_size": 0, "num_clients": 2, "concurrency": 200,
        "runtime": 12.0, "warmup": 0.5, "cooldown": 0.5,
        "cost_profile": "standard", "view_timeout": 0.5,
        "mempool_capacity": 4000, "seed": seed,
    }


def _attack(seed: int) -> Dict:
    return {
        "protocol": "hotstuff", "num_nodes": 16, "byzantine_nodes": 4,
        "strategy": "forking", "election": "round-robin",
        "block_size": 400, "payload_size": 128, "num_clients": 2,
        "arrival_rate": 600.0, "request_timeout": 2.0,
        "checkpoint_interval": 10,
        "runtime": 14.5, "warmup": 0.5, "cooldown": 0.5,
        "cost_profile": "standard", "view_timeout": 0.5,
        "mempool_capacity": 4000, "seed": seed,
    }


def _deploy(seed: int) -> Dict:
    # bench_fig8_impl.py's base configuration at its top arrival rate.  The
    # first ~3 s after start-up run slower (connections, first signature
    # checks), and those replies made the whole p99 tail: warm up past them.
    return {
        "protocol": "hotstuff", "num_nodes": 4, "block_size": 50,
        "payload_size": 0, "num_clients": 2, "arrival_rate": 60.0,
        "view_timeout": 1.0, "request_timeout": 2.0,
        "mempool_capacity": 2000, "signing": "auto", "mode": "deploy",
        "runtime": 12.0, "warmup": 3.0, "cooldown": 1.0, "seed": seed,
    }


#: Honest r11 crashes at 3 s and recovers at 8 s: it catches up by
#: installing a peer checkpoint (snapshot sync) and then fetching blocks.
_CRASH_RECOVER = {
    "name": "crash-recover-r11",
    "events": [
        {"kind": "crash-replica", "at": 3.0, "replica": "r11"},
        {"kind": "recover-replica", "at": 8.0, "replica": "r11"},
    ],
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim-steady-n4", "model", _steady,
                 {"name": "steady", "events": []}, min_reps=3),
        Workload("sim-attack-n16", "model", _attack, _CRASH_RECOVER, min_reps=3),
        Workload("deploy-n4", "deploy", _deploy, None, min_reps=2, setup_probes=3),
    )
}
