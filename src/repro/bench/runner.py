"""Experiment runner: wire a cluster from a configuration and run it.

``wire`` is the one cluster builder: it puts replicas, clients, and the
metrics collector on a clock and a transport (the seam of
:mod:`repro.transport.base`).  ``build_cluster`` hands it the
discrete-event scheduler and simulated network; the deployment runner
(:mod:`repro.transport.runtime`) an asyncio clock and TCP transport.  Every
protocol-, attack-, election-, delay-, and client-specific choice is a
registry lookup (see :mod:`repro.plugins`), so a new plugin plus a config
entry is all it takes to run a new experiment — no runner changes.

``run_experiment`` is the one run path: it runs a configuration, optionally
under a :class:`~repro.scenario.Scenario`, on the backend its ``mode``
names, and returns an :class:`ExperimentResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bench.config import Configuration, ConfigurationError
from repro.bench.metrics import MetricsCollector, RunMetrics, timeline_mean
from repro.bench.profiles import cost_profile
from repro.checkpoint.manager import CheckpointSettings, CheckpointStats
from repro.client.client import CLIENTS, ClientBase
from repro.client.workload import WorkloadSpec
from repro.core.byzantine import STRATEGIES
from repro.core.replica import Replica, ReplicaSettings
from repro.crypto.keys import KeyRegistry
from repro.election.election import make_election
from repro.network.delays import NoDelay, NormalDelay
from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.sync.manager import SyncSettings, SyncStats
from repro.types.sizes import SizeModel

if TYPE_CHECKING:
    from repro.scenario.runner import Scenario


@dataclass
class ExperimentResult:
    """Outcome of one run, in either mode, with or without a scenario."""

    config: Configuration
    metrics: RunMetrics
    consistent: bool
    highest_view: int
    timeline: List[Tuple[float, float]] = field(default_factory=list)
    #: The fault schedule the run executed under; None for a plain run.
    scenario: Optional["Scenario"] = None

    def mean_throughput(self, start: float, end: float) -> float:
        """Average Tx/s of the timeline buckets within [start, end)."""
        return timeline_mean(self.timeline, start, end)

    def to_dict(self) -> Dict:
        """Lossless JSON-compatible dict (the campaign record shape)."""
        data: Dict = {"config": self.config.to_dict()}
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        data["metrics"] = self.metrics.to_dict()
        data["consistent"] = self.consistent
        data["highest_view"] = self.highest_view
        data["timeline"] = [[t, tps] for t, tps in self.timeline]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        scenario = None
        if data.get("scenario") is not None:
            # Imported here: repro.scenario builds on this module.
            from repro.scenario.runner import Scenario

            scenario = Scenario.from_dict(data["scenario"])
        return cls(
            config=Configuration.from_dict(data["config"]),
            metrics=RunMetrics.from_dict(data["metrics"]),
            consistent=data["consistent"],
            highest_view=data["highest_view"],
            timeline=[(t, tps) for t, tps in data.get("timeline", [])],
            scenario=scenario,
        )


@dataclass
class Cluster:
    """A fully wired cluster ready to run.

    ``scheduler`` and ``network`` are the clock and transport the cluster
    was wired onto: the event scheduler and simulated network in model
    mode, the asyncio clock and TCP transport in deploy mode.
    """

    config: Configuration
    scheduler: EventScheduler
    streams: RandomStreams
    network: Network
    registry: KeyRegistry
    replicas: Dict[str, Replica]
    clients: List[ClientBase]
    metrics: MetricsCollector
    observer_id: str
    #: The installed :class:`repro.obs.Tracer`, or None (tracing disabled).
    #: Deliberately not part of the Configuration: run ids and stored
    #: records are identical with tracing on or off.
    tracer: Optional[object] = None

    def honest_replicas(self) -> List[Replica]:
        """Replicas that follow the protocol."""
        byzantine = set(self.config.byzantine_ids())
        return [r for rid, r in self.replicas.items() if rid not in byzantine]

    def start(self) -> None:
        """Start every replica and client."""
        for replica in self.replicas.values():
            replica.start()
        stop_time = self.config.warmup + self.config.runtime
        for client in self.clients:
            client.start(stop_time=stop_time)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation to ``until`` (default: the configured horizon)."""
        horizon = until if until is not None else self.config.total_duration
        self.scheduler.run_until(horizon)

    def consistency_check(self) -> bool:
        """True if every honest replica's committed chain is a consistent prefix."""
        honest = self.honest_replicas()
        if not honest:
            return True
        min_height = min(r.forest.committed_height for r in honest)
        reference = honest[0].forest.consistency_hash(min_height)
        return all(r.forest.consistency_hash(min_height) == reference for r in honest)

    def result(
        self,
        elapsed: float,
        horizon: float,
        bucket: float = 0.5,
        scenario: Optional["Scenario"] = None,
    ) -> ExperimentResult:
        """Summarize a run that lasted ``horizon`` and took ``elapsed`` wall seconds.

        The host-side quantities (wall clock, events/sec) live outside the
        canonical record serialization (see :attr:`RunMetrics.PERF_FIELDS`);
        they feed ``tools/perf_smoke.py``, not the stored campaign records.
        """
        metrics = self.metrics.summarize()
        metrics.wall_clock_seconds = elapsed
        metrics.events_per_second = (
            self.scheduler.processed_events / elapsed if elapsed > 0 else 0.0
        )
        observer = self.replicas[self.observer_id]
        return ExperimentResult(
            config=self.config,
            metrics=metrics,
            consistent=self.consistency_check(),
            highest_view=observer.pacemaker.stats.highest_view,
            timeline=self.metrics.throughput_timeline(bucket=bucket, end=horizon),
            scenario=scenario,
        )

    def sync_report(self) -> SyncStats:
        """Aggregate block-fetch counters across every replica."""
        total = SyncStats()
        for replica in self.replicas.values():
            stats = replica.sync.stats
            for name in vars(total):
                setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total

    def checkpoint_report(self) -> CheckpointStats:
        """Aggregate checkpoint counters across every replica.

        Counters sum; ``peak_forest_blocks`` takes the cluster-wide maximum
        (it is a bound, not a volume).
        """
        total = CheckpointStats()
        for replica in self.replicas.values():
            stats = replica.checkpoint.stats
            for name in vars(total):
                if name == "peak_forest_blocks":
                    total.peak_forest_blocks = max(
                        total.peak_forest_blocks, stats.peak_forest_blocks
                    )
                else:
                    setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total


def wire(config: Configuration, clock, transport, streams: RandomStreams) -> Cluster:
    """Wire replicas, clients, and metrics onto ``clock`` and ``transport``.

    The one cluster builder for both modes; the configuration must already
    be validated.  Keys use ``config.resolved_signing()`` in either mode.
    Replicas and clients pick up the process-global tracer (None unless
    :mod:`repro.obs` installed one); timestamps come from ``clock``, so
    deploy traces use wall time since start.
    """
    node_ids = config.node_ids()
    registry = KeyRegistry(deployment_seed=config.seed, scheme=config.resolved_signing())
    election = make_election(
        node_ids, master=config.master, kind=config.election, seed=config.seed
    )
    metrics = MetricsCollector(
        window_start=config.warmup, window_end=config.warmup + config.runtime
    )
    settings = ReplicaSettings(
        block_size=config.block_size,
        mempool_capacity=config.mempool_capacity,
        view_timeout=config.view_timeout,
        propose_wait_after_tc=config.propose_wait_after_tc,
        sync=SyncSettings(
            enabled=config.sync_enabled,
            max_batch=config.sync_max_batch,
            fanout=config.sync_fanout,
        ),
        checkpoint=CheckpointSettings(
            interval=config.checkpoint_interval,
            snapshot_sync=config.snapshot_sync_enabled,
        ),
        quorum_threshold=config.quorum_threshold,
    )
    # Deployed crypto/serialization cost is real wall-clock work; charging
    # the configured model on top would double-count it.
    costs = cost_profile("measured" if config.mode == "deploy" else config.cost_profile)
    sizes = SizeModel()
    byzantine = set(config.byzantine_ids())
    observer_id = node_ids[0]
    metrics.observer = observer_id
    tracer = obs_trace.ACTIVE

    replicas: Dict[str, Replica] = {}
    for node_id in node_ids:
        replica_cls = STRATEGIES.get(config.strategy) if node_id in byzantine else Replica
        replica = replica_cls(
            node_id,
            clock,
            transport,
            election,
            registry,
            node_ids,
            protocol=config.protocol,
            settings=settings,
            cost_model=costs,
            size_model=sizes,
            metrics=metrics if node_id == observer_id else None,
        )
        # Sync and checkpoint metrics come from every replica (the
        # interesting syncers/installers — recovered or partition-healed
        # nodes — are rarely the observer).
        replica.sync.metrics = metrics
        replica.checkpoint.metrics = metrics
        if tracer is not None:
            replica.attach_tracer(tracer)
        replicas[node_id] = replica

    client_cls = CLIENTS.get(config.resolved_client())
    clients: List[ClientBase] = []
    workload = WorkloadSpec(payload_size=config.payload_size)
    for client_id in config.client_ids():
        client = client_cls.from_config(
            client_id,
            clock,
            transport,
            streams,
            node_ids,
            workload=workload,
            size_model=sizes,
            metrics=metrics,
            config=config,
        )
        client.tracer = tracer
        clients.append(client)

    return Cluster(
        config=config,
        scheduler=clock,
        streams=streams,
        network=transport,
        registry=registry,
        replicas=replicas,
        clients=clients,
        metrics=metrics,
        observer_id=observer_id,
        tracer=tracer,
    )


def build_cluster(config: Configuration) -> Cluster:
    """Wire up a *simulated* cluster (replicas, clients, network, metrics).

    Deployment-mode configurations are wired by
    :class:`repro.transport.runtime.DeploymentRunner` instead; this builder
    rejects them rather than silently simulating.
    """
    config.validate()
    if config.mode != "model":
        raise ValueError(
            f"build_cluster is the simulation builder (mode='model'); "
            f"got mode={config.mode!r} — use repro.transport.runtime"
        )
    scheduler = EventScheduler()
    streams = RandomStreams(seed=config.seed)
    if config.extra_delay_mean > 0:
        extra_delay = NormalDelay(config.extra_delay_mean, config.extra_delay_stddev)
    else:
        extra_delay = NoDelay()
    network = Network(
        scheduler,
        streams,
        base_delay=NormalDelay(config.base_delay_mean, config.base_delay_stddev),
        extra_delay=extra_delay,
        bandwidth_bps=config.bandwidth_bps,
    )
    cluster = wire(config, scheduler, network, streams)
    network.tracer = cluster.tracer
    return cluster


def run_experiment(
    config: Configuration, scenario: Optional["Scenario"] = None, bucket: float = 0.5
) -> ExperimentResult:
    """Run one configuration, optionally under a scenario; the one run path.

    ``config.mode`` picks the backend: "model" runs the discrete-event
    simulation (:class:`~repro.scenario.ScenarioRunner`), "deploy" the same
    protocol stack over real TCP
    (:class:`~repro.transport.runtime.DeploymentRunner`, imported lazily so
    the simulation never loads asyncio machinery).  Both return the same
    result and record schema.  A scenario without events or a duration is
    the plain run; only the model backend can apply a non-empty one.
    ``bucket`` is the width of the throughput-timeline buckets.
    """
    if config.mode == "deploy":
        if scenario is not None and (scenario.events or scenario.duration is not None):
            raise ConfigurationError(
                "scenarios schedule events on the simulated clock; a "
                "mode='deploy' configuration can only run an empty one"
            )
        from repro.transport.runtime import DeploymentRunner

        return DeploymentRunner(config).execute(scenario, bucket)
    # Imported here: repro.scenario builds on this module.
    from repro.scenario.runner import ScenarioRunner

    return ScenarioRunner(config, scenario, bucket=bucket).run()
