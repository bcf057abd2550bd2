"""Deployment runner: the protocol stack over real TCP, real time, real keys.

This is the "implementation" axis of the paper's fig8.  The same
:class:`~repro.core.replica.Replica` (and Byzantine strategy subclasses),
pacemaker, sync/checkpoint managers, and clients that run in the
discrete-event model are wired to an :class:`~repro.transport.clock.AsyncioClock`
and an :class:`~repro.transport.asyncio_net.AsyncioTransport` instead — zero
protocol-class changes, which ``tests/test_transport.py`` pins down by
diffing the protocol modules' imports against this package.

What changes between the modes is exactly what the paper varies:

========================  ==========================  =========================
aspect                    model                       deploy
========================  ==========================  =========================
time                      virtual event clock         loop's monotonic clock
message fabric            modeled NIC + link delays   framed TCP streams
signatures                HMAC tags, cost *modeled*   Ed25519, cost *measured*
serialization             size-model estimate         real JSON encode/decode
========================  ==========================  =========================

The cluster is wired by the same builder as the simulation
(:func:`repro.bench.runner.wire`), and the runner emits the same
:class:`~repro.bench.runner.ExperimentResult` / ``RunMetrics`` record
schema, so campaign storage, aggregation, and the fig8 figure consume model
and deployment records side by side.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.bench.config import Configuration
from repro.bench.metrics import MetricsCollector
from repro.bench.runner import Cluster, ExperimentResult, wire
from repro.client.client import ClientBase
from repro.core.replica import Replica
from repro.sim.random import RandomStreams
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.clock import AsyncioClock

if TYPE_CHECKING:
    from repro.scenario.runner import Scenario


class DeploymentError(RuntimeError):
    """A deployment run failed (replica handler raised, cluster diverged)."""


class DeploymentRunner:
    """The deploy backend: an n-replica loopback cluster driven on wall time.

    Construction validates the configuration; :meth:`start` (a coroutine)
    wires the cluster, binds sockets, and starts replicas and clients;
    :meth:`run` sleeps out the configured horizon on the wall clock;
    :meth:`stop` tears it down.  :meth:`execute` does all three.  Tests
    drive crash/recover through ``runner.replicas[...]`` exactly as
    simulation tests do through the cluster.
    """

    def __init__(self, config: Configuration, host: str = "127.0.0.1") -> None:
        if config.mode != "deploy":
            config = config.replace(mode="deploy")
        config.validate()
        self.config = config
        self.host = host
        self.observer_id = config.node_ids()[0]
        #: The wired cluster; None until :meth:`start`.
        self.cluster: Optional[Cluster] = None

    @property
    def clock(self) -> AsyncioClock:
        return self.cluster.scheduler

    @property
    def transport(self) -> AsyncioTransport:
        return self.cluster.network

    @property
    def replicas(self) -> Dict[str, Replica]:
        return self.cluster.replicas

    @property
    def clients(self) -> List[ClientBase]:
        return self.cluster.clients

    @property
    def metrics(self) -> MetricsCollector:
        return self.cluster.metrics

    async def start(self) -> None:
        """Wire the cluster, bind the transport, and start every replica and client."""
        if self.cluster is not None:
            raise RuntimeError("deployment already started")
        transport = AsyncioTransport(host=self.host)
        self.cluster = wire(
            self.config, AsyncioClock(), transport, RandomStreams(seed=self.config.seed)
        )
        await transport.start()
        self.cluster.start()

    async def run(self) -> None:
        """Let the cluster run for the configured horizon of wall time."""
        await asyncio.sleep(self.config.total_duration)
        self.raise_handler_errors()

    async def stop(self) -> None:
        """Stop timers and tear the transport down (a no-op before start)."""
        if self.cluster is None:
            return
        for replica in self.replicas.values():
            replica.pacemaker.stop()
        await self.transport.stop()

    def raise_handler_errors(self) -> None:
        """Re-raise the first exception a message handler or timer callback raised."""
        errors = self.transport.errors + self.clock.errors
        if errors:
            raise DeploymentError(
                f"{len(errors)} handler error(s); first: {errors[0]!r}"
            ) from errors[0]

    def result(
        self, elapsed: float, scenario: Optional["Scenario"] = None, bucket: float = 0.5
    ) -> ExperimentResult:
        """Summarize the run into the shared campaign record schema."""
        return self.cluster.result(elapsed, self.config.total_duration, bucket, scenario)

    def execute(
        self, scenario: Optional["Scenario"] = None, bucket: float = 0.5
    ) -> ExperimentResult:
        """Run one full deployment (blocking): start, horizon, stop, result.

        The transport is stopped even when starting or running raised.
        """

        async def lifecycle() -> float:
            try:
                await self.start()
                started = time.perf_counter()
                await self.run()
                return time.perf_counter() - started
            finally:
                await self.stop()

        return self.result(asyncio.run(lifecycle()), scenario, bucket)
