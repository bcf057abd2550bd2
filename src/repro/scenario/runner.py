"""Scenarios: named, serializable fault schedules, and the runner for them.

A :class:`Scenario` is a list of typed timeline events plus an optional
duration override — the declarative replacement for hand-wiring fault
injection into each experiment script.  ``Scenario.from_dict`` /
``to_dict`` round-trip through the same JSON configuration style as
:class:`~repro.bench.config.Configuration`, so a whole experiment (cluster +
fault schedule) can live in one config file::

    {
      "config":   {"protocol": "hotstuff", "num_nodes": 4, ...},
      "scenario": {"name": "responsiveness", "events": [
          {"kind": "network-fluctuation", "at": 5.0, "duration": 10.0,
           "min_delay": 0.005, "max_delay": 0.05},
          {"kind": "crash-replica", "at": 20.0, "replica": "last"}
      ]}
    }

:class:`ScenarioRunner` is the model backend of
:func:`repro.bench.runner.run_experiment`: it builds the cluster through the
ordinary registry wiring (:func:`repro.bench.runner.build_cluster`),
schedules every event, runs to the horizon, and returns an
:class:`~repro.bench.runner.ExperimentResult` with the summary metrics plus
the throughput timeline the paper's Fig. 15 plots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.config import Configuration
from repro.bench.runner import Cluster, ExperimentResult, build_cluster
from repro.scenario.events import ScenarioEvent


@dataclass
class Scenario:
    """A named schedule of timeline events applied to one run."""

    name: str = "scenario"
    events: List[ScenarioEvent] = field(default_factory=list)
    #: Simulated end time of the run; ``None`` uses the configuration's
    #: ``total_duration``.
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        self.events = [
            ScenarioEvent.from_dict(e) if isinstance(e, dict) else e
            for e in self.events
        ]

    def schedule(self, cluster: Cluster) -> None:
        """Install every event on the cluster's scheduler (before start)."""
        for event in self.events:
            event.schedule(cluster)

    def horizon(self, config: Configuration) -> float:
        """The simulated end time of the run."""
        return self.duration if self.duration is not None else config.total_duration

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Serialize to a JSON-compatible dict."""
        data: Dict = {"name": self.name, "events": [e.to_dict() for e in self.events]}
        if self.duration is not None:
            data["duration"] = self.duration
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        """Rebuild a scenario serialized with :meth:`to_dict`."""
        return cls(
            name=data.get("name", "scenario"),
            events=[ScenarioEvent.from_dict(e) for e in data.get("events", [])],
            duration=data.get("duration"),
        )


class ScenarioRunner:
    """The model backend: builds a simulated cluster, schedules a scenario, runs it."""

    def __init__(
        self, config: Configuration, scenario: Optional[Scenario] = None, bucket: float = 0.5
    ) -> None:
        if config.mode != "model":
            raise ValueError(
                "scenarios schedule events on the simulated clock; "
                f"mode={config.mode!r} configurations cannot run one "
                "(use mode='model')"
            )
        self.config = config
        #: The fault schedule; None is the plain run.
        self.scenario = scenario
        #: Width of the throughput-timeline buckets, in simulated seconds.
        self.bucket = bucket

    def build(self) -> Cluster:
        """Build the cluster with every scenario event already scheduled."""
        cluster = build_cluster(self.config)
        if self.scenario is not None:
            self.scenario.schedule(cluster)
        return cluster

    def run(self, cluster: Optional[Cluster] = None) -> ExperimentResult:
        """Run to the scenario's horizon and summarize the outcome.

        Pass the cluster from :meth:`build` to keep access to per-replica
        state (forests, stats, executors) after the run — the fuzz harness's
        invariant oracles audit exactly that.
        """
        if cluster is None:
            cluster = self.build()
        if self.scenario is not None:
            horizon = self.scenario.horizon(self.config)
        else:
            horizon = self.config.total_duration
        started = time.perf_counter()
        cluster.start()
        cluster.run(until=horizon)
        elapsed = time.perf_counter() - started
        return cluster.result(elapsed, horizon, self.bucket, self.scenario)
