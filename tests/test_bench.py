"""Unit tests for the benchmark facilities: config, profiles, metrics, runner."""

import pytest

from repro.bench.config import Configuration
from repro.bench.metrics import MetricsCollector
from repro.bench.profiles import available_profiles, cost_profile
from repro.bench.runner import build_cluster, run_experiment
from repro.experiments import CampaignRunner, ExperimentSpec
from repro.core.byzantine import ForkingReplica, SilentReplica
from repro.types.block import make_genesis, make_block
from repro.types.certificates import QuorumCertificate

from helpers import make_transactions


FAST = dict(
    block_size=20,
    runtime=0.6,
    warmup=0.1,
    cooldown=0.1,
    concurrency=10,
    num_clients=1,
    cost_profile="fast",
    view_timeout=0.05,
)


class TestConfiguration:
    def test_defaults_match_table1(self):
        config = Configuration()
        assert config.block_size == 400
        assert config.mempool_capacity == 1000
        assert config.payload_size == 0
        assert config.view_timeout == pytest.approx(0.1)
        assert config.concurrency == 10
        assert config.master == ""
        assert config.strategy == "silence"
        assert config.byzantine_nodes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(num_nodes=0)
        with pytest.raises(ValueError):
            Configuration(byzantine_nodes=4, num_nodes=4)
        with pytest.raises(ValueError):
            Configuration(block_size=0)
        with pytest.raises(ValueError):
            Configuration(runtime=0)

    def test_node_and_client_ids(self):
        config = Configuration(num_nodes=3, num_clients=2)
        assert config.node_ids() == ["r0", "r1", "r2"]
        assert config.client_ids() == ["c0", "c1"]

    def test_byzantine_ids_keep_observer_honest(self):
        config = Configuration(num_nodes=4, byzantine_nodes=2)
        assert config.byzantine_ids() == ["r2", "r3"]
        assert "r0" not in config.byzantine_ids()

    def test_replace_creates_modified_copy(self):
        config = Configuration()
        other = config.replace(block_size=100)
        assert other.block_size == 100
        assert config.block_size == 400

    def test_round_trip_through_dict(self):
        config = Configuration(protocol="streamlet", num_nodes=8, payload_size=128)
        clone = Configuration.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_ignores_unknown_keys(self):
        config = Configuration.from_dict({"protocol": "hotstuff", "bogus": 1})
        assert config.protocol == "hotstuff"

    def test_measurement_window(self):
        config = Configuration(warmup=1.0, runtime=5.0, cooldown=0.5)
        assert config.measurement_window == (1.0, 6.0)
        assert config.total_duration == pytest.approx(6.5)


class TestProfiles:
    def test_available_profiles(self):
        assert {"fast", "standard", "ohs"} <= set(available_profiles())

    def test_standard_is_slower_than_fast(self):
        assert cost_profile("standard").sign_time > cost_profile("fast").sign_time

    def test_ohs_is_cheaper_than_standard(self):
        assert cost_profile("ohs").verify_time < cost_profile("standard").verify_time

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            cost_profile("turbo")

    def test_profiles_are_copies(self):
        a = cost_profile("standard")
        a.sign_time = 123.0
        assert cost_profile("standard").sign_time != 123.0


class TestMetricsCollector:
    def _committed_block(self, view, txs, now):
        genesis, qc = make_genesis()
        return make_block(view, genesis, qc, "r0", make_transactions(txs)), now

    def test_throughput_counts_window_only(self):
        collector = MetricsCollector(window_start=1.0, window_end=2.0)
        early, _ = self._committed_block(1, 5, 0.5)
        inside, _ = self._committed_block(2, 5, 1.5)
        collector.record_block_committed("r0", early, commit_view=2, now=0.5)
        collector.record_block_committed("r0", inside, commit_view=3, now=1.5)
        assert collector.throughput() == pytest.approx(5.0)

    def test_latency_stats(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        for i, latency in enumerate([0.01, 0.02, 0.03, 0.04]):
            collector.record_latency(f"t{i}", latency, now=1.0)
        mean, median, p99 = collector.latency_stats()
        assert mean == pytest.approx(0.025)
        assert median == pytest.approx(0.03)
        assert p99 == pytest.approx(0.04)

    def test_latency_stats_empty(self):
        assert MetricsCollector().latency_stats() == (0.0, 0.0, 0.0)

    def test_chain_growth_rate(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        for view in range(1, 5):
            block, _ = self._committed_block(view, 0, 1.0)
            collector.record_block_added("r0", block, now=1.0)
            if view <= 2:
                collector.record_block_committed("r0", block, commit_view=view + 2, now=1.5)
        assert collector.chain_growth_rate() == pytest.approx(0.5)

    def test_block_interval(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        block, _ = self._committed_block(5, 0, 1.0)
        collector.record_block_committed("r0", block, commit_view=8, now=1.0)
        assert collector.block_interval() == pytest.approx(3.0)

    def test_throughput_timeline_buckets(self):
        collector = MetricsCollector()
        a, _ = self._committed_block(1, 10, 0.2)
        b, _ = self._committed_block(2, 20, 1.2)
        collector.record_block_committed("r0", a, commit_view=2, now=0.2)
        collector.record_block_committed("r0", b, commit_view=3, now=1.2)
        timeline = collector.throughput_timeline(bucket=1.0, end=2.0)
        assert timeline[0] == (0.0, 10.0)
        assert timeline[1] == (1.0, 20.0)

    def test_timeline_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            MetricsCollector().throughput_timeline(bucket=0.0)

    def test_summarize_shape(self):
        collector = MetricsCollector(window_start=0.0, window_end=10.0)
        summary = collector.summarize().as_dict()
        assert set(summary) >= {
            "throughput_tps",
            "mean_latency_ms",
            "chain_growth_rate",
            "block_interval",
            "safety_violations",
        }


class TestRunnerAndSweeps:
    def test_build_cluster_wires_byzantine_replicas(self):
        config = Configuration(num_nodes=4, byzantine_nodes=1, strategy="forking", **FAST)
        cluster = build_cluster(config)
        assert isinstance(cluster.replicas["r3"], ForkingReplica)
        assert not isinstance(cluster.replicas["r0"], ForkingReplica)
        assert cluster.observer_id == "r0"

    def test_build_cluster_silence_strategy(self):
        config = Configuration(num_nodes=4, byzantine_nodes=1, strategy="silence", **FAST)
        cluster = build_cluster(config)
        assert isinstance(cluster.replicas["r3"], SilentReplica)

    def test_run_experiment_produces_metrics(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST)
        result = run_experiment(config)
        assert result.metrics.throughput_tps > 0
        assert result.metrics.mean_latency > 0
        assert result.consistent
        assert result.metrics.safety_violations == 0

    def test_run_experiment_with_poisson_arrivals(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST).replace(
            arrival_rate=2000.0
        )
        result = run_experiment(config)
        assert result.metrics.committed_transactions > 0

    def test_static_leader_configuration(self):
        config = Configuration(num_nodes=4, master="r1", **FAST)
        result = run_experiment(config)
        assert result.metrics.committed_blocks > 0

    def test_saturation_sweep_produces_monotone_load_points(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST)
        spec = ExperimentSpec(base=config, grid={"concurrency": [2, 8]})
        records = CampaignRunner(spec).run().records
        assert [r["config"]["concurrency"] for r in records] == [2, 8]
        tps = [r["metrics"]["throughput_tps"] for r in records]
        assert tps[1] >= tps[0] * 0.5

    def test_saturation_sweep_with_arrival_rates(self):
        config = Configuration(protocol="hotstuff", num_nodes=4, **FAST)
        spec = ExperimentSpec(base=config, grid={"arrival_rate": [500.0, 1500.0]})
        records = CampaignRunner(spec).run().records
        assert len(records) == 2
        tps = [r["metrics"]["throughput_tps"] for r in records]
        assert tps[1] > tps[0]


class TestHostPerfMetrics:
    """wall_clock_seconds / events_per_second: measured, but never stored."""

    def test_run_experiment_measures_host_perf(self):
        metrics = run_experiment(Configuration(**FAST)).metrics
        assert metrics.wall_clock_seconds > 0
        assert metrics.events_per_second > 0

    def test_perf_fields_are_excluded_from_the_canonical_record(self):
        metrics = run_experiment(Configuration(**FAST)).metrics
        data = metrics.to_dict()
        assert "wall_clock_seconds" not in data
        assert "events_per_second" not in data
        # ... but the human-facing view shows them.
        assert metrics.as_dict()["wall_clock_seconds"] > 0

    def test_equality_ignores_host_speed(self):
        config = Configuration(**FAST)
        first = run_experiment(config).metrics
        second = run_experiment(config).metrics
        # Wall clocks almost surely differ between the two executions, yet
        # the simulated outcomes compare equal (perf fields are compare=False).
        assert first == second

    def test_scenario_runner_measures_host_perf(self):
        from repro.scenario import Scenario, ScenarioRunner

        scenario = Scenario(events=[])
        metrics = ScenarioRunner(Configuration(**FAST), scenario).run().metrics
        assert metrics.wall_clock_seconds > 0
        assert metrics.events_per_second > 0
