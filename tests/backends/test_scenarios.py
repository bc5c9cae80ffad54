"""Fast-backend scenarios (path caching, churn) and baseline backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import FastSimulationConfig, get_backend, run_simulation
from repro.backends.fast import FastSimulation
from repro.errors import ConfigurationError
from repro.kademlia.routing import Router


BASE = dict(
    n_nodes=120, bits=12, bucket_size=4, originator_share=0.5,
    n_files=200, file_min=5, file_max=20, overlay_seed=1, workload_seed=2,
)


class TestCachingScenario:
    def test_cache_hits_reduce_traffic(self):
        plain = run_simulation(FastSimulationConfig(
            **BASE, catalog_size=30, batch_files=25,
        ))
        cached = run_simulation(FastSimulationConfig(
            **BASE, catalog_size=30, scenario="caching", batch_files=25,
        ))
        assert cached.cache_hits > 0
        assert cached.forwarded.sum() < plain.forwarded.sum()
        assert cached.mean_hops < plain.mean_hops

    def test_accounting_identities_hold_with_caching(self):
        result = run_simulation(FastSimulationConfig(
            **BASE, catalog_size=30, scenario="caching", batch_files=25,
        ))
        assert sum(result.hop_histogram.values()) == result.chunks
        assert result.first_hop.sum() == result.chunks - result.local_hits
        assert result.income.sum() == pytest.approx(
            result.expenditure.sum()
        )

    def test_uniform_workload_rarely_hits(self):
        # Without popularity the 12-bit space still repeats addresses,
        # but hits must be far rarer than under a 30-file catalog.
        uniform = run_simulation(FastSimulationConfig(
            **BASE, scenario="caching", batch_files=25,
        ))
        catalog = run_simulation(FastSimulationConfig(
            **BASE, catalog_size=30, scenario="caching", batch_files=25,
        ))
        assert uniform.cache_hits < catalog.cache_hits


class TestChurnScenario:
    def test_offline_storers_cost_availability(self):
        result = run_simulation(FastSimulationConfig(
            **BASE, scenario="churn:rate=0.2", batch_files=25,
        ))
        assert 0 < result.unavailable < result.chunks
        assert 0.0 < result.availability < 1.0
        # Retrieved chunks are fully accounted.
        assert (sum(result.hop_histogram.values())
                == result.chunks - result.unavailable)

    def test_zero_fraction_matches_static_run(self):
        static = run_simulation(FastSimulationConfig(**BASE))
        churnless = run_simulation(FastSimulationConfig(
            **BASE, scenario="churn:rate=0.0",
        ))
        assert np.array_equal(static.forwarded, churnless.forwarded)
        assert static.unavailable == churnless.unavailable == 0

    def test_storer_recomputation_recovers_availability(self):
        dropped = run_simulation(FastSimulationConfig(
            **BASE, scenario="churn:rate=0.3", batch_files=25,
        ))
        rereplicated = run_simulation(FastSimulationConfig(
            **BASE, scenario="churn:rate=0.3,recompute=true",
            batch_files=25,
        ))
        assert rereplicated.availability > dropped.availability

    def test_deterministic_under_churn(self):
        config = FastSimulationConfig(
            **BASE, scenario="churn:rate=0.2", batch_files=25,
        )
        first = run_simulation(config)
        second = run_simulation(config)
        assert np.array_equal(first.forwarded, second.forwarded)
        assert first.unavailable == second.unavailable

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            FastSimulationConfig(**BASE, scenario="churn:rate=1.5")

    def test_fully_offline_network_reads_f1_zero(self):
        # No node has a paid first hop: F1's Gini reads 0.0, as F2's
        # does on zero income, while the ratio report has nothing to
        # report and still refuses.
        result = run_simulation(FastSimulationConfig(
            **BASE, scenario="churn:rate=1.0", batch_files=25,
        ))
        assert result.unavailable == result.chunks > 0
        assert not result.first_hop.any()
        assert result.f1_gini() == 0.0
        assert result.f2_gini() == 0.0
        assert "F1 Gini = 0.0000" in result.summary()
        with pytest.raises(ConfigurationError, match="positive reward"):
            result.f1_report()
        with pytest.raises(ConfigurationError, match="positive reward"):
            result.f1_curve()


class TestBaselineBackends:
    def test_flat_reward_is_proportional(self):
        config = FastSimulationConfig(**BASE)
        result = run_simulation(config, backend="flat")
        assert np.array_equal(result.forwarded,
                              run_simulation(config).forwarded)
        assert np.array_equal(
            result.income, result.forwarded.astype(np.float64)
        )
        # Proportional reward: F1 on (contribution, income) is zero.
        assert result.income_report().f1_gini == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("reward", [-1.0, float("nan"), float("inf"),
                                        "2", None])
    def test_flat_refuses_a_bad_reward(self, reward):
        with pytest.raises(ConfigurationError, match="reward_per_chunk"):
            get_backend("flat", reward_per_chunk=reward)

    def test_filecoin_pays_each_storer_per_served_chunk(self):
        # Oracle: route every chunk with the reference router; a route
        # of one hop or more serves its storer, a local hit nobody.
        config = FastSimulationConfig(**BASE)
        backend = get_backend("filecoin", block_reward=0.0,
                              retrieval_price=2.0).prepare(config)
        result = backend.run()
        overlay = backend.overlay
        router = Router(overlay)
        served = np.zeros(len(overlay))
        for event in config.workload().events(overlay.address_array(),
                                              overlay.space):
            for chunk in event.chunk_addresses:
                route = router.route(int(event.originator), int(chunk))
                if route.hops:
                    served[overlay.index_of(route.storer)] += 1
        assert served.sum() == result.chunks - result.local_hits
        assert np.array_equal(result.income, 2.0 * served)
        assert np.array_equal(result.forwarded,
                              run_simulation(config).forwarded)

    def test_filecoin_flattens_the_workload_once(self, monkeypatch):
        flatten = FastSimulation._flatten_workload
        calls = []

        def counted(simulation, workload):
            calls.append(workload)
            return flatten(simulation, workload)

        monkeypatch.setattr(FastSimulation, "_flatten_workload", counted)
        backend = get_backend("filecoin").prepare(FastSimulationConfig(**BASE))
        backend.run()
        assert len(calls) == 1
        backend.run()
        assert len(calls) == 2

    @pytest.mark.parametrize("epoch_length", [1, 7, 100])
    def test_filecoin_pays_one_block_per_epoch(self, epoch_length):
        result = run_simulation(
            FastSimulationConfig(**BASE), backend="filecoin",
            block_reward=3.0, retrieval_price=0.0, epoch_length=epoch_length,
        )
        assert result.income.sum() == 3.0 * (result.chunks // epoch_length)

    def test_filecoin_blocks_follow_storage_power(self):
        backend = get_backend("filecoin", block_reward=1.0,
                              retrieval_price=0.0, epoch_length=1)
        wins = backend.prepare(FastSimulationConfig(**BASE)).run().income
        power = np.bincount(backend.simulation.table.storer,
                            minlength=wins.size)
        # One draw per chunk (~2.5k): win counts track storage power.
        assert np.corrcoef(wins, power)[0, 1] > 0.8

    @pytest.mark.parametrize("name, value", [
        ("epoch_length", 0), ("epoch_length", -1), ("epoch_length", 2.5),
        ("epoch_length", True), ("block_reward", -1.0),
        ("block_reward", float("nan")), ("block_reward", float("inf")),
        ("retrieval_price", -0.5), ("retrieval_price", float("inf")),
        ("retrieval_price", "1"), ("seed", 4.0), ("seed", "42"),
    ])
    def test_filecoin_refuses_bad_parameters(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            get_backend("filecoin", **{name: value})

    def test_filecoin_rewards_storers_and_power(self):
        config = FastSimulationConfig(**BASE)
        retrieval_only = run_simulation(
            config, backend="filecoin", block_reward=0.0
        )
        with_blocks = run_simulation(
            config, backend="filecoin", block_reward=10.0
        )
        # Retrieval payments: one unit per served (non-local) chunk.
        assert retrieval_only.income.sum() == pytest.approx(
            float(retrieval_only.chunks - retrieval_only.local_hits)
        )
        assert with_blocks.income.sum() > retrieval_only.income.sum()

    def test_freerider_fraction_raises_inequality(self):
        fair, unfair = (
            run_simulation(FastSimulationConfig(
                **BASE, scenario=f"freeriding:fraction={fraction}"))
            for fraction in (0.0, 0.5)
        )
        assert unfair.income.sum() < fair.income.sum()
        assert unfair.f2_gini() > fair.f2_gini()

    def test_tit_for_tat_runs_own_swarm(self):
        result = run_simulation(FastSimulationConfig(**BASE),
                                backend="tit_for_tat")
        assert result.n_nodes <= BASE["n_nodes"]
        assert result.income.sum() > 0
        # Service received equals service given, swarm-wide.
        assert result.income.sum() == result.forwarded.sum()


class TestScenarioStrings:
    """The ``scenario`` composition field drives the same epoch kernel."""

    def test_bounded_cache_evicts_and_still_accounts(self):
        unbounded = run_simulation(FastSimulationConfig(
            **BASE, catalog_size=30, scenario="caching", batch_files=25,
        ))
        bounded = run_simulation(FastSimulationConfig(
            **BASE, catalog_size=30, scenario="caching:size=8",
            batch_files=25,
        ))
        assert 0 < bounded.cache_hits < unbounded.cache_hits
        assert bounded.income.sum() == pytest.approx(
            bounded.expenditure.sum()
        )

    def test_join_storm_recovers_availability_over_time(self):
        storm = run_simulation(FastSimulationConfig(
            **BASE, scenario="join:fraction=0.5,waves=3", batch_files=25,
        ))
        assert 0 < storm.unavailable < storm.chunks
        # Re-homing keeps fallback traffic flowing to live storers.
        assert storm.availability > 0.4

    def test_demand_shift_concentrates_expenditure(self):
        uniform = run_simulation(FastSimulationConfig(
            **BASE, batch_files=25,
        ))
        shifted = run_simulation(FastSimulationConfig(
            **BASE, scenario="demand:share=0.05", batch_files=25,
        ))
        assert (np.count_nonzero(shifted.expenditure)
                < np.count_nonzero(uniform.expenditure))
        assert shifted.income.sum() == pytest.approx(
            shifted.expenditure.sum()
        )

    def test_invalid_scenario_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            FastSimulationConfig(**BASE, scenario="warp:factor=9")


class TestScenarioGuards:
    def test_reference_backend_rejects_scenarios(self):
        for scenario in ("caching", "churn:rate=0.2"):
            config = FastSimulationConfig(**BASE, scenario=scenario)
            with pytest.raises(ConfigurationError, match="vectorized"):
                get_backend("reference").prepare(config)

    def test_tit_for_tat_marked_non_replaying(self):
        from repro.backends import TitForTatBackend

        assert not TitForTatBackend.replays_workload
        assert get_backend("fast").replays_workload

    def test_filecoin_rejects_scenarios(self):
        config = FastSimulationConfig(**BASE, scenario="churn:rate=0.2")
        with pytest.raises(ConfigurationError, match="filecoin"):
            get_backend("filecoin").prepare(config)

    def test_merge_rejects_mixed_scenarios(self):
        churned = run_simulation(FastSimulationConfig(
            **BASE, scenario="churn:rate=0.2", batch_files=25,
        ))
        static = run_simulation(FastSimulationConfig(**BASE))
        with pytest.raises(ConfigurationError, match="workload seed"):
            churned.merge(static)
