"""Unit tests for the scenario layer: events, library, grammar, plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    CacheState,
    Churn,
    Compose,
    DemandShift,
    EpochPlan,
    FreeRiding,
    NodeJoin,
    PathCaching,
    PolicyOverride,
    ScenarioContext,
    TopologyDelta,
    parse_scenario,
    scenario_help,
)
from repro.scenarios.plan import CacheRuntime

CTX = ScenarioContext(n_nodes=40, n_epochs=6, space_size=256)


class TestEvents:
    def test_topology_delta_normalizes_and_validates(self):
        delta = TopologyDelta(leaves=np.array([3, 1]), joins=(2,))
        assert delta.leaves == (3, 1)
        assert delta.joins == (2,)
        assert bool(delta)
        assert not TopologyDelta()
        with pytest.raises(ConfigurationError):
            TopologyDelta(leaves=(-1,))

    def test_cache_state_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            CacheState(capacity=-1)

    def test_policy_override_distinguishes_none_from_empty(self):
        unchanged = PolicyOverride()
        assert unchanged.unpaid_origins is None
        assert unchanged.origin_focus is None
        cleared = PolicyOverride(unpaid_origins=(), origin_focus=())
        assert cleared.unpaid_origins == ()
        assert cleared.origin_focus == ()


class TestLibrary:
    def test_churn_schedule_matches_legacy_draw_stream(self):
        scenario = Churn(rate=0.25, seed=5)
        schedule = scenario.schedule(CTX)
        assert len(schedule) == CTX.n_epochs
        rng = np.random.default_rng(5)
        alive = np.ones(CTX.n_nodes, dtype=bool)
        for events in schedule:
            (delta,) = events
            expected = rng.random(CTX.n_nodes) >= 0.25
            alive[list(delta.leaves)] = False
            alive[list(delta.joins)] = True
            assert np.array_equal(alive, expected)

    def test_churn_validates_rate(self):
        with pytest.raises(ConfigurationError):
            Churn(rate=1.5)

    @pytest.mark.parametrize("rate", [-0.1, float("nan")])
    def test_churn_rejects_rates_outside_the_unit_interval(self, rate):
        with pytest.raises(ConfigurationError):
            Churn(rate=rate)

    def test_churn_at_rate_zero_never_flips_a_node(self):
        for (delta,) in Churn(rate=0.0, seed=5).schedule(CTX):
            assert delta.leaves == delta.joins == ()

    def test_churn_at_rate_one_takes_everyone_offline_once(self):
        schedule = Churn(rate=1.0, seed=5).schedule(CTX)
        (first,) = schedule[0]
        assert first.leaves == tuple(range(CTX.n_nodes))
        assert first.joins == ()
        for (delta,) in schedule[1:]:
            assert delta.leaves == delta.joins == ()

    def test_churn_offline_share_tracks_the_rate(self):
        ctx = ScenarioContext(n_nodes=2000, n_epochs=5, space_size=4096)
        alive = np.ones(ctx.n_nodes, dtype=bool)
        for (delta,) in Churn(rate=0.3, seed=5).schedule(ctx):
            alive[list(delta.leaves)] = False
            alive[list(delta.joins)] = True
            assert 0.25 < 1.0 - alive.mean() < 0.35

    def test_caching_emits_single_head_event(self):
        schedule = PathCaching(size=16).schedule(CTX)
        assert schedule[0] == (CacheState(enabled=True, capacity=16),)
        assert all(epoch == () for epoch in schedule[1:])

    def test_freeriding_matches_backend_draw(self):
        schedule = FreeRiding(fraction=0.3, seed=13).schedule(CTX)
        (override,) = schedule[0]
        expected = np.random.default_rng(13).choice(
            CTX.n_nodes, size=round(0.3 * CTX.n_nodes), replace=False
        )
        assert set(override.unpaid_origins) == set(int(v) for v in expected)

    def test_node_join_conserves_the_cohort(self):
        schedule = NodeJoin(fraction=0.5, waves=3, seed=2).schedule(CTX)
        (initial,) = schedule[0]
        joined = [
            index
            for events in schedule[1:]
            for event in events
            for index in event.joins
        ]
        assert sorted(joined) == sorted(initial.leaves)
        assert NodeJoin.recompute_storers

    def test_demand_shift_draws_fresh_hot_sets(self):
        schedule = DemandShift(share=0.2, seed=1).schedule(CTX)
        hot_sets = [events[0].origin_focus for events in schedule]
        assert all(len(hot) == round(0.2 * CTX.n_nodes) for hot in hot_sets)
        assert len(set(hot_sets)) > 1

    def test_schedules_are_deterministic(self):
        for scenario in (Churn(rate=0.2), PathCaching(size=8),
                         FreeRiding(), NodeJoin(), DemandShift()):
            assert scenario.schedule(CTX) == scenario.schedule(CTX)


class TestCompose:
    def test_merge_concatenates_in_child_order(self):
        churn, caching = Churn(rate=0.2), PathCaching(size=4)
        merged = Compose(churn, caching).schedule(CTX)
        churn_schedule = churn.schedule(CTX)
        caching_schedule = caching.schedule(CTX)
        for epoch in range(CTX.n_epochs):
            assert merged[epoch] == (
                churn_schedule[epoch] + caching_schedule[epoch]
            )

    def test_single_child_equals_bare(self):
        scenario = Churn(rate=0.3, seed=7)
        assert Compose(scenario).schedule(CTX) == scenario.schedule(CTX)

    def test_nested_compositions_flatten(self):
        a, b, c = Churn(rate=0.1), PathCaching(), FreeRiding()
        assert Compose(Compose(a, b), c) == Compose(a, b, c)
        assert (Compose(Compose(a, b), c).schedule(CTX)
                == Compose(a, b, c).schedule(CTX))

    def test_recompute_is_any_child(self):
        assert not Compose(Churn(rate=0.1), PathCaching()).recompute_storers
        assert Compose(PathCaching(), NodeJoin()).recompute_storers
        assert Compose(Churn(rate=0.1, recompute=True)).recompute_storers


class TestParse:
    def test_round_trips_with_spec(self):
        for text in ("churn:rate=0.1", "caching:size=64",
                     "churn:rate=0.2,recompute=true+caching",
                     "join:fraction=0.4,waves=3+freeriding:fraction=0.2",
                     "demand:share=0.25,seed=4"):
            scenario = parse_scenario(text)
            assert parse_scenario(scenario.spec()) == scenario

    def test_single_item_is_bare_not_composed(self):
        assert parse_scenario("churn:rate=0.1") == Churn(rate=0.1)
        assert isinstance(parse_scenario("churn:rate=0.1+caching"),
                          Compose)

    def test_unknown_kind_lists_grammar(self):
        with pytest.raises(ConfigurationError, match="churn"):
            parse_scenario("warp:factor=9")

    def test_unknown_parameter_lists_fields(self):
        with pytest.raises(ConfigurationError, match="rate"):
            parse_scenario("churn:speed=0.1")

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigurationError, match="rate"):
            parse_scenario("churn")

    def test_bad_value_and_malformed_items(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_scenario("churn:rate=fast")
        with pytest.raises(ConfigurationError, match="empty item"):
            parse_scenario("churn:rate=0.1+")
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_scenario("churn:rate")
        with pytest.raises(ConfigurationError):
            parse_scenario("")

    def test_help_names_every_kind(self):
        text = scenario_help()
        for kind in ("churn", "caching", "freeriding", "join", "demand"):
            assert kind in text


class TestCacheRuntime:
    def test_unbounded_is_plain_mask(self):
        cache = CacheRuntime(space_size=32, capacity=0)
        cache.insert(np.array([3, 5, 3]))
        assert cache.cached_count == 2
        assert cache.mask[[3, 5]].all()

    def test_fifo_eviction_in_first_insertion_order(self):
        cache = CacheRuntime(space_size=32, capacity=3)
        cache.insert(np.array([7, 2, 9]))
        cache.insert(np.array([4]))  # evicts 7, the oldest
        assert cache.cached_count == 3
        assert not cache.mask[7]
        assert cache.mask[[2, 9, 4]].all()

    def test_negative_cache_size_fails_at_config_time(self):
        with pytest.raises(ConfigurationError, match="cache size"):
            PathCaching(size=-5)
        from repro.backends.config import FastSimulationConfig

        with pytest.raises(ConfigurationError, match="cache size"):
            FastSimulationConfig(scenario="caching:size=-5")

    def test_capacity_change_reconciles_the_ring(self):
        # Unbounded -> bounded: mask entries adopt address order and
        # the overflow is evicted immediately, oldest (lowest) first.
        cache = CacheRuntime(space_size=32, capacity=0)
        cache.insert(np.array([9, 2, 7]))
        cache.set_capacity(2)
        assert cache.cached_count == 2
        assert not cache.mask[2]
        assert cache.mask[7] and cache.mask[9]
        # Bound still enforced for subsequent inserts.
        cache.insert(np.array([5]))
        assert cache.cached_count == 2
        assert not cache.mask[7]
        # Lowering trims immediately; widening back to 0 is unbounded.
        cache.set_capacity(1)
        assert cache.cached_count == 1
        cache.set_capacity(0)
        cache.insert(np.array([1, 2, 3]))
        assert cache.cached_count == 4

    def test_reinsert_does_not_refresh_position(self):
        cache = CacheRuntime(space_size=32, capacity=2)
        cache.insert(np.array([1, 2]))
        # 1 is already cached, so only 3 arrives — and 1, still the
        # oldest insertion, is the one evicted (FIFO, not LRU).
        cache.insert(np.array([1, 3]))
        assert not cache.mask[1]
        assert cache.mask[2] and cache.mask[3]
        assert cache.cached_count == 2


class TestEpochPlan:
    @staticmethod
    def _plan(scenario, ctx=CTX):
        addresses = np.random.default_rng(0).choice(
            ctx.space_size, size=ctx.n_nodes, replace=False
        ).astype(np.uint64)
        from repro.kademlia.table import alive_storer_table
        from repro.perf.table_cache import EpochTableCache

        base = alive_storer_table(
            addresses, np.ones(ctx.n_nodes, bool), np.dtype(np.uint16),
            ctx.space_size,
        )
        return EpochPlan(
            scenario, ctx, table_fingerprint="test-base",
            base_storers=base, addresses=addresses,
            epoch_tables=EpochTableCache(),
        )

    def test_epochs_must_be_consumed_in_order(self):
        plan = self._plan(Churn(rate=0.2))
        plan.epoch(0)
        with pytest.raises(ConfigurationError, match="order"):
            plan.epoch(2)

    def test_static_scenario_never_materializes_alive(self):
        plan = self._plan(Compose(PathCaching(size=8), FreeRiding()))
        for epoch in range(CTX.n_epochs):
            state = plan.epoch(epoch)
            assert state.alive is None
            assert state.storers is None
        assert state.cache is not None
        assert state.unpaid is not None

    def test_churn_without_recompute_has_no_storers(self):
        plan = self._plan(Churn(rate=0.3))
        state = plan.epoch(0)
        assert state.alive is not None
        assert state.storers is None

    def test_recompute_storers_are_always_alive(self):
        plan = self._plan(Churn(rate=0.3, recompute=True, seed=11))
        for epoch in range(CTX.n_epochs):
            state = plan.epoch(epoch)
            if state.storers is not None:
                assert state.alive[state.storers.astype(np.int64)].all()

    def test_origin_focus_builds_modular_map(self):
        plan = self._plan(DemandShift(share=0.1, seed=3))
        state = plan.epoch(0)
        focus = np.asarray(
            DemandShift(share=0.1, seed=3).schedule(CTX)[0][0].origin_focus
        )
        assert np.array_equal(
            state.origin_map,
            focus[np.arange(CTX.n_nodes) % focus.size],
        )

    def test_composed_topologies_keep_private_alive_streams(self):
        """Churn joins must not resurrect a join storm's cohort."""
        ctx = ScenarioContext(n_nodes=100, n_epochs=6, space_size=256)
        churn = Churn(rate=0.3, seed=5)
        storm = NodeJoin(fraction=0.5, waves=2, seed=2)
        plan = self._plan(Compose(churn, storm), ctx)

        # Reference streams, each computed independently.
        churn_alive = np.ones(ctx.n_nodes, dtype=bool)
        storm_alive = np.ones(ctx.n_nodes, dtype=bool)
        churn_schedule = churn.schedule(ctx)
        storm_schedule = storm.schedule(ctx)
        for epoch in range(ctx.n_epochs):
            state = plan.epoch(epoch)
            for delta, mask in ((churn_schedule[epoch], churn_alive),
                                (storm_schedule[epoch], storm_alive)):
                for event in delta:
                    mask[list(event.leaves)] = False
                    mask[list(event.joins)] = True
            assert np.array_equal(state.alive, churn_alive & storm_alive)
            # The still-offline cohort stays offline, churn or not.
            offline_cohort = np.flatnonzero(~storm_alive)
            assert not state.alive[offline_cohort].any()

    def test_epoch_count_mismatch_rejected(self):
        class Broken(Churn):
            def schedule(self, ctx):
                return super().schedule(ctx)[:-1]

        with pytest.raises(ConfigurationError, match="epoch"):
            self._plan(Broken(rate=0.2))
