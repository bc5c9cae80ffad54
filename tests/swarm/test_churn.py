"""Unit tests for churn (repro.swarm.churn)."""

from __future__ import annotations

import pytest

from repro.engine.des import EventScheduler
from repro.errors import ConfigurationError, OverlayError
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.routing import Router
from repro.swarm.churn import ChurnModel, depart, rejoin


@pytest.fixture()
def overlay() -> Overlay:
    return Overlay.build(OverlayConfig(n_nodes=60, bits=10, seed=2))


class TestDepart:
    def test_evicted_from_all_tables(self, overlay):
        victim = overlay.addresses[0]
        evictions = depart(overlay, victim)
        assert evictions > 0
        for owner in overlay.addresses:
            if owner != victim:
                assert victim not in overlay.table(owner)

    def test_own_table_kept(self, overlay):
        victim = overlay.addresses[0]
        before = len(overlay.table(victim))
        depart(overlay, victim)
        assert len(overlay.table(victim)) == before

    def test_unknown_node_rejected(self, overlay):
        missing = next(
            a for a in range(overlay.space.size) if a not in overlay
        )
        with pytest.raises(OverlayError):
            depart(overlay, missing)

    def test_routing_still_works_after_departure(self, overlay):
        victim = overlay.addresses[0]
        depart(overlay, victim)
        router = Router(overlay)
        live = [a for a in overlay.addresses if a != victim]
        for origin in live[:10]:
            for target in live[:10]:
                route = router.route(origin, target)
                assert victim not in route.path[1:-1]


class TestRejoin:
    def test_reannounced_to_live_peers(self, overlay):
        victim = overlay.addresses[0]
        depart(overlay, victim)
        live = set(overlay.addresses)
        acceptances = rejoin(overlay, victim, live)
        assert acceptances > 0
        present = sum(
            1 for owner in overlay.addresses
            if owner != victim and victim in overlay.table(owner)
        )
        assert present == acceptances

    def test_dead_peers_dropped_from_own_table(self, overlay):
        victim = overlay.addresses[0]
        dead_peer = overlay.table(victim).peers()[0]
        live = set(overlay.addresses) - {dead_peer}
        rejoin(overlay, victim, live)
        assert dead_peer not in overlay.table(victim)


class TestChurnModel:
    def test_protected_nodes_never_leave(self, overlay):
        model = ChurnModel(overlay, mean_session=1.0, mean_downtime=1.0,
                           protected_fraction=1.0, seed=4)
        scheduler = EventScheduler()
        model.install(scheduler)
        scheduler.run_until(100.0)
        assert model.live_fraction == 1.0
        assert model.stats.departures == 0

    def test_churn_reduces_live_fraction(self, overlay):
        model = ChurnModel(overlay, mean_session=10.0, mean_downtime=10.0,
                           protected_fraction=0.0, seed=4)
        scheduler = EventScheduler()
        model.install(scheduler)
        scheduler.run_until(50.0)
        assert model.stats.departures > 0
        assert model.live_fraction < 1.0

    def test_nodes_come_back(self, overlay):
        model = ChurnModel(overlay, mean_session=5.0, mean_downtime=1.0,
                           protected_fraction=0.0, seed=4)
        scheduler = EventScheduler()
        model.install(scheduler)
        scheduler.run_until(200.0)
        assert model.stats.rejoins > 0
        # Short downtimes keep most of the population online.
        assert model.live_fraction > 0.5

    def test_live_array_matches_set(self, overlay):
        model = ChurnModel(overlay, seed=4)
        scheduler = EventScheduler()
        model.install(scheduler)
        scheduler.run_until(150.0)
        assert set(model.live_array().tolist()) == model.live.intersection(
            model.live
        )

    def test_bad_fraction_rejected(self, overlay):
        with pytest.raises(ConfigurationError):
            ChurnModel(overlay, protected_fraction=1.5)

    def test_deterministic(self, overlay):
        def run():
            fresh = Overlay.build(OverlayConfig(n_nodes=60, bits=10, seed=2))
            model = ChurnModel(fresh, mean_session=5.0, mean_downtime=5.0,
                               protected_fraction=0.0, seed=4)
            scheduler = EventScheduler()
            model.install(scheduler)
            scheduler.run_until(50.0)
            return (model.stats.departures, model.stats.rejoins,
                    sorted(model.live))
        assert run() == run()


class TestMembershipSurgery:
    def test_eviction_count_matches_tables_that_held_the_node(self, overlay):
        victim = overlay.addresses[3]
        holders = [owner for owner in overlay.addresses
                   if owner != victim and victim in overlay.table(owner)]
        assert depart(overlay, victim) == len(holders)

    def test_second_departure_evicts_nothing(self, overlay):
        victim = overlay.addresses[3]
        depart(overlay, victim)
        assert depart(overlay, victim) == 0

    def test_rejoin_unknown_node_rejected(self, overlay):
        missing = next(
            a for a in range(overlay.space.size) if a not in overlay
        )
        with pytest.raises(OverlayError):
            rejoin(overlay, missing, set(overlay.addresses))

    def test_rejoin_skips_offline_owners(self, overlay):
        victim = overlay.addresses[0]
        depart(overlay, victim)
        offline = set(overlay.addresses[1:20])
        live = set(overlay.addresses) - offline
        rejoin(overlay, victim, live)
        assert not any(victim in overlay.table(owner) for owner in offline)

    def test_second_rejoin_accepts_nothing(self, overlay):
        victim = overlay.addresses[0]
        depart(overlay, victim)
        live = set(overlay.addresses)
        assert rejoin(overlay, victim, live) > 0
        assert rejoin(overlay, victim, live) == 0

    def test_rejoin_keeps_live_peers_in_own_table(self, overlay):
        victim = overlay.addresses[0]
        peers = overlay.table(victim).peers()
        dead = set(peers[:2])
        rejoin(overlay, victim, set(overlay.addresses) - dead)
        assert set(overlay.table(victim).peers()) == set(peers) - dead


class TestChurnModelConfig:
    @pytest.mark.parametrize("field", ["mean_session", "mean_downtime"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_means_rejected(self, overlay, field, value):
        with pytest.raises(ConfigurationError):
            ChurnModel(overlay, **{field: value})

    @pytest.mark.parametrize("fraction,expected", [
        (0.0, 0), (0.25, 15), (1.0, 60),
    ])
    def test_protected_set_size(self, overlay, fraction, expected):
        model = ChurnModel(overlay, protected_fraction=fraction, seed=4)
        assert len(model.protected) == expected
        assert model.protected <= set(overlay.addresses)

    def test_everyone_starts_live(self, overlay):
        model = ChurnModel(overlay, seed=4)
        assert model.live_fraction == 1.0
        assert all(model.is_live(node) for node in overlay.addresses)

    def test_install_schedules_one_departure_per_churning_node(
            self, overlay):
        model = ChurnModel(overlay, protected_fraction=0.25, seed=4)
        scheduler = EventScheduler()
        model.install(scheduler)
        assert len(scheduler) == len(overlay) - len(model.protected)

    def test_stats_render(self):
        from repro.swarm.churn import ChurnStats

        stats = ChurnStats(departures=3, rejoins=2, evictions=40,
                           acceptances=25)
        assert str(stats) == ("3 departures, 2 rejoins, 40 table "
                              "evictions, 25 table acceptances")


class TestChurnInvariants:
    @pytest.fixture()
    def churned(self, overlay):
        model = ChurnModel(overlay, mean_session=8.0, mean_downtime=4.0,
                           protected_fraction=0.2, seed=7)
        scheduler = EventScheduler()
        model.install(scheduler)
        return model, scheduler

    def test_offline_count_is_departures_minus_rejoins(self, churned):
        model, scheduler = churned
        for horizon in (10.0, 25.0, 60.0):
            scheduler.run_until(horizon)
            offline = len(model.overlay) - len(model.live)
            assert offline == model.stats.departures - model.stats.rejoins

    def test_protected_nodes_stay_live_throughout(self, churned):
        model, scheduler = churned
        for horizon in (10.0, 25.0, 60.0):
            scheduler.run_until(horizon)
            assert model.protected <= model.live

    def test_offline_nodes_are_in_no_live_table(self, churned):
        model, scheduler = churned
        scheduler.run_until(40.0)
        offline = set(model.overlay.addresses) - model.live
        assert offline
        for owner in model.live:
            assert not offline & set(model.overlay.table(owner).peers())
