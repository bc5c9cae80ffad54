"""Tests for the join/leave membership-log importer."""

from __future__ import annotations

import json

import pytest

from repro.backends.fast import FastSimulation, FastSimulationConfig
from repro.cli import main
from repro.errors import ConfigurationError
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.scenarios.events import TopologyDelta
from repro.scenarios.ingest import MAX_EPOCHS, import_dynamics
from repro.scenarios.trace import DynamicsTrace


@pytest.fixture(scope="module")
def overlay():
    return Overlay.build(OverlayConfig(
        n_nodes=60, bits=10, limits=BucketLimits.uniform(4), seed=5,
    ))


def log_line(ts, event, node):
    return json.dumps({"ts": ts, "event": event, "node": node}) + "\n"


class TestImportDynamics:
    def test_buckets_onto_epoch_grid(self, overlay):
        addresses = overlay.address_array()
        member = int(addresses[3])
        log = [
            log_line(0.0, "leave", member),
            log_line(4.9, "join", member),
            log_line(5.1, "leave", "peerX"),
            log_line(10.0, "join", "peerX"),
        ]
        trace, summary = import_dynamics(
            log, overlay=overlay, n_epochs=2
        )
        assert summary.events == 4
        assert summary.joins == 2
        assert summary.leaves == 2
        assert summary.n_epochs == 2
        assert summary.span_seconds == 10.0
        assert summary.direct_nodes == 2
        assert summary.hashed_nodes == 2
        assert trace.n_epochs == 2
        assert len(trace.streams) == 1
        schedule = trace.streams[0]
        # width = 10/2 = 5: first two events land in epoch 0, the
        # rest (5.1, 10.0 clamped) in epoch 1, order preserved.
        assert schedule[0] == (
            TopologyDelta(leaves=(3,)), TopologyDelta(joins=(3,)),
        )
        assert len(schedule[1]) == 2
        assert schedule[1][0].leaves == schedule[1][1].joins

    def test_epoch_seconds_grid(self, overlay):
        log = [
            log_line(0.0, "down", 12345),
            log_line(25.0, "up", 12345),
        ]
        trace, summary = import_dynamics(
            log, overlay=overlay, epoch_seconds=10.0
        )
        assert summary.n_epochs == 3
        assert [len(epoch) for epoch in trace.streams[0]] == [1, 0, 1]

    def test_single_timestamp_log(self, overlay):
        trace, summary = import_dynamics(
            [log_line(7.0, "leave", "p")], overlay=overlay, n_epochs=3
        )
        assert summary.span_seconds == 0.0
        assert [len(e) for e in trace.streams[0]] == [1, 0, 0]

    def test_aliases_and_field_variants(self, overlay):
        log = [
            json.dumps({"time": 0.0, "action": "connect",
                        "peer": "a"}) + "\n",
            json.dumps({"time": 1.0, "action": "disconnect",
                        "peer": "a"}) + "\n",
        ]
        trace, summary = import_dynamics(
            log, overlay=overlay, n_epochs=1
        )
        assert summary.joins == 1
        assert summary.leaves == 1
        # Same peer id -> same dense node index both times.
        epoch = trace.streams[0][0]
        assert epoch[0].joins == epoch[1].leaves

    def test_requires_exactly_one_grid_parameter(self, overlay):
        with pytest.raises(ConfigurationError, match="exactly one"):
            import_dynamics([], overlay=overlay)
        with pytest.raises(ConfigurationError, match="exactly one"):
            import_dynamics(
                [], overlay=overlay, n_epochs=2, epoch_seconds=5.0
            )
        with pytest.raises(ConfigurationError, match="n_epochs"):
            import_dynamics([], overlay=overlay, n_epochs=0)
        for width in (0.0, float("nan")):
            with pytest.raises(ConfigurationError, match="epoch_seconds"):
                import_dynamics([], overlay=overlay, epoch_seconds=width)

    def test_bad_lines_name_the_line(self, overlay):
        with pytest.raises(ConfigurationError, match="line 1"):
            import_dynamics(["{nope\n"], overlay=overlay, n_epochs=1)
        with pytest.raises(ConfigurationError, match="line 1"):
            import_dynamics(
                [log_line("soon", "join", "p")],
                overlay=overlay, n_epochs=1,
            )
        with pytest.raises(ConfigurationError, match="kind"):
            import_dynamics(
                [log_line(0.0, "flap", "p")],
                overlay=overlay, n_epochs=1,
            )
        with pytest.raises(ConfigurationError, match="fields"):
            import_dynamics(
                ['{"ts": 0.0}\n'], overlay=overlay, n_epochs=1
            )
        # A timestamp must be a finite JSON number as written: no
        # quoted number, bool, NaN or infinity (json.loads takes the
        # bare NaN/Infinity literals), nor an int past the float range.
        for ts in ('"5"', '"nan"', '"inf"', "true", "NaN", "Infinity",
                   "-Infinity", "1" + "0" * 400):
            line = f'{{"ts": {ts}, "event": "join", "node": "p"}}\n'
            with pytest.raises(ConfigurationError,
                               match="line 1: timestamp.*finite"):
                import_dynamics([line], overlay=overlay, n_epochs=1)
        for kind in (5, True, ["join"], {"join": 1}):
            with pytest.raises(ConfigurationError,
                               match="line 1: event kind.*not a string"):
                import_dynamics([log_line(0.0, kind, "p")],
                                overlay=overlay, n_epochs=1)
        # Finite timestamps whose span overflows a float.
        with pytest.raises(ConfigurationError, match="too wide"):
            import_dynamics(
                [log_line(-1e308, "join", "p"), log_line(1e308, "leave", "p")],
                overlay=overlay, n_epochs=1,
            )

    @pytest.mark.parametrize("grid", [
        {"n_epochs": MAX_EPOCHS + 1},
        {"epoch_seconds": 1.0},
        {"epoch_seconds": 1e-300},
    ], ids=["n_epochs", "epoch_seconds", "epoch_seconds_overflow"])
    def test_epoch_grid_is_bounded(self, overlay, grid):
        # A two-line log spanning 1e6 s: one-second epochs would be a
        # million lists, refused before any is allocated.
        log = [log_line(0.0, "leave", "p"), log_line(1e6, "join", "p")]
        with pytest.raises(ConfigurationError, match=str(MAX_EPOCHS)):
            import_dynamics(log, overlay=overlay, **grid)

    def test_epoch_grid_bound_is_inclusive(self, overlay):
        log = [log_line(0.0, "leave", "p"),
               log_line(float(MAX_EPOCHS), "join", "p")]
        _, summary = import_dynamics(log, overlay=overlay,
                                     epoch_seconds=1.0)
        assert summary.n_epochs == MAX_EPOCHS

    def test_empty_log_rejected(self, overlay):
        with pytest.raises(ConfigurationError, match="no events"):
            import_dynamics(
                ["# nothing\n"], overlay=overlay, n_epochs=1
            )

    def test_imported_trace_replays_as_scenario(self, overlay,
                                                tmp_path):
        rng_nodes = [int(a) for a in overlay.address_array()[:10]]
        log = [
            log_line(float(i), "leave", node)
            for i, node in enumerate(rng_nodes)
        ]
        trace, _ = import_dynamics(log, overlay=overlay, n_epochs=4)
        path = tmp_path / "dynamics.json"
        trace.save(path)
        config = FastSimulationConfig(
            n_nodes=60, bits=10, bucket_size=4, overlay_seed=5,
            n_files=16, batch_files=4,
            scenario=f"trace:path={path}",
        )
        result = FastSimulation(config).run()
        assert result.files == 16
        # Ten early-epoch departures must actually bite.
        assert result.unavailable > 0


class TestImportDynamicsCli:
    def test_cli_import_round_trips(self, tmp_path, capsys):
        log = tmp_path / "membership.log"
        log.write_text("".join(
            log_line(float(i), "leave" if i % 2 else "join", f"p{i}")
            for i in range(8)
        ))
        out = tmp_path / "dynamics.json"
        code = main([
            "trace", "import-dynamics", str(log), str(out),
            "--nodes", "60", "--bits", "10", "--overlay-seed", "5",
            "--epochs", "2",
        ])
        assert code == 0
        assert "8 membership events" in capsys.readouterr().out
        trace = DynamicsTrace.load(out)
        assert trace.n_epochs == 2
        assert trace.source == "import:membership.log"
        assert trace.n_nodes == 60

    def test_cli_refuses_an_unbounded_grid(self, tmp_path, capsys):
        log = tmp_path / "membership.log"
        log.write_text(log_line(0.0, "leave", "p")
                       + log_line(1e6, "join", "p"))
        code = main([
            "trace", "import-dynamics", str(log),
            str(tmp_path / "out.json"), "--nodes", "60", "--bits", "10",
            "--epoch-seconds", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(MAX_EPOCHS) in err and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_cli_requires_a_grid_flag(self, tmp_path, capsys):
        log = tmp_path / "membership.log"
        log.write_text(log_line(0.0, "join", "p"))
        with pytest.raises(SystemExit):
            main([
                "trace", "import-dynamics", str(log),
                str(tmp_path / "out.json"),
            ])
        capsys.readouterr()
