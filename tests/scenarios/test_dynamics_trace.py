"""Dynamics traces: event JSON, the container, recording, and replay.

The load-bearing guarantee: recording a scenario's schedule with
:func:`~repro.scenarios.trace.record_dynamics` and replaying the file
through :class:`~repro.scenarios.library.TraceReplay` is **equal** at
the schedule level and **bit-identical** at the simulation level to
running the source scenario directly — including under composition,
where per-stream alive masks must survive the round trip.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.backends import run_simulation
from repro.backends.config import FastSimulationConfig
from repro.errors import ConfigurationError
from repro.scenarios import (
    CacheState,
    Churn,
    Compose,
    NodeJoin,
    PathCaching,
    PolicyOverride,
    TopologyDelta,
    TraceReplay,
    event_from_json,
    event_to_json,
    parse_scenario,
)
from repro.scenarios.base import ScenarioContext
from repro.scenarios.trace import (
    DYNAMICS_TRACE_FORMAT,
    DynamicsTrace,
    record_dynamics,
)

CTX = ScenarioContext(
    n_nodes=40, n_epochs=6, space_size=256, overlay_seed=42
)

EVENTS = [
    TopologyDelta(leaves=(1, 5), joins=(2,)),
    TopologyDelta(),
    CacheState(enabled=True, capacity=64),
    CacheState(enabled=False, capacity=0),
    PolicyOverride(unpaid_origins=(3, 7)),
    PolicyOverride(unpaid_origins=(), origin_focus=(1, 2, 3)),
    PolicyOverride(),
]


class TestEventJson:
    @pytest.mark.parametrize("event", EVENTS, ids=repr)
    def test_exact_round_trip(self, event):
        payload = json.loads(json.dumps(event_to_json(event)))
        assert event_from_json(payload) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trace event"):
            event_from_json({"kind": "quantum"})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            event_from_json([1, 2])

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            event_from_json({"kind": "topology", "leaves": [1]})


class TestDynamicsTraceContainer:
    def test_save_load_round_trip(self, tmp_path):
        trace = record_dynamics(Churn(rate=0.2, recompute=True), CTX)
        path = tmp_path / "dynamics.json"
        trace.save(path)
        loaded = DynamicsTrace.load(path)
        assert loaded == trace
        assert loaded.streams == trace.streams
        assert loaded.source == "churn:rate=0.2,recompute=True"
        assert loaded.recompute_storers is True
        assert loaded.bits == 8
        assert loaded.overlay_seed == 42

    def test_record_requires_overlay_seed(self):
        anonymous = ScenarioContext(n_nodes=40, n_epochs=6, space_size=256)
        with pytest.raises(ConfigurationError, match="overlay seed"):
            record_dynamics(Churn(rate=0.2), anonymous)

    def test_composition_records_one_stream_per_child(self):
        scenario = Compose(Churn(rate=0.2), NodeJoin(fraction=0.3))
        trace = record_dynamics(scenario, CTX)
        assert len(trace.streams) == 2
        assert trace.streams == scenario.stream_schedules(CTX)
        assert trace.recompute_storers is True  # NodeJoin re-homes

    def test_describe_mentions_shape(self):
        trace = record_dynamics(Churn(rate=0.2), CTX)
        text = trace.describe()
        assert "6 epoch(s)" in text
        assert "40 nodes" in text

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            DynamicsTrace.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        trace = record_dynamics(Churn(rate=0.2), CTX)
        path = tmp_path / "truncated.json"
        trace.save(path)
        path.write_text(path.read_text()[:-40])
        with pytest.raises(ConfigurationError, match="truncated or corrupt"):
            DynamicsTrace.load(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ConfigurationError, match="format tag"):
            DynamicsTrace.load(path)

    def test_request_trace_file_rejected(self, tmp_path):
        # The sibling format must not be confused for this one.
        path = tmp_path / "requests.ndjson"
        path.write_text(json.dumps({
            "format": "repro-swarm-trace/ndjson-1", "bits": 8,
            "n_nodes": 4, "overlay_seed": 1,
        }) + "\n" + json.dumps(
            {"file_id": 0, "originator": 1, "chunks": [2]}) + "\n")
        with pytest.raises(ConfigurationError,
                           match="this is a request trace"):
            DynamicsTrace.load(path)

    def test_data_after_the_document_rejected(self, tmp_path):
        path = tmp_path / "doubled.json"
        document = json.dumps(record_dynamics(Churn(rate=0.2),
                                              CTX).to_json())
        path.write_text(document + "\n" + document + "\n")
        with pytest.raises(ConfigurationError,
                           match="data after the JSON document"):
            DynamicsTrace.load(path)

    def test_missing_header_field_rejected(self, tmp_path):
        path = tmp_path / "headerless.json"
        path.write_text(json.dumps({
            "format": DYNAMICS_TRACE_FORMAT, "bits": 8,
        }))
        with pytest.raises(ConfigurationError, match="header field"):
            DynamicsTrace.load(path)

    def test_bad_event_kind_rejected(self, tmp_path):
        trace = record_dynamics(Churn(rate=0.2), CTX)
        document = trace.to_json()
        document["streams"][0][0] = [{"kind": "quantum"}]
        path = tmp_path / "badevent.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="unknown trace event"):
            DynamicsTrace.load(path)

    @pytest.mark.parametrize("field, value", [
        ("recompute_storers", "false"), ("recompute_storers", 0),
        ("recompute_storers", None), ("bits", 12.9), ("bits", "8"),
        ("n_nodes", "40"), ("n_nodes", 40.0), ("overlay_seed", True),
        ("overlay_seed", None), ("n_epochs", "6"), ("n_epochs", 6.0),
        ("n_epochs", False), ("source", 5), ("source", None),
    ])
    def test_header_values_are_never_coerced(self, tmp_path, field,
                                              value):
        # "false" must not replay as recompute_storers=True, nor 12.9
        # as a 12-bit space.
        document = record_dynamics(Churn(rate=0.2), CTX).to_json()
        document[field] = value
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError,
                           match=rf"coerced\.json: header field '{field}'"):
            DynamicsTrace.load(path)

    @pytest.mark.parametrize("field, value", [
        ("bits", 0), ("bits", -1), ("bits", 65),
        ("n_nodes", 0), ("n_epochs", -1),
    ])
    def test_out_of_range_header_values_rejected(self, tmp_path, field,
                                                 value):
        trace = record_dynamics(Churn(rate=0.2), CTX)
        document = trace.to_json()
        document[field] = value
        path = tmp_path / "badheader.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="cannot read"):
            DynamicsTrace.load(path)

    def test_stream_epoch_count_mismatch_rejected(self, tmp_path):
        trace = record_dynamics(Churn(rate=0.2), CTX)
        document = trace.to_json()
        document["streams"][0] = document["streams"][0][:-1]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="header says"):
            DynamicsTrace.load(path)

    @pytest.mark.parametrize("field, value", [
        ("enabled", "false"), ("capacity", 12.9), ("capacity", "12"),
        ("enabled", 0),
    ])
    def test_coerced_event_field_rejected(self, tmp_path, field, value):
        trace = record_dynamics(PathCaching(size=12), CTX)
        document = trace.to_json()
        event = document["streams"][0][0][0]
        assert event["kind"] == "cache"
        event[field] = value
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError,
                           match=f"cannot read dynamics trace.*{field!r}"):
            DynamicsTrace.load(path)


class TestCheckContext:
    @pytest.fixture()
    def trace(self):
        return record_dynamics(Churn(rate=0.2), CTX)

    def test_matching_context_accepted(self, trace):
        trace.check_context(CTX)

    def test_overlay_seed_none_skips_that_check(self, trace):
        trace.check_context(dataclasses.replace(CTX, overlay_seed=None))

    def test_fewer_epochs_accepted(self, trace):
        trace.check_context(dataclasses.replace(CTX, n_epochs=3))

    @pytest.mark.parametrize("override, message", [
        ({"space_size": 512}, "8-bit space"),
        ({"n_nodes": 39}, "on 40 nodes"),
        ({"overlay_seed": 7}, "overlay seed"),
        ({"n_epochs": 7}, "record the trace with at least"),
    ])
    def test_mismatches_rejected(self, trace, override, message):
        bad = dataclasses.replace(CTX, **override)
        with pytest.raises(ConfigurationError, match=message):
            trace.check_context(bad)


class TestTraceReplayScenario:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "dynamics.json"
        record_dynamics(
            Compose(Churn(rate=0.2, recompute=True),
                    NodeJoin(fraction=0.3)),
            CTX,
        ).save(path)
        return path

    def test_parse_and_spec_round_trip(self, trace_path):
        scenario = parse_scenario(f"trace:path={trace_path}")
        assert isinstance(scenario, TraceReplay)
        assert scenario.spec() == f"trace:path={trace_path}"

    def test_missing_file_fails_at_construction(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            TraceReplay(path=str(tmp_path / "nope.json"))

    def test_schedule_equals_source_schedule(self, trace_path):
        source = Compose(Churn(rate=0.2, recompute=True),
                         NodeJoin(fraction=0.3))
        replay = TraceReplay(path=str(trace_path))
        assert replay.schedule(CTX) == source.schedule(CTX)
        assert replay.stream_schedules(CTX) == source.stream_schedules(CTX)
        assert replay.recompute_storers is True

    def test_replay_truncates_to_shorter_context(self, trace_path):
        short = dataclasses.replace(CTX, n_epochs=4)
        replay = TraceReplay(path=str(trace_path))
        source = Compose(Churn(rate=0.2, recompute=True),
                         NodeJoin(fraction=0.3))
        # The source re-draws for 4 epochs; the trace replays the
        # recorded 6-epoch prefix — for Churn those agree epoch by
        # epoch (its draw stream is per-epoch), so the prefix matches.
        assert len(replay.schedule(short)) == 4
        assert replay.stream_schedules(short) == tuple(
            stream[:4] for stream in source.stream_schedules(CTX)
        )

    def test_replay_composes_with_live_scenarios(self, trace_path):
        composed = parse_scenario(
            f"trace:path={trace_path}+caching:size=16"
        )
        streams = composed.stream_schedules(CTX)
        assert len(streams) == 3  # two recorded + one live
        assert streams[2][0] == (CacheState(enabled=True, capacity=16),)


#: Small multi-epoch simulation shape shared by the bit-identity tests.
SIM = dict(
    n_nodes=120, bits=12, bucket_size=4, originator_share=0.5,
    n_files=30, file_min=4, file_max=12, overlay_seed=42,
    workload_seed=7, batch_files=8,
)


def assert_results_identical(a, b):
    assert np.array_equal(a.forwarded, b.forwarded)
    assert np.array_equal(a.first_hop, b.first_hop)
    assert a.hop_histogram == b.hop_histogram
    assert np.array_equal(a.income, b.income)
    assert np.array_equal(a.expenditure, b.expenditure)
    assert (a.fallbacks, a.unavailable, a.cache_hits, a.local_hits) == (
        b.fallbacks, b.unavailable, b.cache_hits, b.local_hits
    )


class TestReplayBitIdentity:
    @pytest.mark.parametrize("spec", [
        "churn:rate=0.3,recompute=true",
        "join:fraction=0.4,waves=2+churn:rate=0.1",
        "demand:share=0.2+freeriding:fraction=0.3",
    ])
    def test_replay_matches_direct_run(self, tmp_path, spec):
        config = FastSimulationConfig(**SIM, scenario=spec)
        path = tmp_path / "dynamics.json"
        record_dynamics(
            config.scenario_stack(), config.scenario_context()
        ).save(path)
        direct = run_simulation(config)
        replayed = run_simulation(
            dataclasses.replace(config, scenario=f"trace:path={path}")
        )
        assert_results_identical(direct, replayed)

    def test_composed_topology_semantics_survive_round_trip(self, tmp_path):
        # join+churn is the composition whose semantics depend on
        # per-stream alive masks: a single merged stream would let
        # churn's joins resurrect the join storm's offline cohort.
        spec = "join:fraction=0.5,waves=1+churn:rate=0.2,recompute=true"
        config = FastSimulationConfig(**SIM, scenario=spec)
        path = tmp_path / "dynamics.json"
        record_dynamics(
            config.scenario_stack(), config.scenario_context()
        ).save(path)
        direct = run_simulation(config)
        replayed = run_simulation(
            dataclasses.replace(config, scenario=f"trace:path={path}")
        )
        assert_results_identical(direct, replayed)
        assert direct.unavailable > 0  # the dynamics actually bit

    def test_replay_composes_on_top_of_live_caching(self, tmp_path):
        # Record only the churn; compose the cache model live at
        # replay time — must equal composing both live.
        config = FastSimulationConfig(
            **SIM, catalog_size=20,
            scenario="churn:rate=0.2,recompute=true",
        )
        path = tmp_path / "dynamics.json"
        record_dynamics(
            config.scenario_stack(), config.scenario_context()
        ).save(path)
        direct = run_simulation(dataclasses.replace(
            config,
            scenario="churn:rate=0.2,recompute=true+caching:size=64",
        ))
        replayed = run_simulation(dataclasses.replace(
            config, scenario=f"trace:path={path}+caching:size=64",
        ))
        assert_results_identical(direct, replayed)
        assert replayed.cache_hits > 0

    def test_wrong_overlay_rejected_at_run_time(self, tmp_path):
        config = FastSimulationConfig(
            **SIM, scenario="churn:rate=0.2"
        )
        path = tmp_path / "dynamics.json"
        record_dynamics(
            config.scenario_stack(), config.scenario_context()
        ).save(path)
        wrong_seed = dataclasses.replace(
            config, overlay_seed=99, scenario=f"trace:path={path}"
        )
        with pytest.raises(ConfigurationError, match="overlay seed"):
            run_simulation(wrong_seed)
