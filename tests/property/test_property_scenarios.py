"""Property tests: scenario composition laws and backend identity.

Satellite coverage for the scenario layer:

* ``Compose(a, b)`` epoch schedules merge deterministically (child
  order, concatenation, flattening, repeatability) for arbitrary
  stacks drawn from the whole scenario library;
* a single-scenario ``Compose`` is indistinguishable from the bare
  scenario — pinned structurally on schedules and behaviorally with
  exact counters on every registry backend where scenarios apply
  (the engines that reject or ignore dynamics are pinned to keep
  doing so).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    FastSimulationConfig,
    available_backends,
    get_backend,
    get_backend_class,
    run_simulation,
)
from repro.errors import ConfigurationError
from repro.scenarios import (
    Churn,
    Compose,
    DemandShift,
    FreeRiding,
    NodeJoin,
    PathCaching,
    ScenarioContext,
)

scenario_strategy = st.one_of(
    st.builds(
        Churn,
        rate=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**16),
        recompute=st.booleans(),
    ),
    st.builds(PathCaching, size=st.integers(0, 128)),
    st.builds(
        FreeRiding,
        fraction=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        NodeJoin,
        fraction=st.floats(0.0, 1.0, allow_nan=False),
        waves=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        DemandShift,
        share=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    ),
)

context_strategy = st.builds(
    ScenarioContext,
    n_nodes=st.integers(2, 60),
    n_epochs=st.integers(0, 8),
    space_size=st.just(256),
)


@settings(max_examples=60, deadline=None)
@given(scenarios=st.lists(scenario_strategy, min_size=1, max_size=4),
       ctx=context_strategy)
def test_compose_merges_deterministically(scenarios, ctx):
    composed = Compose(*scenarios)
    merged = composed.schedule(ctx)
    assert merged == composed.schedule(ctx), "schedules must be pure"
    children = [s.schedule(ctx) for s in scenarios]
    assert len(merged) == ctx.n_epochs
    for epoch in range(ctx.n_epochs):
        expected = tuple(
            event for child in children for event in child[epoch]
        )
        assert merged[epoch] == expected


@settings(max_examples=60, deadline=None)
@given(scenarios=st.lists(scenario_strategy, min_size=1, max_size=3),
       extra=scenario_strategy, ctx=context_strategy)
def test_compose_flattens_associatively(scenarios, extra, ctx):
    nested = Compose(Compose(*scenarios), extra)
    flat = Compose(*scenarios, extra)
    assert nested == flat
    assert nested.schedule(ctx) == flat.schedule(ctx)
    assert nested.recompute_storers == flat.recompute_storers


@settings(max_examples=60, deadline=None)
@given(scenario=scenario_strategy, ctx=context_strategy)
def test_single_scenario_compose_equals_bare(scenario, ctx):
    wrapped = Compose(scenario)
    assert wrapped.schedule(ctx) == scenario.schedule(ctx)
    assert wrapped.recompute_storers == scenario.recompute_storers
    assert wrapped.spec() == scenario.spec()


# ----------------------------------------------------------------------
# Exact counters across the backend registry

BASE = dict(
    n_nodes=80, bits=10, bucket_size=4, originator_share=0.5,
    n_files=60, file_min=4, file_max=10, overlay_seed=3,
    workload_seed=9, batch_files=10, catalog_size=25,
)
SPEC = "churn:rate=0.2,recompute=true+caching:size=32"

#: Backends that route the workload through the scenario-capable
#: batched engine; the rest reject or ignore dynamics (pinned below).
SCENARIO_BACKENDS = ("fast", "flat", "time")


@pytest.mark.parametrize("backend", SCENARIO_BACKENDS)
def test_wrapping_the_stack_in_compose_is_invisible(backend, monkeypatch):
    """Compose-of-one runs bit-identically to the bare stack."""
    config = FastSimulationConfig(**BASE, scenario=SPEC)
    bare = run_simulation(config, backend=backend)

    original = FastSimulationConfig.scenario_stack

    def wrapped_stack(self):
        stack = original(self)
        return stack if stack is None else Compose(stack)

    monkeypatch.setattr(
        FastSimulationConfig, "scenario_stack", wrapped_stack
    )
    wrapped = run_simulation(config, backend=backend)
    assert np.array_equal(bare.forwarded, wrapped.forwarded)
    assert np.array_equal(bare.first_hop, wrapped.first_hop)
    assert np.array_equal(bare.income, wrapped.income)
    assert np.array_equal(bare.expenditure, wrapped.expenditure)
    assert bare.hop_histogram == wrapped.hop_histogram
    assert bare.cache_hits == wrapped.cache_hits
    assert bare.unavailable == wrapped.unavailable


def test_registry_covers_every_backend_posture():
    """Each of the 6 backends either runs scenarios or refuses loudly."""
    config = FastSimulationConfig(**BASE, scenario=SPEC)
    seen = set()
    for name in available_backends():
        seen.add(name)
        if name in SCENARIO_BACKENDS:
            result = run_simulation(config, backend=name)
            assert result.cache_hits > 0
        elif name == "tit_for_tat":
            # Self-contained swarm: does not replay the workload, so
            # the scenario fields are inert by design.
            assert not get_backend_class(name).replays_workload
        else:  # reference, filecoin
            with pytest.raises(ConfigurationError):
                get_backend(name).prepare(config)
    assert len(seen) == 6, "registry grew: classify the new backend here"
