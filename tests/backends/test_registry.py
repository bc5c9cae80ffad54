"""Unit tests for the backend protocol and registry."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import (
    FastSimulationConfig,
    SimulationBackend,
    available_backends,
    get_backend,
    register_backend,
    run_simulation,
)
from repro.backends import base
from repro.backends.base import backend_specs
from repro.errors import ConfigurationError


SMALL = FastSimulationConfig(
    n_nodes=60, bits=10, bucket_size=4, originator_share=0.5,
    n_files=12, file_min=3, file_max=8, overlay_seed=3, workload_seed=9,
)


class TestRegistry:
    def test_core_backends_registered(self):
        assert sorted(available_backends()) == [
            "fast", "filecoin", "flat", "reference", "time", "tit_for_tat",
        ]

    @pytest.mark.parametrize("name", ["bogus", "fast-perfile"])
    def test_unknown_backend_lists_available(self, name):
        with pytest.raises(ConfigurationError, match="fast") as unknown:
            get_backend(name)
        for name in base._BACKEND_MODULES:
            assert repr(name) in str(unknown.value)

    def test_module_table_names_every_registered_backend(self):
        assert set(base._BACKEND_MODULES) == set(available_backends())
        for name, module in base._BACKEND_MODULES.items():
            assert (base.get_backend_class(name).__module__
                    == f"repro.backends.{module}")

    def test_instances_are_fresh(self):
        assert get_backend("fast") is not get_backend("fast")

    def test_backend_specs_have_descriptions(self):
        for name, description in backend_specs():
            assert name and description

    def test_register_requires_name(self):
        class Nameless(SimulationBackend):
            def prepare(self, config):
                return self

            def run(self, workload=None):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="name"):
            register_backend(Nameless)

    def test_constructor_kwargs_forwarded(self):
        backend = get_backend("filecoin", block_reward=0.5)
        assert backend.block_reward == 0.5


class TestProtocol:
    @pytest.mark.parametrize("name", ["fast", "reference"])
    def test_run_before_prepare_rejected(self, name):
        with pytest.raises(ConfigurationError, match="prepare"):
            get_backend(name).run()

    @pytest.mark.parametrize("name", ["fast", "reference", "flat",
                                      "filecoin"])
    def test_prepare_chains_and_exposes_overlay(self, name):
        backend = get_backend(name)
        assert backend.prepare(SMALL) is backend
        assert backend.config is SMALL
        assert backend.overlay is not None
        assert len(backend.overlay) == SMALL.n_nodes

    @pytest.mark.parametrize("name", available_backends())
    def test_every_backend_produces_a_result(self, name):
        result = run_simulation(SMALL, backend=name)
        assert result.n_nodes >= 1
        assert len(result.forwarded) == result.n_nodes
        assert len(result.income) == result.n_nodes
        assert 0.0 <= result.f2_gini() <= 1.0

    def test_run_simulation_accepts_backend_kwargs(self):
        unpriced = run_simulation(SMALL, backend="flat",
                                  reward_per_chunk=0.0)
        priced = run_simulation(SMALL, backend="flat", reward_per_chunk=3.0)
        assert unpriced.income.sum() == 0
        assert np.array_equal(priced.income, 3.0 * priced.forwarded)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_freeriding_withholds_payment_only(self, fraction):
        paying = run_simulation(SMALL)
        riding = run_simulation(dataclasses.replace(
            SMALL, scenario=f"freeriding:fraction={fraction}"))
        # Traffic itself is unchanged — only payment is withheld.
        assert np.array_equal(paying.forwarded, riding.forwarded)
        assert np.array_equal(paying.first_hop, riding.first_hop)
        if fraction == 0.0:
            assert np.array_equal(paying.income, riding.income)
        elif fraction == 1.0:
            assert riding.income.sum() == 0
        else:
            assert 0 < riding.income.sum() < paying.income.sum()
