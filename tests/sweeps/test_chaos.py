"""Tests for the deterministic fault-injection harness itself."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.sweeps.chaos import (
    FAULT_PLAN_ENV,
    Fault,
    FaultPlan,
    InjectedFault,
    active_fault_plan,
    maybe_inject,
)


def write_plan(tmp_path, faults):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"faults": faults}))
    return path


class TestFaultPlan:
    def test_parse_and_lookup(self, tmp_path):
        plan = FaultPlan.load(write_plan(tmp_path, [
            {"point_id": "fast||r0", "attempt": 1, "kind": "exception",
             "message": "boom"},
        ]))
        fault = plan.lookup("fast||r0", 1)
        assert fault == Fault(point_id="fast||r0", attempt=1,
                              kind="exception", message="boom")
        assert plan.lookup("fast||r0", 0) is None
        assert plan.lookup("fast||r1", 1) is None

    def test_unknown_kind_refused(self):
        with pytest.raises(ConfigurationError, match="meteor"):
            Fault(point_id="p", attempt=0, kind="meteor")

    def test_unknown_keys_refused(self):
        with pytest.raises(ConfigurationError, match="delay"):
            Fault.from_json({"point_id": "p", "kind": "hang",
                             "delay": 3})

    def test_missing_required_key_refused(self):
        with pytest.raises(ConfigurationError, match="missing"):
            Fault.from_json({"kind": "crash"})

    @pytest.mark.parametrize("entry, key", [
        ('{"point_id": 5, "kind": "crash"}', "point_id"),
        ('{"point_id": "p", "kind": ["crash"]}', "kind"),
        ('{"point_id": "p", "kind": "crash", "attempt": "3"}', "attempt"),
        ('{"point_id": "p", "kind": "crash", "attempt": true}', "attempt"),
        ('{"point_id": "p", "kind": "crash", "attempt": 1.0}', "attempt"),
        ('{"point_id": "p", "kind": "hang", "seconds": NaN}', "seconds"),
        ('{"point_id": "p", "kind": "hang", "seconds": Infinity}',
         "seconds"),
        ('{"point_id": "p", "kind": "hang", "seconds": "60"}', "seconds"),
        ('{"point_id": "p", "kind": "hang", "seconds": 1' + "0" * 400
         + "}", "seconds"),
        ('{"point_id": "p", "kind": "exception", "message": null}',
         "message"),
    ], ids=["int-point", "list-kind", "quoted-attempt", "bool-attempt",
            "float-attempt", "nan-seconds", "inf-seconds",
            "quoted-seconds", "huge-seconds", "null-message"])
    def test_mistyped_field_refused(self, entry, key):
        """JSON types are taken as written, never coerced."""
        with pytest.raises(ConfigurationError, match=f"bad {key}"):
            Fault.from_json(json.loads(entry))

    def test_integer_seconds_accepted(self):
        fault = Fault.from_json({"point_id": "p", "kind": "hang",
                                 "seconds": 120})
        assert fault.seconds == 120.0
        assert isinstance(fault.seconds, float)

    def test_nan_hang_seconds_refused(self):
        with pytest.raises(ConfigurationError, match="seconds"):
            Fault(point_id="p", attempt=0, kind="hang",
                  seconds=float("nan"))

    def test_duplicate_key_refused(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FaultPlan((
                Fault(point_id="p", attempt=0, kind="crash"),
                Fault(point_id="p", attempt=0, kind="hang"),
            ))

    def test_document_must_carry_faults_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"injects": []}))
        with pytest.raises(ConfigurationError, match="faults"):
            FaultPlan.load(path)

    def test_unreadable_plan_refused(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(path)


class TestActivePlan:
    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert active_fault_plan() is None

    def test_env_names_the_plan(self, tmp_path, monkeypatch):
        path = write_plan(tmp_path, [
            {"point_id": "p", "kind": "exception"},
        ])
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        plan = active_fault_plan()
        assert plan is not None and len(plan) == 1

    def test_plan_cache_follows_mtime(self, tmp_path, monkeypatch):
        path = write_plan(tmp_path, [
            {"point_id": "p", "kind": "exception"},
        ])
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert len(active_fault_plan()) == 1
        import os
        path.write_text(json.dumps({"faults": [
            {"point_id": "p", "kind": "exception"},
            {"point_id": "q", "kind": "exception"},
        ]}))
        os.utime(path, ns=(0, 0))  # force a distinct mtime either way
        assert len(active_fault_plan()) == 2

    def test_dangling_env_path_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, str(tmp_path / "gone.json"))
        with pytest.raises(ConfigurationError, match=FAULT_PLAN_ENV):
            active_fault_plan()


class TestMaybeInject:
    def test_exception_fault_fires_anywhere(self, tmp_path, monkeypatch):
        path = write_plan(tmp_path, [
            {"point_id": "p", "attempt": 0, "kind": "exception",
             "message": "boom"},
        ])
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        with pytest.raises(InjectedFault, match="boom.*point p.*attempt 0"):
            maybe_inject("p", 0)
        # Keyed by attempt: the retry sails through.
        maybe_inject("p", 1)
        maybe_inject("q", 0)

    @pytest.mark.parametrize("kind", ["crash", "kill", "hang"])
    def test_fatal_faults_skip_outside_workers(self, tmp_path,
                                               monkeypatch, kind):
        # This test process is not a spawned worker, so a fatal fault
        # must warn and skip — firing would kill/hang the test run.
        path = write_plan(tmp_path, [
            {"point_id": "p", "attempt": 0, "kind": kind,
             "seconds": 1.0},
        ])
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        with pytest.warns(RuntimeWarning, match="not a spawned worker"):
            maybe_inject("p", 0)
