"""End-to-end tests for ``repro-swarm serve`` (live service mode)."""

from __future__ import annotations

import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation
from repro.cli import main
from repro.errors import WorkloadError
from repro.serve import run_serve
from tests.backends.test_streaming import ALL_CONFIGS, assert_identical

#: The checkout these tests belong to (``src/`` is its package root).
REPO = Path(__file__).resolve().parents[2]

CONFIG = FastSimulationConfig(
    n_nodes=60, bits=10, bucket_size=4, overlay_seed=5,
    batch_files=8,
)


def request_lines(config, n_files=40, seed=3):
    """NDJSON request lines sampled from the serving overlay."""
    simulation = FastSimulation(config)
    addresses = simulation.overlay.address_array()
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_files):
        originator = int(rng.choice(addresses))
        chunks = rng.integers(
            0, simulation.space.size, size=int(rng.integers(2, 6))
        )
        lines.append(json.dumps({
            "originator": originator,
            "chunks": [int(c) for c in chunks],
        }) + "\n")
    return lines


#: The request-trace header naming CONFIG's overlay.
HEADER = json.dumps({
    "format": "repro-swarm-trace/ndjson-1", "bits": CONFIG.bits,
    "n_nodes": CONFIG.n_nodes, "overlay_seed": CONFIG.overlay_seed,
}) + "\n"


def workload_lines(config):
    """*config*'s own workload, one request line per download event."""
    simulation = FastSimulation(config)
    events = config.workload().events(simulation.overlay.address_array(),
                                      simulation.space)
    return [json.dumps({"originator": int(event.originator),
                        "chunks": event.chunk_addresses.tolist()}) + "\n"
            for event in events]


#: (golden config, max_batch): every golden at its slab size, and the
#: static golden cut at sizes that straddle its slabs too.
SERVE_CASES = [(name, ALL_CONFIGS[name].batch_files)
               for name in sorted(ALL_CONFIGS)] + [
    ("static", max_batch) for max_batch in (1, 7, 1000)]


@pytest.mark.parametrize("name, max_batch", SERVE_CASES)
def test_served_aggregate_equals_the_batch_run(name, max_batch):
    """Streamed == batch, per-node vector by per-node vector.

    Serve is the one streaming path: its aggregate over a golden
    workload's requests must equal ``run()`` on that config in every
    counter, per-node vector and hop-histogram bucket.
    """
    config = ALL_CONFIGS[name]
    n_epochs = None
    if config.scenario_stack() is not None:
        n_epochs = math.ceil(config.n_files / config.batch_files)
    aggregator = run_serve(config, workload_lines(config), io.StringIO(),
                           max_batch=max_batch, n_epochs=n_epochs)
    assert_identical(FastSimulation(config).run(), aggregator)


def serve_lines(lines, **kwargs):
    out = io.StringIO()
    run_serve(CONFIG, iter(lines), out, **kwargs)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestRunServe:
    def test_streamed_final_equals_batch_final(self):
        """The byte-identity CI relies on: stream == batch reference."""
        lines = request_lines(CONFIG)
        streamed = io.StringIO()
        batch = io.StringIO()
        run_serve(CONFIG, iter(lines), streamed, max_batch=8)
        run_serve(CONFIG, iter(lines), batch, batch_mode=True)
        streamed_final = streamed.getvalue().splitlines()[-1]
        batch_final = batch.getvalue().splitlines()[-1]
        assert streamed_final == batch_final

    def test_final_is_batch_size_invariant(self):
        lines = request_lines(CONFIG)
        finals = {
            serve_lines(lines, max_batch=max_batch)[-1]["chunks"]
            for max_batch in (1, 8, 1000)
        }
        assert len(finals) == 1

    def test_snapshot_cadence(self):
        lines = request_lines(CONFIG, n_files=40)
        output = serve_lines(lines, max_batch=10, flush_interval=2)
        kinds = [line["type"] for line in output]
        # 4 micro-epochs, snapshot every 2nd, plus the final line.
        assert kinds == ["snapshot", "snapshot", "final"]
        assert output[0]["epochs"] == 2
        assert "epochs" not in output[-1]

    def test_rolling_snapshots_are_monotonic(self):
        lines = request_lines(CONFIG, n_files=40)
        output = serve_lines(lines, max_batch=8)
        snapshots = [li for li in output if li["type"] == "snapshot"]
        chunk_counts = [snap["chunks"] for snap in snapshots]
        assert chunk_counts == sorted(chunk_counts)
        assert len(snapshots) == 5

    def test_empty_input_emits_final_only(self):
        output = serve_lines([])
        assert [line["type"] for line in output] == ["final"]
        assert output[0]["chunks"] == 0

    def test_accepts_ndjson_trace_header(self):
        lines = request_lines(CONFIG, n_files=10)
        with_header = serve_lines([HEADER] + lines)
        without = serve_lines(lines)
        assert with_header[-1] == without[-1]

    def test_line_numbers_count_the_trace_header(self):
        lines = request_lines(CONFIG, n_files=10)
        lines[2] = "{nope\n"
        with pytest.raises(WorkloadError, match=r"\(line 4\)$"):
            serve_lines([HEADER] + lines)

    @pytest.mark.parametrize("first", ["[" * 100_000, "1" * 5000])
    def test_undecodable_first_line_is_refused(self, first):
        # The trace-header peek must not leak json's RecursionError or
        # its int-size ValueError.
        with pytest.raises(WorkloadError, match=r"\(line 1\)$"):
            serve_lines([first + "\n"])

    @pytest.mark.parametrize("field, value, message", [
        ("bits", 16, "16-bit space"),
        ("n_nodes", 1000, "on 1000 nodes"),
        ("overlay_seed", 6, "overlay seed 6"),
    ])
    def test_trace_header_mismatch_rejected(self, field, value, message):
        header = json.dumps({**json.loads(HEADER), field: value}) + "\n"
        with pytest.raises(WorkloadError, match=message):
            serve_lines([header])

    @pytest.mark.parametrize("field, value", [
        ("format", "repro-swarm-dynamics/1"), ("format", None),
        ("format", ["repro-swarm-trace/ndjson-1"]),
        ("bits", "10"), ("bits", 10.0), ("bits", True), ("bits", None),
        ("n_nodes", "60"), ("overlay_seed", 5.0), ("overlay_seed", None),
    ])
    def test_malformed_trace_header_refused(self, field, value):
        header = json.dumps({**json.loads(HEADER), field: value}) + "\n"
        with pytest.raises(WorkloadError,
                           match=r"^cannot read request trace <input>: "):
            serve_lines([header] + request_lines(CONFIG, n_files=2))

    @pytest.mark.parametrize("batch_mode", [False, True])
    @pytest.mark.parametrize("bad", [
        '{"chunks": [1.5]}', '{"chunks": [[1, 2]]}', '{"chunks": [true]}',
        '{"chunks": ["12"]}',
    ])
    def test_bad_wire_type_is_a_named_workload_error(self, bad,
                                                      batch_mode):
        lines = request_lines(CONFIG, n_files=10)
        origin = json.loads(lines[4])["originator"]
        lines[4] = bad.replace("{", f'{{"originator": {origin}, ', 1)
        with pytest.raises(WorkloadError, match=r"\(line 5\)$"):
            serve_lines(lines, batch_mode=batch_mode)

    def test_wire_aliases_serve_like_the_plain_form(self):
        """``chunk`` and ``file_id`` decode like a one-item ``chunks``."""
        plain, aliased = [], []
        for number, line in enumerate(request_lines(CONFIG, n_files=20)):
            origin, chunk = json.loads(line)["originator"], json.loads(
                line)["chunks"][0]
            plain.append(json.dumps(
                {"originator": origin, "chunks": [chunk]}) + "\n")
            key = "chunk" if number % 2 else "chunks"
            aliased.append(json.dumps({
                "originator": origin, "file_id": number,
                key: chunk if number % 2 else [chunk],
            }) + "\n")
        assert serve_lines(aliased)[-1] == serve_lines(plain)[-1]

    def test_rejects_bad_flush_interval(self):
        with pytest.raises(WorkloadError, match="flush_interval"):
            serve_lines([], flush_interval=0)

    def test_scenario_serving_matches_batch(self):
        """Churn dynamics stream exactly (micro-epoch = engine epoch)."""
        config = FastSimulationConfig(
            n_nodes=60, bits=10, bucket_size=4, overlay_seed=5,
            batch_files=8, scenario="churn:rate=0.25",
        )
        lines = request_lines(config)
        streamed = io.StringIO()
        batch = io.StringIO()
        run_serve(config, iter(lines), streamed, max_batch=8,
                  n_epochs=5)
        run_serve(config, iter(lines), batch, batch_mode=True)
        assert (streamed.getvalue().splitlines()[-1]
                == batch.getvalue().splitlines()[-1])
        final = json.loads(streamed.getvalue().splitlines()[-1])
        assert final["unavailable"] > 0  # the churn actually bit


#: RSS growth allowed between an early micro-epoch and the end of a
#: stream. The session's state is a few MiB at paper scale; the slack
#: absorbs allocator noise on shared hosts.
MAX_RSS_GROWTH_KIB = 64_000


def rss_kib() -> int:
    """This process's resident set size in KiB (Linux ``/proc``)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


class RssProbe:
    """An output sink that drops each line and samples RSS once, after
    the *early*-th."""

    def __init__(self, early: int) -> None:
        self.early = early
        self.lines = 0
        self.early_kib = None

    def write(self, text: str) -> None:
        self.lines += 1
        if self.lines == self.early:
            self.early_kib = rss_kib()

    def flush(self) -> None:
        pass


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmRSS from /proc")
def test_memory_stays_bounded_over_a_long_stream():
    """The session holds O(n_nodes) state plus one micro-batch.

    2,000 micro-epochs of 16 requests on the paper's 1000-node
    overlay: keeping as little as one epoch's result vectors (~35 KiB
    here) per epoch would grow RSS past the bound.
    """
    config = FastSimulationConfig()
    simulation = FastSimulation(config)
    rng = np.random.default_rng(11)
    sizes = rng.integers(2, 7, size=32_000)
    origins = rng.choice(simulation.overlay.address_array(), sizes.size)
    chunks = rng.integers(0, simulation.space.size, size=int(sizes.sum()))
    parts = np.split(chunks, np.cumsum(sizes)[:-1])
    lines = (json.dumps({"originator": int(origin),
                         "chunks": part.tolist()}) + "\n"
             for origin, part in zip(origins, parts))
    probe = RssProbe(early=10)
    run_serve(config, lines, probe, max_batch=16)
    assert probe.lines == 2_001  # a snapshot per micro-epoch + final
    assert rss_kib() - probe.early_kib < MAX_RSS_GROWTH_KIB


class TestServeCli:
    def test_cli_serve_file_input(self, tmp_path, capsys):
        path = tmp_path / "requests.ndjson"
        path.write_text("".join(request_lines(CONFIG, n_files=10)))
        code = main([
            "serve", "--input", str(path), "--nodes", "60",
            "--bits", "10", "--overlay-seed", "5",
            "--max-batch", "4",
        ])
        assert code == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert lines[-1]["type"] == "final"
        assert lines[-1]["files"] == 10

    def test_cli_serves_a_generated_trace(self, tmp_path, capsys):
        path = tmp_path / "t.ndjson"
        assert main(["trace", "generate", str(path), "--files", "6",
                     "--nodes", "60", "--bits", "10",
                     "--overlay-seed", "5"]) == 0
        capsys.readouterr()
        argv = ["serve", "--input", str(path), "--nodes", "60",
                "--bits", "10", "--overlay-seed", "5"]
        assert main(argv) == 0
        streamed = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(streamed)["files"] == 6
        assert main(argv + ["--batch"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == streamed

    @pytest.mark.parametrize("header, message", [
        ({"overlay_seed": 43}, "overlay seed 43"),
        ({"format": "repro-swarm-dynamics/1"}, "this is a dynamics trace"),
        ({"bits": None}, "header field 'bits' must be an integer"),
    ])
    def test_cli_refuses_a_foreign_trace_header(self, tmp_path, capsys,
                                                header, message):
        path = tmp_path / "t.ndjson"
        path.write_text(json.dumps({**json.loads(HEADER), **header})
                        + "\n" + request_lines(CONFIG, n_files=1)[0])
        code = main(["serve", "--input", str(path), "--nodes", "60",
                     "--bits", "10", "--overlay-seed", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error_lines = captured.err.splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith("repro-swarm serve: error: ")
        assert f"request trace {path}" in error_lines[0]
        assert message in error_lines[0]

    def test_cli_scenario_without_epochs_rejected(self, capsys):
        assert main([
            "serve", "--input", "-", "--nodes", "60",
            "--bits", "10", "--scenario", "churn:rate=0.1",
        ]) == 2
        assert "--epochs" in capsys.readouterr().err

    def test_sigterm_flushes_final_line(self, tmp_path):
        """A killed server still emits its final aggregate line."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--nodes", "60", "--bits", "10", "--overlay-seed", "5",
             "--max-batch", "2"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
            cwd=REPO,
        )
        try:
            for line in request_lines(CONFIG, n_files=6):
                process.stdin.write(line)
            process.stdin.flush()
            # Give the server a moment to route, then terminate it
            # mid-stream with the pipe still open.
            time.sleep(2.0)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            process.kill()
        assert process.returncode == 0, stderr
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert lines, "no output before SIGTERM"
        assert lines[-1]["type"] == "final"
        assert lines[-1]["files"] > 0

    def test_cli_refused_line_exits_2_naming_it(self, tmp_path, capsys):
        lines = request_lines(CONFIG, n_files=10)
        lines[6] = lines[6].replace('"chunks": [', '"chunks": [1.5, ')
        path = tmp_path / "requests.ndjson"
        path.write_text("".join(lines))
        code = main([
            "serve", "--input", str(path), "--nodes", "60",
            "--bits", "10", "--overlay-seed", "5", "--max-batch", "4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        error_lines = captured.err.splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith("repro-swarm serve: error: ")
        assert error_lines[0].endswith("(line 7)")
        # The batch before the bad one was served; no final line.
        kinds = [json.loads(line)["type"]
                 for line in captured.out.splitlines()]
        assert kinds == ["snapshot"]
