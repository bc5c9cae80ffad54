"""The CLI's one config surface and its one input-open rule.

Every overlay/workload option is a :class:`FastSimulationConfig`
field whose default is the dataclass's own, except the per-command
defaults :data:`repro.cli.COMMAND_DEFAULTS` lists. Every file a command
reads or writes is opened through :mod:`repro._files`, so a missing or
non-UTF-8 input, or an unwritable output path, is refused in one line
with exit status 2.
"""

from __future__ import annotations

import pytest

from repro.backends.config import FastSimulationConfig
from repro.cli import COMMAND_DEFAULTS, build_parser, config_from_args, main

#: Each subcommand that takes an overlay/workload option, with the
#: arguments it requires.
MINIMAL = [
    ("sweep", []),
    ("sweep-serve", []),
    ("serve", []),
    ("trace generate", ["t.ndjson"]),
    ("trace replay", ["t.ndjson"]),
    ("trace record-dynamics", ["d.json", "--scenario", "churn:rate=0.1"]),
    ("trace replay-dynamics", ["d.json"]),
    ("trace import-requests", ["requests.log", "t.ndjson"]),
    ("trace import-dynamics", ["members.log", "d.json", "--epochs", "2"]),
    ("overlay build", ["overlay.json"]),
]

#: Options a minimal command line above sets itself.
GIVEN = {"trace record-dynamics": {"scenario": "churn:rate=0.1"}}

CONFIG_FIELDS = set(FastSimulationConfig.__dataclass_fields__)


@pytest.mark.parametrize("command, extra", MINIMAL,
                         ids=[command for command, _ in MINIMAL])
def test_config_defaults_are_the_dataclass_defaults(command, extra):
    args = build_parser().parse_args(command.split() + extra)
    own = {**COMMAND_DEFAULTS.get(command, {}), **GIVEN.get(command, {})}
    # An option left off the command line is absent, not a copied
    # literal, unless the command lists its own default.
    assert {field for field in vars(args) if field in CONFIG_FIELDS} \
        == set(own)
    assert config_from_args(args) == FastSimulationConfig(**own)


def test_fixed_fields_override_the_command_line():
    args = build_parser().parse_args(["trace", "replay", "t.ndjson",
                                      "--bucket-size", "8"])
    config = config_from_args(args, n_nodes=90, bits=12)
    assert (config.n_nodes, config.bits, config.bucket_size) == (90, 12, 8)


def test_respelled_options_set_their_fields():
    generate = build_parser().parse_args([
        "trace", "generate", "t.ndjson", "--seed", "3", "--share", "0.2",
        "--overlay-seed", "43"])
    config = config_from_args(generate)
    assert (config.workload_seed, config.originator_share,
            config.overlay_seed, config.n_files) == (3, 0.2, 43, 100)
    build = build_parser().parse_args(["overlay", "build", "o.json",
                                       "--seed", "5"])
    assert config_from_args(build).overlay_seed == 5
    serve = build_parser().parse_args(["serve", "--max-batch", "64"])
    assert config_from_args(serve).batch_files == 64


def test_help_quotes_the_dataclass_defaults(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["overlay", "build", "--help"])
    out = capsys.readouterr().out
    assert "overlay nodes (default: 1000)" in out
    assert "overlay seed (default: 42)" in out


SMALL = ["--nodes", "60", "--bits", "10"]


def _bad_trace(tmp_path, capsys):
    """A generated 5-event trace with a non-UTF-8 line 7 appended."""
    path = tmp_path / "t.ndjson"
    assert main(["trace", "generate", str(path), "--files", "5",
                 *SMALL]) == 0
    capsys.readouterr()
    with path.open("ab") as handle:
        handle.write(b'{"originator": \xff\xfe}\n')
    return path, 7


def _bad_log(tmp_path, capsys):
    """A log whose first line is not UTF-8."""
    path = tmp_path / "bad.log"
    path.write_bytes(b'{"client": "\xff\xfe"}\n')
    return path, 1


def _missing(tmp_path, capsys):
    return tmp_path / "missing.log", None


@pytest.mark.parametrize("command, make, argv", [
    ("serve", _missing, lambda path: ["--input", path, *SMALL]),
    ("trace import-requests", _missing, lambda path: [path, "out.ndjson"]),
    ("overlay inspect", _missing, lambda path: [path]),
    ("trace replay", _bad_trace, lambda path: [path]),
    ("serve", _bad_trace, lambda path: ["--input", path, *SMALL]),
    ("trace import-requests", _bad_log, lambda path: [path, "out.ndjson"]),
    ("trace import-dynamics", _bad_log,
     lambda path: [path, "out.json", "--epochs", "2"]),
], ids=["serve-missing", "import-requests-missing", "overlay-missing",
        "replay-non-utf8", "serve-non-utf8", "import-requests-non-utf8",
        "import-dynamics-non-utf8"])
def test_unreadable_input_refused_in_one_line(tmp_path, capsys,
                                              monkeypatch, command, make,
                                              argv):
    monkeypatch.chdir(tmp_path)
    path, line = make(tmp_path, capsys)
    assert main(command.split() + argv(str(path))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"repro-swarm {command}: error: cannot read ")
    assert str(path) in err
    if line is not None:
        assert f"line {line} is not UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["trace", "generate", "{}/t.ndjson", "--files", "5", *SMALL],
    ["overlay", "build", "{}/o.json", "--nodes", "20", "--bits", "8"],
    ["run", "table1", "--files", "20", "--nodes", "40", "--out", "{}/r"],
], ids=["trace-generate", "overlay-build", "run-out"])
def test_unwritable_output_refused_in_one_line(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    argv = [word.format(missing) for word in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "error: cannot write " in err
    assert str(missing) in err
