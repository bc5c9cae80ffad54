"""Strict decoding of serialized overlays (``Overlay.from_dict``).

Every malformed field is refused with an :class:`OverlayError` naming
its key — never truncated, coerced, or raised as a bare ``KeyError`` —
and ``repro-swarm overlay inspect`` turns the refusal into one error
line with exit status 2. ``repro-swarm overlay build`` refuses a bad
configuration the same way.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.errors import OverlayError
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig


@pytest.fixture(scope="module")
def overlay() -> Overlay:
    return Overlay.build(OverlayConfig(
        n_nodes=30, bits=8, seed=3,
        limits=BucketLimits(default=2, overrides={0: 5}),
    ))


def _owner(data: dict) -> str:
    """The first table key whose node has at least one peer."""
    return next(key for key, peers in data["tables"].items() if peers)


def _float_peer(data):
    owner = _owner(data)
    data["tables"][owner][0] = data["tables"][owner][0] + 0.7


def _bool_peer(data):
    data["tables"][_owner(data)][0] = True


def _string_peer(data):
    owner = _owner(data)
    data["tables"][owner][0] = str(data["tables"][owner][0])


def _unknown_peer(data):
    nodes = set(data["addresses"])
    stranger = next(a for a in range(256) if a not in nodes)
    data["tables"][_owner(data)][0] = stranger


def _self_peer(data):
    owner = _owner(data)
    data["tables"][owner][0] = int(owner)


def _repeated_peer(data):
    owner = _owner(data)
    data["tables"][owner].append(data["tables"][owner][0])


def _string_address(data):
    data["addresses"][3] = str(data["addresses"][3])


def _float_address(data):
    data["addresses"][3] = float(data["addresses"][3])


def _out_of_space_address(data):
    data["addresses"][3] = 1 << 8


def _repeated_address(data):
    data["addresses"][3] = data["addresses"][2]


def _short_addresses(data):
    removed = data["addresses"].pop()
    del data["tables"][str(removed)]


def _stranger_table(data):
    nodes = set(data["addresses"])
    stranger = next(a for a in range(256) if a not in nodes)
    data["tables"][str(stranger)] = []


def _padded_table_key(data):
    owner = _owner(data)
    data["tables"]["0" + owner] = data["tables"].pop(owner)


def _missing_table(data):
    del data["tables"][_owner(data)]


def _peers_not_list(data):
    data["tables"][_owner(data)] = 7


def _missing(key):
    def mutate(data):
        del data[key]
    return mutate


def _missing_config(key):
    def mutate(data):
        del data["config"][key]
    return mutate


def _float_config(key):
    def mutate(data):
        data["config"][key] = data["config"][key] + 0.5
    return mutate


def _float_override(data):
    data["config"]["limits"]["overrides"]["0"] = 5.5


def _bad_override_index(data):
    data["config"]["limits"]["overrides"]["zero"] = 5


def _missing_limits_default(data):
    del data["config"]["limits"]["default"]


def _string_symmetric(data):
    data["config"]["symmetric_neighborhood"] = "yes"


def _invalid_config(data):
    data["config"]["neighborhood_min"] = 0


MALFORMED = {
    "float peer": (_float_peer, r"tables\['\d+'\]\[0\]"),
    "bool peer": (_bool_peer, r"tables\['\d+'\]\[0\]"),
    "string peer": (_string_peer, r"tables\['\d+'\]\[0\]"),
    "peer not a node": (_unknown_peer, "not another node"),
    "peer is the owner": (_self_peer, "not another node"),
    "repeated peer": (_repeated_peer, "repeats peer"),
    "string address": (_string_address, r"addresses\[3\]"),
    "float address": (_float_address, r"addresses\[3\]"),
    "address outside the space": (_out_of_space_address,
                                  r"addresses\[3\].*8-bit"),
    "repeated address": (_repeated_address, r"addresses\[3\]"),
    "fewer addresses than n_nodes": (_short_addresses, "n_nodes"),
    "table of a stranger": (_stranger_table, "not a node"),
    "zero-padded table key": (_padded_table_key, "not a node"),
    "missing table": (_missing_table, "no routing table"),
    "peers not a list": (_peers_not_list, "list of int addresses"),
    "missing tables": (_missing("tables"), "'tables'"),
    "missing addresses": (_missing("addresses"), "'addresses'"),
    "missing config": (_missing("config"), "'config'"),
    "missing config.bits": (_missing_config("bits"), "'config.bits'"),
    "missing config.limits": (_missing_config("limits"),
                              "'config.limits'"),
    "missing limits default": (_missing_limits_default,
                               "'config.limits.default'"),
    "float n_nodes": (_float_config("n_nodes"), "'config.n_nodes'"),
    "float seed": (_float_config("seed"), "'config.seed'"),
    "float override": (_float_override, "config.limits.overrides"),
    "non-numeric override index": (_bad_override_index,
                                   "config.limits.overrides"),
    "string symmetric flag": (_string_symmetric,
                              "'config.symmetric_neighborhood'"),
    "invalid config": (_invalid_config, "'config' is invalid"),
}


@pytest.mark.parametrize("mutate, match", MALFORMED.values(),
                         ids=list(MALFORMED))
def test_malformed_overlay_is_refused(overlay, mutate, match):
    data = copy.deepcopy(overlay.to_dict())
    mutate(data)
    with pytest.raises(OverlayError, match=match):
        Overlay.from_dict(data)


@pytest.mark.parametrize("data", [None, [], "overlay", 3])
def test_non_object_is_refused(data):
    with pytest.raises(OverlayError, match="must be an object"):
        Overlay.from_dict(data)


def test_round_trip_keeps_bucket_order_and_fingerprint(overlay):
    clone = Overlay.from_dict(json.loads(json.dumps(overlay.to_dict())))
    assert clone.to_dict() == overlay.to_dict()
    assert clone.config == overlay.config
    for address in overlay.addresses:
        for ours, theirs in zip(clone.table(address).buckets,
                                overlay.table(address).buckets):
            assert ours.peers == theirs.peers
    assert clone.fingerprint() == overlay.fingerprint()


class TestInspectCli:
    @pytest.mark.parametrize("mutate, match", [
        MALFORMED["float peer"],
        MALFORMED["string address"],
        MALFORMED["peer not a node"],
        MALFORMED["missing tables"],
    ], ids=["float peer", "string address", "peer not a node",
            "missing tables"])
    def test_malformed_file_exits_2(self, overlay, tmp_path, capsys,
                                    mutate, match):
        data = copy.deepcopy(overlay.to_dict())
        mutate(data)
        path = tmp_path / "overlay.json"
        path.write_text(json.dumps(data))
        assert main(["overlay", "inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro-swarm overlay inspect: error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("content", ["{not json", ""])
    def test_non_json_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "overlay.json"
        path.write_text(content)
        assert main(["overlay", "inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-swarm overlay inspect: error: ")
        assert "overlay.json" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["overlay", "inspect",
                     str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith(
            "repro-swarm overlay inspect: error: ")

    def test_unknown_node_exits_2(self, overlay, tmp_path, capsys):
        path = tmp_path / "overlay.json"
        overlay.save(path)
        stranger = next(a for a in range(256) if a not in overlay)
        assert main(["overlay", "inspect", str(path),
                     "--node", str(stranger)]) == 2
        assert f"no node at address {stranger}" in capsys.readouterr().err


class TestBuildCli:
    @pytest.mark.parametrize("flags, match", [
        (["--bits", "63"], "at most 62 bits"),
        (["--bits", "64"], "at most 62 bits"),
        (["--bits", "0"], "bits must be in"),
        (["--nodes", "1"], "at least 2 nodes"),
        (["--bucket-size", "0"], "bucket size must be >= 1"),
        (["--seed", "-1"], "seed must be non-negative"),
    ], ids=["bits 63", "bits 64", "bits 0", "nodes 1", "bucket size 0",
            "seed -1"])
    def test_bad_config_exits_2(self, tmp_path, capsys, flags, match):
        path = tmp_path / "overlay.json"
        assert main(["overlay", "build", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("repro-swarm overlay build: error: ")
        assert match in lines[0]
        assert not path.exists()
