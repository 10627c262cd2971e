"""Golden digests: the NDJSON transcript and round states of a fixed scenario grid.

Every scenario is a flat document run through `run_rounds` with its own seed;
a digest moving means the wire bodies, the RNG draw order or a verdict moved.
A refactor keeps these unchanged; a change that means to move one says why.

    PYTHONPATH=src python tests/test_golden.py   # print the current digests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from secel.protocol import run_rounds

FLAGSHIP = {
    "seed": 11,
    "n": 7,
    "t": 3,
    "l": 5,
    "s_min": 3,
    "share_loss": [4, 5, 6, 7],
    "faults": [
        {"id": 3, "phase": "masking", "action": "drop_outbound"},
        {"id": 6, "phase": "masking", "action": "disconnect"},
        {"id": 7, "phase": "masking", "action": "disconnect"},
    ],
}

BASE_SCENARIOS = {
    "honest": {"seed": 1, "n": 4, "t": 2, "l": 3},
    "flip_element": {"seed": 2, "n": 4, "t": 2, "l": 3, "tamper": "flip_element"},
    "substitute_all": {"seed": 3, "n": 4, "t": 2, "l": 3, "tamper": "substitute_all"},
    "inject_offset": {"seed": 4, "n": 4, "t": 2, "l": 3, "tamper": "inject_offset"},
    "flagship": FLAGSHIP,
    "flagship_tampered": {**FLAGSHIP, "tamper": "inject_offset"},
    "multi_round_loss": {
        "seed": 5,
        "n": 5,
        "t": 2,
        "l": 3,
        "s_min": 3,
        "rounds": 3,
        "share_loss": [2],
        "faults": [
            {"id": 4, "phase": "setup", "action": "reconnect"},
            {"id": 4, "phase": "masking", "action": "disconnect"},
        ],
    },
    "reveal_timeout": {
        "seed": 3,
        "n": 5,
        "t": 2,
        "l": 3,
        "s_min": 3,
        "share_loss": [4, 5],
        "faults": [
            {"id": i, "phase": "verification", "action": "disconnect"}
            for i in (1, 2, 3)
        ],
    },
    "staleness_timeout": {
        "seed": 3,
        "n": 4,
        "t": 2,
        "l": 3,
        "s_min": 4,
        "faults": [
            {"id": i, "phase": "masking", "action": "disconnect"} for i in (1, 2)
        ],
    },
    "setup_quorum_failure": {"seed": 3, "n": 4, "t": 3, "l": 3, "share_loss": [1, 2]},
}

SCENARIOS = {
    f"{variant}/{name}": {**doc, "variant": variant}
    for variant in ("scalar", "group")
    for name, doc in BASE_SCENARIOS.items()
}

# (transcript sha256, round states sha256) per scenario. The four group
# tamper transcripts moved once, when the group reject note's detail text
# became the scalar one ("aggregate failed the tag check"); nothing else in
# them changed. group/multi_round_loss moved when reuse rounds began to derive
# their key instead of broadcasting a refreshed summand: its transcript lost
# those sends, and with no summand drawn from each node's RNG before its commit
# value, rounds 1 and 2 elect other leaders; nothing else in its states changed.
# All ten group transcripts moved when a dealer's two wrapped rows to a peer
# began to ride one gsetup1 {v, a, s} envelope: the gsetup2 sends are gone, so
# the network RNG draws fewer delays; every round state stayed the same.
GOLDEN = {
    'group/flagship': ('2c6b89ca6bbfd689fbb9c3ec7afbb3afbee862351122d436463b7d551850b63e', 'c8b5758e995d75fb495a8c11b63e5a2df443774c20b86206aa6e4d01aa4855af'),
    'group/flagship_tampered': ('47b0147d3cfb362b4d0cc80d61c9a74f374f5bcad47877d0cc1e95fc90bd29a6', '4cfdbf25804c0732fd7a67f5ac97ef631deb2618d8b303f90dc79a9dd106f63d'),
    'group/flip_element': ('a303f7fa91837b8f6cc787738df5e4c90e71a0c0e21db8fe340cde8a081b85b1', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'group/honest': ('44e6b09739d6ff1e675bd7973c003744c96bcca41e14f5a038c33f91551a9276', '121009ffe31d957d5c1263571af5ca520aaeddfee0384fa44c68fc82221f2f7f'),
    'group/inject_offset': ('348cdce9df5ca0aa3426b9db4fad75b0868ef738fc200f0e0537d383e635fd7c', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'group/multi_round_loss': ('43d9877ef8460cf47456e54ea269691766a239b6f51ed544cfffb70cd705de3a', '33abd6a62eb89abef505f2498f3e891cfaafaa7730cdc6fd161014a3402fb877'),
    'group/reveal_timeout': ('eaed417c91a5f74b2dabc460f2dd4de13d4372ab4e7764a62748665880947e72', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'group/setup_quorum_failure': ('0d9b3ca4f87adab37913026aa4841a98cffeb61baba71965204eee80f493afc4', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'group/staleness_timeout': ('0b0d002bc3e2170c79373ee56d1f67703e2bd43f92362862394a091fd5a0d387', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'group/substitute_all': ('6c86f24660232b853b3455090fe7cc154557fcf48344302bca9ba0defbec7668', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'scalar/flagship': ('3df5003f55917b29885cbc0f8a5d0f83e3695e2142b602ccd088afcb4bee0d2b', 'ddd2ce4b582c12dcc1a44d8dda1fad3b809eb09b884c9106f97ef2c7e075e941'),
    'scalar/flagship_tampered': ('c6dfe654065576cb22f582c807ab7d2b1fe22f718d0669fb0524f627fb18a081', '4cfdbf25804c0732fd7a67f5ac97ef631deb2618d8b303f90dc79a9dd106f63d'),
    'scalar/flip_element': ('733920ac59c3ad9b26b52e106d6fa05b5287f23002e86b6ef66201e9be511131', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'scalar/honest': ('c9c2f06ce5c72b7ad27442b2ac66402026a12ae11c5061ce1eee3def6a1517fa', 'dd912173bde53abfe3a7616a1f7bbae2143bbf3b071d639d669fcfe1a97eeed2'),
    'scalar/inject_offset': ('f5c4a1a6df84abb77a637e62ca2703a73f56b64d8b296ee1e4c9b5cfa4edc0a0', 'f04c438232077a27853563e147c186876006b0c2c48e27db24897b82f1e1f0c8'),
    'scalar/multi_round_loss': ('5630b0dd739ae98bf5d38874b3068be7c071d5474c33e25821a9d5f6ebbf0eff', 'c6676a11622388f2c77ef43d0c759164bffce4dcd96409093ff93e5f95d07033'),
    'scalar/reveal_timeout': ('bc545eb642d312f46f894d8f58deee6801dbc5c4ff180121e88cf8d1ac42e2d1', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'scalar/setup_quorum_failure': ('90da83209d0a56007e30fabda50be597a4a370653257bb0bef767f278344b406', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'scalar/staleness_timeout': ('7ce016c1abc527b3dc491ae5d79eed9c2ed919fcc4ca902e7c3831433e717001', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'scalar/substitute_all': ('b084bf7e60528836df85784407f84e7e7ba8568751f07d6942385779e29dfecb', '71e1f93b6d06c4be52cbbe3ad76aa4eb2b524d336fdcb0dc9d7619d0fc63db29'),
}


def digests(doc: dict) -> tuple[str, str]:
    result = run_rounds(doc)
    transcript = hashlib.sha256(result.transcript.to_ndjson().encode()).hexdigest()
    states = json.dumps(
        [dataclasses.asdict(s) for s in result.rounds], sort_keys=True
    ).encode()
    return transcript, hashlib.sha256(states).hexdigest()


def test_grid_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name):
    assert digests(SCENARIOS[name]) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        print(f"    {name!r}: {digests(SCENARIOS[name])!r},")
