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
# Fourteen transcripts moved when share responses came to carry a member's own
# keys alone and the leader began to fetch held rows with rows_req only for
# silent members and share-losers: the sealed share_resp bodies shrank, so
# their digests moved, and the flagship and multi-round-loss scenarios gained
# the follow-up sends, so the network RNG draws more delays. The six that never
# reach a share response kept their transcripts; every round state stayed the same.
GOLDEN = {
    'group/flagship': ('4eeac68bb987b526759ea78bf848193b04bbfc198b7139c7660da434b7fd1ded', 'c8b5758e995d75fb495a8c11b63e5a2df443774c20b86206aa6e4d01aa4855af'),
    'group/flagship_tampered': ('deea5bacb5b78a9f70479b80f625f6b677f8367dba9493617217112b3c8edbe1', '4cfdbf25804c0732fd7a67f5ac97ef631deb2618d8b303f90dc79a9dd106f63d'),
    'group/flip_element': ('c34696970685c5eb7657ad9dc5f3891eb92b077c3823b0d052b05743b24a1fdf', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'group/honest': ('28d91437435f194c9c9dcc2a839e1524d0300e92c437293598c9b60021276c61', '121009ffe31d957d5c1263571af5ca520aaeddfee0384fa44c68fc82221f2f7f'),
    'group/inject_offset': ('5a1730b2cde77f4b4c15c47c394da735e4c85b254ed09e636b9405bf931ec37d', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'group/multi_round_loss': ('1f1de34ed24fb7af438bdae530f6feba2c4caf775d4432363379653792c4b3e7', '33abd6a62eb89abef505f2498f3e891cfaafaa7730cdc6fd161014a3402fb877'),
    'group/reveal_timeout': ('eaed417c91a5f74b2dabc460f2dd4de13d4372ab4e7764a62748665880947e72', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'group/setup_quorum_failure': ('0d9b3ca4f87adab37913026aa4841a98cffeb61baba71965204eee80f493afc4', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'group/staleness_timeout': ('0b0d002bc3e2170c79373ee56d1f67703e2bd43f92362862394a091fd5a0d387', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'group/substitute_all': ('3484dab4a3a45a8218fbc198f304e1de0600232a4a8947e1b12886f560485fe4', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'scalar/flagship': ('d5432daa32c5d76e104303d371aba00df48edad397c97dfb7aee327b9e48c8b2', 'ddd2ce4b582c12dcc1a44d8dda1fad3b809eb09b884c9106f97ef2c7e075e941'),
    'scalar/flagship_tampered': ('9867fe4a625b08112cadd8559e394bacbf71b698cfb9896c7cc77b8556036ca7', '4cfdbf25804c0732fd7a67f5ac97ef631deb2618d8b303f90dc79a9dd106f63d'),
    'scalar/flip_element': ('706deb3c8e96ae357c14265c518661d99b2ab12f05e03f654d893f792b739e35', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'scalar/honest': ('f624eafb51ef6b55d75f84f62e14e7f861b75985c0457aedb8b985167d883ada', 'dd912173bde53abfe3a7616a1f7bbae2143bbf3b071d639d669fcfe1a97eeed2'),
    'scalar/inject_offset': ('595411cb05d45494e9591b3d7449d3c92bd222fe4de7217426466f443d61ae84', 'f04c438232077a27853563e147c186876006b0c2c48e27db24897b82f1e1f0c8'),
    'scalar/multi_round_loss': ('3cbf098d297343367f779b9859cb5ec6d50d506925a8db619182eb7200d15ecd', 'c6676a11622388f2c77ef43d0c759164bffce4dcd96409093ff93e5f95d07033'),
    'scalar/reveal_timeout': ('bc545eb642d312f46f894d8f58deee6801dbc5c4ff180121e88cf8d1ac42e2d1', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'scalar/setup_quorum_failure': ('90da83209d0a56007e30fabda50be597a4a370653257bb0bef767f278344b406', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'scalar/staleness_timeout': ('7ce016c1abc527b3dc491ae5d79eed9c2ed919fcc4ca902e7c3831433e717001', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'scalar/substitute_all': ('8cf0bdb38255c9ea8e5b53d5b08b8d10a03976ba92b27ec59a3113f71dcc060e', '71e1f93b6d06c4be52cbbe3ad76aa4eb2b524d336fdcb0dc9d7619d0fc63db29'),
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
