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
# Eighteen transcripts moved when the fields no handler read left the bodies:
# `failed` from aggregate and result, `verified` from round_done and `reason`
# from abort. Only those envelopes' payload digests moved (with them masked,
# each transcript is the one before, byte for byte); the two setup quorum
# failures, which send none of them, kept theirs, and every round state stayed.
GOLDEN = {
    'group/flagship': ('dc4154bf58813c0b8a1ac9d9c42a31085098a57ccde0b7174187205d8ddc0793', 'c8b5758e995d75fb495a8c11b63e5a2df443774c20b86206aa6e4d01aa4855af'),
    'group/flagship_tampered': ('113c93051998d7c83509624991a19725ecf650d0c2eed60f5db9b20b3cd6d107', '4cfdbf25804c0732fd7a67f5ac97ef631deb2618d8b303f90dc79a9dd106f63d'),
    'group/flip_element': ('786c285f6733fe5a88d8dd6a8f477454289851a6e000d03f38b7c0de52ccba97', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'group/honest': ('c1bc31d53be5444bc732900a24ca1e10b23dae7537c416e4271e8b0ff22e1741', '121009ffe31d957d5c1263571af5ca520aaeddfee0384fa44c68fc82221f2f7f'),
    'group/inject_offset': ('45e1cd276b20a2d0d8980a8adaa29b43a6e7626685f7846d8ebf9411be52ff3a', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'group/multi_round_loss': ('5ad4862953baf905b97b9b21be9d58d0b9f6fbf92cb9320fbbfc5a3ca1961a80', '33abd6a62eb89abef505f2498f3e891cfaafaa7730cdc6fd161014a3402fb877'),
    'group/reveal_timeout': ('5d96f18f9de95a9da0f213622dd25d82fdcb940c82afda155a86bad9aeb43f11', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'group/setup_quorum_failure': ('0d9b3ca4f87adab37913026aa4841a98cffeb61baba71965204eee80f493afc4', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'group/staleness_timeout': ('45fe3f7500c7e642e5cd244e1a4411002cef42b87dfeeac85d56fb6670bc3ff1', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'group/substitute_all': ('00f52e7cc2c8e4cbb82dcd548b97491521560c0df5acd11200e47b393d53f542', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'scalar/flagship': ('300e8fb403623c70f4d6737a65f9b8bf4f6794f4274920526ea6b75425fabea4', 'ddd2ce4b582c12dcc1a44d8dda1fad3b809eb09b884c9106f97ef2c7e075e941'),
    'scalar/flagship_tampered': ('7801ba76901cd6e99e0e93fc4f6f752ee7bb75106b5582a2a254c6e6f246939b', '4cfdbf25804c0732fd7a67f5ac97ef631deb2618d8b303f90dc79a9dd106f63d'),
    'scalar/flip_element': ('14d2a8289d723328396e3a490b32137a839425bd88fdd80b44212cfae288ff29', '08e54ba728262229ba2c79e108c1124a0ee27259b94a290a667f83784d3648f9'),
    'scalar/honest': ('2c656224c801e8896303dd78cedbdd7d4bda955daab4985e026081df757a98ed', 'dd912173bde53abfe3a7616a1f7bbae2143bbf3b071d639d669fcfe1a97eeed2'),
    'scalar/inject_offset': ('bc6866bdd35b393a888f89bea764bdc7fe2cc231f9aeb39004a55c2446001a7f', 'f04c438232077a27853563e147c186876006b0c2c48e27db24897b82f1e1f0c8'),
    'scalar/multi_round_loss': ('3b21cc86f6312cada17bf265e08a536e4f764c8f43a7bf2614a1cdb7a798bc17', 'c6676a11622388f2c77ef43d0c759164bffce4dcd96409093ff93e5f95d07033'),
    'scalar/reveal_timeout': ('0b6258b4c9c0703b05c7ea6b992c5cbad8ba0cee035eebabe126fa3db45241f3', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'scalar/setup_quorum_failure': ('90da83209d0a56007e30fabda50be597a4a370653257bb0bef767f278344b406', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'scalar/staleness_timeout': ('aecd3690b64e50d33581a5df9e4aa22e2dee3a5cb3962db9eff0c94b60935b82', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'scalar/substitute_all': ('5408b1158f7d4806669f24c6a487485dc19f49e711f5dccb38a87f1b31036dce', '71e1f93b6d06c4be52cbbe3ad76aa4eb2b524d336fdcb0dc9d7619d0fc63db29'),
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
