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
# Fourteen transcripts moved when the commit/reveal election gave way to a
# candidate order every party derives, the ids rotated by the round number:
# the commit and reveal sends are gone, so the network RNG draws fewer delays
# and no node draws a commit value or salt from its RNG, each round's leader
# is now its first candidate that holds the aggregate intact, and a leader's
# `lead` and row read are timed from its own request, so its rows_req,
# reject and recover notes fall at new ticks. The six that never reach an
# election kept their transcripts. Thirteen round-state
# digests moved with the leader ids alone; every round kept its status and
# reason.
GOLDEN = {
    'group/flagship': ('f02fb3e1a1eed3a47e44e4b37fb034740e125d08f1b39efce233373f839e65bd', '22395f2c5034b5d5e126219ad69182657857df451f4fb98b085db01646ee55dd'),
    'group/flagship_tampered': ('f8cbbfd41cea782638d7b3c9adb17ed5549f19335f991c7af3ddac54ade9a6c1', 'f5a5641a59dd338450cf6fa24a023cb8acd621ccb11d4a58124ce526ebef48c2'),
    'group/flip_element': ('089213a446180ff44faf87a0749959e9c79c36e5003600798c496b88b9903fea', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'group/honest': ('9ac596bb2590e5a5faec142ccb069c9704b0c751b224dcea9ef3fbc09cdb8187', 'd90026c2b59d98cb665d5eadc6044a615cd518b592f2781a2d1a947362b6bd66'),
    'group/inject_offset': ('2a799a5f33b31bcb4e887d92a3cf505cfad54b070c4e2c9ef7c3c6021d3ecd09', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'group/multi_round_loss': ('391327ffab67b4702b0d87fa8c5321475e37c5a23771a257e312ed28bc0647a6', '8535cf121decbc058d861ae1a4a9c61a03c21be65b6e7fc7b0f7d4fdc783333a'),
    'group/reveal_timeout': ('5d96f18f9de95a9da0f213622dd25d82fdcb940c82afda155a86bad9aeb43f11', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'group/setup_quorum_failure': ('0d9b3ca4f87adab37913026aa4841a98cffeb61baba71965204eee80f493afc4', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'group/staleness_timeout': ('45fe3f7500c7e642e5cd244e1a4411002cef42b87dfeeac85d56fb6670bc3ff1', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'group/substitute_all': ('cc31662c3bad2caa9f136dc8593377793d26c9446f6dbea0ea04e2cfc69ea3db', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'scalar/flagship': ('c0f5b20943b65d6b162a22343b326bb8ef19ff539c6848f021eeeccaa294e9b2', 'd59eaa1836ab3cd26e6f559eaa771ba9dfd869e25da7c9c607230d2b05d120de'),
    'scalar/flagship_tampered': ('86e18ef89d4d8eef4f4ee24fed982ddbd08505df989e3ee3bee76f04ca2a7036', 'f5a5641a59dd338450cf6fa24a023cb8acd621ccb11d4a58124ce526ebef48c2'),
    'scalar/flip_element': ('20feaa5b16cbfb02e0f6600c4c9e648ac7ff1560804e3f22ea6c9d3697368dd2', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'scalar/honest': ('4e6fde74bf47e06ee075acb46526db1e7560e53d00ebebf8542bbb143a5f2058', 'bcdb23519586c2dd459598df6c34737c3b96bffb5d39eeed05cafc3023fa8b9b'),
    'scalar/inject_offset': ('b444927ee85597bdf4f3d80f409d1a00bc885a2949cd76437e07dd6935ea8d38', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
    'scalar/multi_round_loss': ('c41d517153400c439d65e2fbfbfec478876e2961375b613accb746e2bfe9007d', '26ce7663a7a05c170dea8ac0d3832073903b6f913905c7f06869134292ab868e'),
    'scalar/reveal_timeout': ('0b6258b4c9c0703b05c7ea6b992c5cbad8ba0cee035eebabe126fa3db45241f3', '760efd9f04add35fc2747cdd76ac47e182445f62cbc6312afdb4dc3a9e57c664'),
    'scalar/setup_quorum_failure': ('90da83209d0a56007e30fabda50be597a4a370653257bb0bef767f278344b406', '89cddcc3d1cb10d47d49820d8a026df2889301e85362b796371f5ed5c0dc06ce'),
    'scalar/staleness_timeout': ('aecd3690b64e50d33581a5df9e4aa22e2dee3a5cb3962db9eff0c94b60935b82', '33420a85a4dfa4d3d106f7f2e6c869cb5e89ee9fc0dbb46538444857ae7b12e6'),
    'scalar/substitute_all': ('b3989fbc07083cc1711c073dc67f2459464ff80aa516f9ec22463607cc7079e2', '0abb2d8ea7ba07b75aa2bc032eaa6ac092b213028ffee24dd21847d6fc56f4c7'),
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
