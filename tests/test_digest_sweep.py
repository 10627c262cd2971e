"""A wide regression oracle: one pin over 500 seeded random run documents.

The golden grid (test_golden.py) stops at n <= 7 and l <= 5 and holds no
round where every party attends while a share-loser is in M. This sweep draws
documents the grid never reaches: n 3-8, both variants, share loss, up to three
faults at any phase and offset, a tampering aggregator in one document of five,
and 1-3 rounds. Every document's (transcript, round states) digest pair feeds
one sha256, so a refactor that keeps the wire bodies, the RNG draw order and
every verdict keeps the pin.

    PYTHONPATH=src python tests/test_digest_sweep.py   # each document's digests

When the pin moves, diff that output against the same command's output on the
parent commit: the first differing line names the document that moved. It last
moved when the commit/reveal election gave way to a candidate order every party
derives: the election's sends and RNG draws are gone, leader ids changed, and a
leader's steps are timed from its own request. Every round that ended done still
ends done with the same M and field sum; in documents 303, 423 and 476 that takes
the next candidate resuming the order in decryption, after party 1, round 0's
first candidate, disconnects once it has led.
"""

from __future__ import annotations

import hashlib
import json
import random

from secel.protocol import TAMPER_POLICIES
from secel.simnet import DEFAULT_BUDGETS, FAULT_ACTIONS, PHASES
from test_golden import digests

DOCUMENTS = 500
PIN = "3a79c4da3f18186e72d87c9870dc0d1dcbdf4a98829ed80f8ea4793ceb7c65aa"


def sweep_document(index: int) -> dict:
    """The index-th document, drawn from its own seeded generator."""
    rng = random.Random(f"secel/digest-sweep/{index}")
    n = rng.randint(3, 8)
    ids = range(1, n + 1)
    doc = {
        "seed": index,
        "n": n,
        "t": rng.randint(2, n),
        "l": rng.randint(1, 6),
        "rounds": rng.randint(1, 3),
        "variant": rng.choice(("scalar", "group")),
        "tamper": (
            rng.choice([p for p in TAMPER_POLICIES if p != "honest"])
            if rng.random() < 0.2
            else "honest"
        ),
        "share_loss": [i for i in ids if rng.random() < 0.2],
        "s_min": rng.choice([None, *ids]),
        "faults": [],
    }
    for _ in range(rng.randint(0, 3)):
        phase = rng.choice(PHASES)
        doc["faults"].append({
            "id": rng.choice(ids),
            "phase": phase,
            "action": rng.choice(FAULT_ACTIONS),
            "offset": rng.randrange(DEFAULT_BUDGETS[phase]),
        })
    return doc


def sweep_digests():
    """(document, (transcript sha256, round states sha256)) for every document."""
    for index in range(DOCUMENTS):
        doc = sweep_document(index)
        yield doc, digests(doc)


def test_sweep_digests_are_pinned():
    h = hashlib.sha256()
    for _, pair in sweep_digests():
        h.update(" ".join(pair).encode() + b"\n")
    assert h.hexdigest() == PIN


if __name__ == "__main__":
    for doc, (transcript, states) in sweep_digests():
        print(transcript, states, json.dumps(doc, sort_keys=True))
