"""The safety property over drawn networks, and checks that the drawing and
the oracle see what they claim to."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdraw import PRIMES, delays_from, documents, run_safely, safety_problems
from secel.protocol import run_rounds

# a 1279-bit prime: the pairwise channel keys once packed the shared value in
# 64 bytes, so run_rounds raised OverflowError
WIDE_PRIME = {
    "seed": 0, "n": 5, "t": 3, "l": 2, "s_min": 5, "rounds": 1, "variant": "scalar",
    "share_loss": [2], "faults": [], "prime": PRIMES[-1],
}


@settings(max_examples=120, deadline=None)
@given(doc=documents(), delays=st.randoms())
@example(doc=WIDE_PRIME, delays=None)
def test_every_drawn_network_ends_done_with_the_exact_sum_or_named(doc, delays):
    run_safely(doc, delays)


class Fixed:
    """A delay source whose every draw is `bits`."""

    def __init__(self, bits: int) -> None:
        self.bits = bits

    def getrandbits(self, n: int) -> int:
        return self.bits


def test_drawn_delays_reach_every_send():
    doc = {"seed": 0, "n": 4, "rounds": 2, "variant": "group"}
    for bits, delay in ((0, 1), (4, 5)):  # delay_min + the draw: 1 + 0, 1 + 4
        with delays_from(Fixed(bits)):
            result = run_rounds(doc)
        sent = {}
        for rec in result.transcript.records:
            key = (rec.get("src"), rec.get("dst"), rec.get("seq"), rec.get("round"))
            if rec["type"] == "send":
                sent[key] = rec["t"]
            elif rec["type"] == "deliver":
                assert rec["t"] - sent[key] == delay
    assert run_rounds(doc).transcript.to_ndjson() != result.transcript.to_ndjson()


def test_the_safety_oracle_sees_a_wrong_sum_and_an_unnamed_rejection():
    result = run_safely({"seed": 1, "n": 4, "t": 2, "rounds": 2, "s_min": 3})
    done, other = result.rounds
    assert safety_problems(result) == []
    wrong = [x + 1 for x in done.field_sum]
    result.rounds = [
        dataclasses.replace(done, field_sum=wrong),
        dataclasses.replace(other, phase="rejected", error="KeyError"),
    ]
    assert safety_problems(result) == [
        f"round 0 done without the exact sum over {done.m_set}",
        "round 1 ended rejected with error 'KeyError'",
    ]


def test_the_safety_oracle_sees_a_decoded_element_outside_the_clip_range():
    result = run_safely({"seed": 1, "n": 4, "t": 2, "s_min": 3})
    [done] = result.rounds
    bound = len(done.m_set) * result.spec.clip_bound
    result.rounds = [
        dataclasses.replace(done, decrypted=[*done.decrypted[:-1], -bound - 2**-16]),
        dataclasses.replace(done, round=1, decrypted=[bound, -bound, *done.decrypted[2:]]),
    ]
    assert safety_problems(result) == [f"round 0 decoded an element outside ±{bound}"]
