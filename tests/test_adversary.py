"""The adversary library: each attack beats its positive control, and none
beats the protocol as `run_rounds` runs it."""

import pytest

from adversary import (
    frozen_share_body,
    leader_view,
    rebuild_pair_keys,
    second_rows,
    true_pair_keys,
)
from secel.protocol import VARIANTS, RoundSpec, run_rounds
from secel.simnet import SimConfig


def run_six(variant: str, share_loss=()):
    spec = RoundSpec(n=6, t=3, length=2, variant=variant, share_loss=share_loss)
    return run_rounds(spec, SimConfig(seed=1, n=6))


def test_f_rebuilds_every_other_pair_key_from_the_frozen_share_bodies():
    result = run_six("scalar")
    r = result.rounds[0]
    assert r.phase == "done"
    others = [j for j in r.t_set if j != r.leader]
    view = {j: [frozen_share_body(result.nodes[j], r.m_set)] for j in others}
    claims = rebuild_pair_keys(view, result.spec.arith().p)
    pairs = {(i, j) for i in others for j in others if i < j}
    assert len(pairs) == 10 and true_pair_keys(result, claims) == pairs


@pytest.mark.parametrize("share_loss", [(), (2, 5)], ids=["honest", "share_loss"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_f_rebuilds_no_pair_key_from_what_the_leader_opens(variant, share_loss):
    result = run_six(variant, share_loss)
    r = result.rounds[0]
    assert r.phase == "done" and r.recovered == list(share_loss)
    view = leader_view(result)
    assert set(view) == set(range(1, 7)) - {r.leader}
    if share_loss and variant == "scalar":
        # the losers' second rows do reach the leader, but never both rows of a pair
        assert {q for q, _ in second_rows(view)} == set(share_loss)
    claims = rebuild_pair_keys(view, result.spec.arith().p)
    assert true_pair_keys(result, claims) == set()
