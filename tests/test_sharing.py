"""Dealing, reconstruction, recovery, and pairwise-key tests.

The two-step scheme is checked against the direct bivariate scheme as an
independent oracle, plus exact transmitted-element counting.
"""

from __future__ import annotations

import random

import pytest

from secel.algebra import (
    DEFAULT_PRIME,
    PrimeModulus,
    SymBivarPoly,
    UniPoly,
    lagrange_at_zero,
)
from secel.errors import (
    InsufficientShares,
    MissingShare,
    MissingStep1Share,
    ThresholdTooLarge,
)
from secel.sharing import (
    DealerState,
    accumulate_sv,
    deal_direct,
    new_dealer,
    pairwise_key,
    reconstruct_secret,
    recover_lost_share,
    step1_messages,
    step2_messages,
)

F31 = PrimeModulus(31)
F130 = PrimeModulus(DEFAULT_PRIME)


def _dealer(i, t, coeffs, modulus=F31):
    return DealerState(id=i, t=t, v_poly=UniPoly(coeffs, modulus))


# ---- direct bivariate dealing ---------------------------------------------------


def test_deal_direct_example_row():
    # F_1 = 2 + x + y + 3xy
    f = SymBivarPoly(2, {(0, 0): 2, (0, 1): 1, (1, 1): 3}, F31)
    rows = deal_direct(f, [2, 3])
    # oracle: substitute y=2 -> (2+2) + (1+6)x
    assert rows[2].coeffs == (4, 7)
    # symmetry: recipient j's row at dealer's id equals row at dealer evaluated at j
    assert rows[2].eval(3) == rows[3].eval(2)
    # any t recipients' rows at x=0 interpolate to the secret
    pts = [(j, rows[j].eval(0)) for j in (2, 3)]
    assert lagrange_at_zero(pts, 2, 31) == f.secret() == 2


def test_deal_direct_rejects_reserved_and_duplicate_ids():
    f = SymBivarPoly.random(2, F31, random.Random(1))
    with pytest.raises(ValueError):
        deal_direct(f, [0, 1])
    with pytest.raises(ValueError):
        deal_direct(f, [1, 1])


# ---- two-step dealing --------------------------------------------------------------


def test_two_step_spec_walkthrough():
    # V_1 = 1+x, V_2 = 2+2x, V_3 = 3+3x over Z_31
    dealers = {
        1: _dealer(1, 2, [1, 1]),
        2: _dealer(2, 2, [2, 2]),
        3: _dealer(3, 2, [3, 3]),
    }
    ids = [1, 2, 3]
    inbox = {i: {} for i in ids}
    for i, d in dealers.items():
        for j, v in step1_messages(d, ids).items():
            inbox[j][i] = v

    # oracle: V = sum V_i = 6 + 6x, so V(1)=12, V(2)=18, V(3)=24
    s_v = {i: accumulate_sv(dealers[i], inbox[i], ids) for i in ids}
    assert s_v[1] == 12 and s_v[2] == 18 and s_v[3] == 24

    # V(0) from any two s_v values equals sum of the dealers' constants
    assert reconstruct_secret({1: s_v[1], 2: s_v[2]}, 2, 31) == 6
    assert reconstruct_secret({2: s_v[2], 3: s_v[3]}, 2, 31) == 6


def test_two_step_single_dealer_degenerate():
    d = _dealer(1, 1, [9])
    assert step1_messages(d, [1]) == {}
    s_v = accumulate_sv(d, {}, [1])
    assert s_v == d.v_poly.eval(1) == 9
    assert reconstruct_secret({1: s_v}, 1, 31) == d.v_poly.constant_term()


def test_accumulate_requires_all_step1_shares():
    d = _dealer(1, 2, [1, 1])
    with pytest.raises(MissingStep1Share):
        accumulate_sv(d, {2: 4}, [1, 2, 3])


def test_step2_requires_accumulated_sum():
    d = _dealer(1, 2, [1, 1])
    with pytest.raises(MissingStep1Share):
        step2_messages(d, [1, 2, 3], random.Random(2))


def test_step2_constant_term_is_sv():
    rng = random.Random(3)
    d = _dealer(2, 3, [5, 1, 2])
    d.s_v = 21
    msgs = step2_messages(d, [1, 2, 3, 4], rng)
    assert d.a_poly.constant_term() == 21
    assert set(msgs) == {1, 3, 4}
    for j, v in msgs.items():
        assert v == d.a_poly.eval(j)


def test_new_dealer_threshold_guard():
    with pytest.raises(ThresholdTooLarge):
        new_dealer(1, t=4, n=3, modulus=F31, rng=random.Random(4))


def test_transmitted_element_counts():
    # two-step: 2*N*(N-1) single field elements; direct: N*(N-1) rows of t coeffs
    rng = random.Random(5)
    n, t = 5, 3
    ids = list(range(1, n + 1))
    dealers = {i: new_dealer(i, t, n, F31, rng) for i in ids}
    step1_count = sum(len(step1_messages(d, ids)) for d in dealers.values())
    inbox = {i: {} for i in ids}
    for i, d in dealers.items():
        for j, v in step1_messages(d, ids).items():
            inbox[j][i] = v
    for i in ids:
        accumulate_sv(dealers[i], inbox[i], ids)
    step2_count = sum(len(step2_messages(d, ids, rng)) for d in dealers.values())
    assert step1_count + step2_count == 2 * n * (n - 1)

    direct_elems = 0
    for i in ids:
        f = SymBivarPoly.random(t, F31, rng)
        rows = deal_direct(f, [j for j in ids if j != i])
        direct_elems += sum(len(r.coeffs) for r in rows.values())
    assert direct_elems == n * (n - 1) * t


def test_two_step_equals_direct_oracle():
    # same per-dealer secrets through both schemes, 500 trials here
    # (the 1000-trial acceptance run lives in test_acceptance)
    rng = random.Random(6)
    for trial in range(500):
        modulus = F31 if trial % 2 else F130
        n = rng.randrange(2, 6)
        t = rng.randrange(1, n + 1)
        ids = list(range(1, n + 1))
        dealers = {i: new_dealer(i, t, n, modulus, rng) for i in ids}
        secrets = [dealers[i].masking_secret() for i in ids]
        inbox = {i: {} for i in ids}
        for i, d in dealers.items():
            for j, v in step1_messages(d, ids).items():
                inbox[j][i] = v
        s_v = {i: accumulate_sv(dealers[i], inbox[i], ids) for i in ids}
        take = rng.sample(ids, t)
        two_step = reconstruct_secret({j: s_v[j] for j in take}, t, modulus.p)

        expected = sum(secrets) % modulus.p
        assert two_step == expected

        # direct-bivariate oracle: each dealer's F_i(0,0) = same secret
        total = 0
        for i in ids:
            f = SymBivarPoly.random(t, modulus, rng, secret=secrets[i - 1])
            rows = deal_direct(f, [j for j in ids if j != i] or [i + 1])
            pts = [(j, rows[j].eval(0)) for j in sorted(rows)][:t]
            if len(pts) >= t:
                assert lagrange_at_zero(pts, t, modulus.p) == secrets[i - 1]
            total = (total + f.secret()) % modulus.p
        assert total == expected


# ---- recovery ------------------------------------------------------------------------


def test_recover_lost_share_example():
    # A_q = 4 + 2x: helpers hold A_q(1)=6, A_q(2)=8
    helpers = {1: 6, 2: 8}
    assert recover_lost_share(3, helpers, 2, 31) == 4


def test_recover_matches_original_sv():
    rng = random.Random(7)
    for _ in range(100):
        n, t = 5, 3
        ids = list(range(1, n + 1))
        dealers = {i: new_dealer(i, t, n, F130, rng) for i in ids}
        inbox = {i: {} for i in ids}
        for i, d in dealers.items():
            for j, v in step1_messages(d, ids).items():
                inbox[j][i] = v
        s_v = {i: accumulate_sv(dealers[i], inbox[i], ids) for i in ids}
        a_inbox = {i: {} for i in ids}
        for i, d in dealers.items():
            for j, v in step2_messages(d, ids, rng).items():
                a_inbox[j][i] = v
        q = rng.choice(ids)
        helper_ids = rng.sample([j for j in ids if j != q], t)
        helpers = {j: a_inbox[j][q] for j in helper_ids}
        recovered = recover_lost_share(q, helpers, t, F130.p)
        assert recovered == s_v[q]
        # recovered share slots back into full reconstruction
        others = rng.sample([j for j in ids if j != q], t - 1)
        pool = {j: s_v[j] for j in others}
        pool[q] = recovered
        assert reconstruct_secret(pool, t, F130.p) == reconstruct_secret(
            {j: s_v[j] for j in ids[:t]}, t, F130.p
        )


def test_recover_rejects_self_help_and_shortage():
    with pytest.raises(ValueError):
        recover_lost_share(1, {1: 6, 2: 8}, 2, 31)
    with pytest.raises(InsufficientShares):
        recover_lost_share(3, {1: 6}, 2, 31)


# ---- pairwise keys ---------------------------------------------------------------------


def _dealer_with_a(i, t, a_coeffs):
    d = _dealer(i, t, [0] * t)
    d.a_poly = UniPoly(a_coeffs, F31)
    return d


def test_pairwise_key_example():
    d1 = _dealer_with_a(1, 2, [4, 2])  # A_1 = 4 + 2x
    d2 = _dealer_with_a(2, 2, [7, 1])  # A_2 = 7 + x
    # i's view: own A_1 plus received A_2(1)
    k_from_1 = pairwise_key(d1, 2, d2.a_poly.eval(1))
    k_from_2 = pairwise_key(d2, 1, d1.a_poly.eval(2))
    assert k_from_1 == k_from_2 == 16
    # changing A_2 changes the key
    d2b = _dealer_with_a(2, 2, [7, 2])
    assert pairwise_key(d1, 2, d2b.a_poly.eval(1)) == 17


def test_pairwise_key_missing_share():
    d1 = _dealer_with_a(1, 2, [4, 2])
    with pytest.raises(MissingShare):
        pairwise_key(d1, 2, None)


def test_pairwise_key_symmetry_random():
    rng = random.Random(8)
    for _ in range(200):
        t = rng.randrange(1, 4)
        di = _dealer(1, t, [rng.randrange(31) for _ in range(t)])
        dj = _dealer(2, t, [rng.randrange(31) for _ in range(t)])
        di.a_poly = UniPoly.random(t - 1, F31, rng)
        dj.a_poly = UniPoly.random(t - 1, F31, rng)
        ki = pairwise_key(di, 2, dj.a_poly.eval(1))
        kj = pairwise_key(dj, 1, di.a_poly.eval(2))
        assert ki == kj
