"""Exponent-carried shares and masking: wrap/unwrap, interpolation in the
exponent, group masking pipeline, BSGS decoding, cross-checks against the
scalar pipeline as oracle.
"""

from __future__ import annotations

import random
import time
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secel.algebra import PrimeModulus, is_probable_prime
from secel.errors import InsufficientShares, LabelMismatch, NotFound, ZeroAuthKey
import secel.group_variant as group_variant
from secel.group_variant import (
    DEFAULT_GROUP,
    TOY_GROUP,
    GroupParams,
    KeyPair,
    baby_step_count,
    batch_weights,
    bsgs,
    combine_key_lifts,
    exp_lagrange_at,
    exp_lagrange_at_zero,
    group_aggregate,
    group_mask_vector,
    group_unmask,
    group_verify,
    multi_pow,
    unwrap_share,
    window_pow,
    window_rows,
    wrap_share,
)
from secel.maskmac import (
    aggregate_vectors,
    label_coeffs,
    mask_vector,
    sum_auth_keys,
    unmask_vector,
    verify_vector,
)

# order-101 subgroup of Z_607^* for hand-checkable examples
G101 = GroupParams(p=607, q=101, g=122)
# 9-bit order: the lift table's second row holds only the top bit
G359 = GroupParams(p=719, q=359, g=4)


# ---- parameters --------------------------------------------------------------------


def test_pinned_groups_are_safe_prime_subgroups():
    for params in (TOY_GROUP, DEFAULT_GROUP):
        assert is_probable_prime(params.p)
        assert is_probable_prime(params.q)
        assert params.p == 2 * params.q + 1
        assert pow(params.g, params.q, params.p) == 1
        assert params.g != 1
    assert TOY_GROUP.q.bit_length() == 61
    assert DEFAULT_GROUP.q.bit_length() == 256


def test_group_params_validation():
    with pytest.raises(ValueError):
        GroupParams(p=607, q=100, g=122)  # composite order
    with pytest.raises(ValueError):
        GroupParams(p=608, q=101, g=122)  # composite modulus
    with pytest.raises(ValueError):
        GroupParams(p=607, q=103, g=122)  # order does not divide p-1
    with pytest.raises(ValueError):
        GroupParams(p=607, q=101, g=606)  # element of order 2, not q


def test_exponent_field_matches_order():
    assert G101.exponent_field().p == 101
    assert G101.lift(6) == pow(122, 6, 607)


ALL_GROUPS = pytest.mark.parametrize(
    "params",
    [DEFAULT_GROUP, TOY_GROUP, G101, G359],
    ids=["default", "toy", "g101", "g359"],
)


@ALL_GROUPS
@settings(max_examples=60, deadline=None)
@given(x=st.integers(min_value=-(1 << 320), max_value=1 << 320))
@example(x=0)
@example(x=-1)
@example(x=-(1 << 257) - 3)
@example(x=(1 << 300) + 12345)
def test_lift_matches_builtin_pow(params, x):
    assert params.lift(x) == pow(params.g, x % params.q, params.p)


@ALL_GROUPS
def test_lift_at_the_order_and_byte_edges(params):
    for x in (params.q - 1, params.q, params.q + 1, -params.q, 255, 256):
        assert params.lift(x) == pow(params.g, x % params.q, params.p)


def _table_exponents(params, width):
    """0, 1, q-1, q-H(label) for real labels, and exponents with the top window set."""
    q = params.q
    rows = -(-q.bit_length() // width)
    top = (1 << width) - 1
    return [0, 1, q - 1, top << (width * (rows - 1)), (1 << (width * rows)) - 1] + [
        q - h for rnd in (0, 7) for h in label_coeffs(rnd, 4, q)
    ]


@ALL_GROUPS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_window_pow_matches_builtin_pow(params, data):
    p, bits = params.p, params.q.bit_length()
    base = data.draw(st.integers(min_value=0, max_value=p - 1), label="base")
    for width in (4, 8):
        rows = window_rows(base, p, bits, width)
        e = data.draw(
            st.sampled_from(_table_exponents(params, width))
            | st.integers(min_value=0, max_value=params.q),
            label=f"e{width}",
        )
        assert window_pow(rows, e, p) == pow(base, e, p)
        with pytest.raises((OverflowError, ValueError)):
            window_pow(rows, 1 << (width * len(rows)), p)


# ---- wrap / unwrap ------------------------------------------------------------------


def test_wrap_unwrap_examples():
    # x=0 wraps to the identity and unwraps to the identity
    kp = KeyPair.generate(G101, random.Random(20))
    assert wrap_share(0, kp.pk, G101) == 1
    assert unwrap_share(1, kp.sk_inv, G101) == 1

    # x=17, sk=5 (sk^-1 = 81 mod 101): wrap = G^85, unwrap = G^17
    pk5 = G101.lift(5)
    wrapped = wrap_share(17, pk5, G101)
    assert wrapped == G101.lift(85)
    assert unwrap_share(wrapped, 81, G101) == G101.lift(17)


def test_wrap_is_bound_to_the_recipient_key():
    rng = random.Random(21)
    a = KeyPair.generate(TOY_GROUP, rng)
    b = KeyPair.generate(TOY_GROUP, rng)
    assert a.sk != b.sk
    for _ in range(20):
        x = rng.randrange(1, TOY_GROUP.q)
        wrapped = wrap_share(x, a.pk, TOY_GROUP)
        assert unwrap_share(wrapped, a.sk_inv, TOY_GROUP) == TOY_GROUP.lift(x)
        assert unwrap_share(wrapped, b.sk_inv, TOY_GROUP) != TOY_GROUP.lift(x)


def test_keypair_relation():
    rng = random.Random(22)
    for _ in range(10):
        kp = KeyPair.generate(TOY_GROUP, rng)
        assert 1 <= kp.sk < TOY_GROUP.q
        assert kp.pk == TOY_GROUP.lift(kp.sk)
        assert kp.sk * kp.sk_inv % TOY_GROUP.q == 1


# ---- interpolation in the exponent -------------------------------------------------


def test_exp_lagrange_examples():
    # t=1: the single lifted value is the answer
    assert exp_lagrange_at_zero([(3, G101.lift(9))], 1, G101) == G101.lift(9)
    # f = 4 + 2x in the exponent: {(1, G^6), (2, G^8)} -> G^4
    pts = [(1, G101.lift(6)), (2, G101.lift(8))]
    assert exp_lagrange_at_zero(pts, 2, G101) == G101.lift(4)
    with pytest.raises(InsufficientShares):
        exp_lagrange_at_zero(pts, 3, G101)
    with pytest.raises(ValueError):
        exp_lagrange_at_zero([(0, G101.lift(6)), (2, G101.lift(8))], 2, G101)


def test_exp_lagrange_matches_scalar_oracle():
    from secel.algebra import UniPoly, lagrange_at

    rng = random.Random(23)
    F = PrimeModulus(TOY_GROUP.q)
    for _ in range(50):
        t = rng.randrange(1, 5)
        f = UniPoly.random(t - 1, F, rng)
        ids = rng.sample(range(1, 10), t)
        pts = [(i, TOY_GROUP.lift(f.eval(i))) for i in ids]
        assert exp_lagrange_at_zero(pts, t, TOY_GROUP) == TOY_GROUP.lift(f.eval(0))
        x0 = rng.randrange(10, 20)
        scalar = lagrange_at([(i, f.eval(i)) for i in ids], x0, t, F.p)
        assert exp_lagrange_at(pts, x0, t, TOY_GROUP) == TOY_GROUP.lift(scalar)


# ---- masking pipeline ----------------------------------------------------------------


def _scalar_pipeline(field, grads, vs, ks, s, rnd):
    vectors = [mask_vector(g, v, k, s, rnd, field.p) for g, v, k in zip(grads, vs, ks)]
    return aggregate_vectors(vectors, field.p)


def test_group_verify_mirrors_scalar_tag_example():
    # one party, lifted: same identity c2^s * c1 == (G^k)^H(label)
    rng = random.Random(24)
    q = TOY_GROUP.q
    v0, ki = rng.randrange(q), rng.randrange(q)
    s = rng.randrange(1, q)
    w = rng.randrange(1024)
    pairs = group_mask_vector([w], v0, ki, s, round_no=1, params=TOY_GROUP)
    g_k = TOY_GROUP.lift(ki)
    assert group_verify(pairs, g_k, s, 1, TOY_GROUP)
    # nudging c1 by one factor of G breaks it
    bad = [[(pairs[0][0] * TOY_GROUP.g) % TOY_GROUP.p, pairs[0][1]]]
    assert not group_verify(bad, g_k, s, 1, TOY_GROUP)
    # decode: unmask then discrete-log
    out = group_unmask(pairs, TOY_GROUP.lift(v0), 1, TOY_GROUP)
    assert bsgs(out[0], 1 << 11, TOY_GROUP) == w


def test_group_pipeline_commutes_with_scalar_pipeline():
    # 500 trials: every group output is the exponent-lift of the scalar output
    rng = random.Random(25)
    F = PrimeModulus(TOY_GROUP.q)
    for trial in range(500):
        m = rng.randrange(1, 6)
        l = rng.randrange(1, 5)
        rnd = rng.randrange(100)
        vs = [F.random_element(rng) for _ in range(m)]
        ks = [F.random_element(rng) for _ in range(m)]
        s = sum_auth_keys([F.random_nonzero(rng) for _ in range(m)], F.p)
        grads = [[F.random_element(rng) for _ in range(l)] for _ in range(m)]

        scalar_agg = _scalar_pipeline(F, grads, vs, ks, s, rnd)
        group_vecs = [
            group_mask_vector(grads[i], vs[i], ks[i], s, rnd, TOY_GROUP)
            for i in range(m)
        ]
        group_agg = group_aggregate(group_vecs, TOY_GROUP)

        for sc, gr in zip(scalar_agg, group_agg):
            assert gr[0] == TOY_GROUP.lift(sc[0])
            assert gr[1] == TOY_GROUP.lift(sc[1])

        k_sum = sum(ks) % F.p
        v_sum = sum(vs) % F.p
        g_k = combine_key_lifts([TOY_GROUP.lift(k) for k in ks], TOY_GROUP)
        assert g_k == TOY_GROUP.lift(k_sum)
        assert verify_vector(scalar_agg, k_sum, s, rnd, F.p)
        assert group_verify(group_agg, g_k, s, rnd, TOY_GROUP)

        scalar_out = unmask_vector(scalar_agg, v_sum, rnd, F.p)
        group_out = group_unmask(group_agg, TOY_GROUP.lift(v_sum), rnd, TOY_GROUP)
        for so, go in zip(scalar_out, group_out):
            assert go == TOY_GROUP.lift(so)


def test_group_verify_checks_every_element():
    # a 64-pair honest aggregate on the 256-bit group; one bad c1 anywhere fails it
    rng = random.Random(30)
    params, m, length, rnd = DEFAULT_GROUP, 3, 64, 5
    q = params.q
    vs = [rng.randrange(q) for _ in range(m)]
    ks = [rng.randrange(q) for _ in range(m)]
    s = sum(rng.randrange(1, q) for _ in range(m)) % q or 1
    ws = [[rng.randrange(1 << 10) for _ in range(length)] for _ in range(m)]
    agg = group_aggregate(
        [group_mask_vector(ws[i], vs[i], ks[i], s, rnd, params) for i in range(m)],
        params,
    )
    g_k = params.lift(sum(ks))
    assert group_verify(agg, g_k, s, rnd, params)
    for idx in range(length):
        bad = [list(pair) for pair in agg]
        bad[idx][0] = bad[idx][0] * params.g % params.p
        assert not group_verify(bad, g_k, s, rnd, params), idx


# ---- batched tag check ------------------------------------------------------------


def _honest_aggregate(params, rng, length, m=3, rnd=5):
    """An honest m-contributor aggregate with its G^k, round key and input sums."""
    q = params.q
    vs = [rng.randrange(q) for _ in range(m)]
    ks = [rng.randrange(q) for _ in range(m)]
    s = sum(rng.randrange(1, q) for _ in range(m)) % q or 1
    ws = [[rng.randrange(1 << 10) for _ in range(length)] for _ in range(m)]
    agg = group_aggregate(
        [group_mask_vector(ws[i], vs[i], ks[i], s, rnd, params) for i in range(m)],
        params,
    )
    sums = [sum(col) for col in zip(*ws)]
    return agg, params.lift(sum(ks)), s, params.lift(sum(vs)), sums


def _verify_each(agg, g_k, s, rnd, params):
    """Reference: the tag equation checked element by element."""
    p, q = params.p, params.q
    return all(
        pow(c2, s, p) * c1 % p == pow(g_k, h, p)
        for h, (c1, c2) in zip(label_coeffs(rnd, len(agg), q), agg)
    )


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1 << 32),
    rnd=st.integers(min_value=0, max_value=1 << 32),
)
def test_batch_verify_passes_honest_aggregates(length, seed, rnd):
    agg, g_k, s, _, _ = _honest_aggregate(TOY_GROUP, random.Random(seed), length, rnd=rnd)
    assert group_verify(agg, g_k, s, rnd, TOY_GROUP)


def test_batch_verify_catches_compensating_corruptions():
    # c1_i * G and c1_j / G keep the unweighted product of the tag equations,
    # so only the weights tell the two elements apart
    rng = random.Random(31)
    params, rnd = DEFAULT_GROUP, 5
    p, q = params.p, params.q
    agg, g_k, s, _, _ = _honest_aggregate(params, rng, 16, rnd=rnd)
    g_inv = params.lift(-1)
    e_sum = sum(label_coeffs(rnd, len(agg), q))
    for i, j in ((0, 1), (3, 15), (7, 2)):
        bad = [list(pair) for pair in agg]
        bad[i][0] = bad[i][0] * params.g % p
        bad[j][0] = bad[j][0] * g_inv % p
        unweighted = 1
        for c1, c2 in bad:
            unweighted = unweighted * pow(c2, s, p) * c1 % p
        assert unweighted == pow(g_k, e_sum, p)
        assert not group_verify(bad, g_k, s, rnd, params), (i, j)


@pytest.mark.parametrize("component", [0, 1], ids=["c1", "c2"])
def test_batch_verify_sign_flips_end_in_a_named_outcome(component):
    # -1 times one component passes the batch only up to sign: a flipped c1
    # then fails the decode; a flipped c2 leaves the decoded sum exact
    rng = random.Random(32)
    params = TOY_GROUP
    outcomes = set()
    for rnd in range(24):
        agg, g_k, s, g_v, sums = _honest_aggregate(params, rng, 4, rnd=rnd)
        agg[1][component] = params.p - agg[1][component]
        if not group_verify(agg, g_k, s, rnd, params):
            outcomes.add("rejected")
            continue
        out = group_unmask(agg, g_v, rnd, params)
        if component == 0:
            with pytest.raises(NotFound):
                bsgs(out[1], 3 << 10, params)
            outcomes.add("undecodable")
        else:
            assert [bsgs(h, 3 << 10, params) for h in out] == sums
            outcomes.add("exact")
    assert outcomes == {"rejected", "undecodable" if component == 0 else "exact"}


def test_cofactor_group_verdicts_match_the_per_element_check():
    # p - 1 = 6q on G101: the sign argument does not hold, so each element is
    # checked on its own, and -1-coset perturbations get the reference verdict
    rng = random.Random(33)
    params, p = G101, G101.p
    verdicts = set()
    for rnd in range(20):
        agg, g_k, s, _, _ = _honest_aggregate(params, rng, 3, rnd=rnd)
        assert group_verify(agg, g_k, s, rnd, params)
        for idx in range(3):
            for component in (0, 1):
                bad = [list(pair) for pair in agg]
                bad[idx][component] = p - bad[idx][component]
                verdict = group_verify(bad, g_k, s, rnd, params)
                assert verdict == _verify_each(bad, g_k, s, rnd, params)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_batch_weights_are_a_pure_function_of_key_round_and_index():
    params = DEFAULT_GROUP
    s = random.Random(34).randrange(1, params.q)
    weights = batch_weights(s, 7, 64, params)
    assert weights == batch_weights(s, 7, 64, params)
    assert weights[:5] == batch_weights(s, 7, 5, params)
    assert weights == batch_weights(s + params.q, 7, 64, params)
    assert len(set(weights)) == 64
    assert all(1 <= r <= 1 << 64 for r in weights)
    assert all(r.bit_length() > 32 for r in weights)  # full-width draws, not small ints
    assert batch_weights(s + 1, 7, 64, params) != weights
    assert batch_weights(s, 8, 64, params) != weights


def test_multi_pow_matches_separate_powers():
    rng = random.Random(35)
    p = DEFAULT_GROUP.p
    assert multi_pow([], [], p) == 1
    for n in (1, 2, 17, 64):
        bases = [rng.randrange(p) for _ in range(n)]
        exps = [rng.choice([0, 1, 15, 16, 1 << 64, rng.randrange(1 << 64)]) for _ in range(n)]
        expect = 1
        for b, e in zip(bases, exps):
            expect = expect * pow(b, e, p) % p
        assert multi_pow(bases, exps, p) == expect


def test_batch_verify_makes_at_most_two_full_width_pow_calls(monkeypatch):
    agg, g_k, s, _, _ = _honest_aggregate(DEFAULT_GROUP, random.Random(36), 64)
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(group_variant, "pow", counting_pow, raising=False)
    assert group_verify(agg, g_k, s, 5, DEFAULT_GROUP)
    assert len(calls) <= 2


def test_group_aggregate_label_guards():
    pairs = group_mask_vector([1, 2], 3, 4, 5, 0, TOY_GROUP)
    other = group_mask_vector([1], 3, 4, 5, 0, TOY_GROUP)
    with pytest.raises(LabelMismatch):
        group_aggregate([pairs, other], TOY_GROUP)
    with pytest.raises(ValueError):
        group_aggregate([], TOY_GROUP)
    with pytest.raises(ZeroAuthKey):
        group_mask_vector([1], 3, 4, TOY_GROUP.q, 0, TOY_GROUP)


def test_setup_reuse_across_ten_rounds():
    # fixed masking/authentication secrets from one Setup; only s_i is fresh
    rng = random.Random(26)
    q = TOY_GROUP.q
    m, l = 4, 3
    vs = [rng.randrange(q) for _ in range(m)]
    ks = [rng.randrange(q) for _ in range(m)]
    g_k = combine_key_lifts([TOY_GROUP.lift(k) for k in ks], TOY_GROUP)
    g_v = TOY_GROUP.lift(sum(vs) % q)
    for rnd in range(10):
        s = sum(rng.randrange(1, q) for _ in range(m)) % q
        if s == 0:
            s = 1
        ws = [[rng.randrange(256) for _ in range(l)] for _ in range(m)]
        vecs = [
            group_mask_vector(ws[i], vs[i], ks[i], s, rnd, TOY_GROUP) for i in range(m)
        ]
        agg = group_aggregate(vecs, TOY_GROUP)
        assert group_verify(agg, g_k, s, rnd, TOY_GROUP)
        out = group_unmask(agg, g_v, rnd, TOY_GROUP)
        for idx in range(l):
            total = sum(ws[i][idx] for i in range(m))
            assert bsgs(out[idx], 1 << 11, TOY_GROUP) == total


@ALL_GROUPS
def test_group_unmask_is_c1_over_the_pad_power(params):
    rng = random.Random(28)
    p, q = params.p, params.q
    for rnd in range(5):
        agg = [[params.lift(rng.randrange(q)), 1] for _ in range(6)]
        pad = params.lift(rng.randrange(q))
        out = group_unmask(agg, pad, rnd, params)
        for idx, ((c1, _), got) in enumerate(zip(agg, out)):
            h = label_coeffs(rnd, len(agg), q)[idx]
            assert got == c1 * pow(pow(pad, h, p), -1, p) % p
            assert got == c1 * pow(pad, q - h, p) % p


# ---- bsgs -----------------------------------------------------------------------------


def test_bsgs_examples():
    assert bsgs(1, 1 << 10, TOY_GROUP) == 0  # identity
    assert bsgs(G101.lift(17), 1 << 10, G101) == 17
    with pytest.raises(NotFound):
        bound = 1 << 10
        bsgs(TOY_GROUP.lift(bound + 5), bound, TOY_GROUP)
    with pytest.raises(ValueError):
        bsgs(TOY_GROUP.lift(3), (1 << 32) + 1, TOY_GROUP)
    with pytest.raises(ValueError):
        bsgs(TOY_GROUP.lift(3), 0, TOY_GROUP)


def test_bsgs_random_and_edges():
    rng = random.Random(27)
    for bound in (1, 2, 1000):
        for x in {0, bound - 1}:
            assert bsgs(TOY_GROUP.lift(x), bound, TOY_GROUP) == x
    for _ in range(100):
        x = rng.randrange(1 << 20)
        assert bsgs(TOY_GROUP.lift(x), 1 << 20, TOY_GROUP) == x


@pytest.mark.parametrize(
    "params, bound",
    [(G359, 300), (TOY_GROUP, 1025), (DEFAULT_GROUP, 163841), (TOY_GROUP, 1 << 16)],
    ids=["g359-300", "toy-1025", "default-163841", "toy-2^16"],
)
def test_bsgs_is_exact_up_to_the_bound(params, bound):
    for x in (0, 1, bound // 2, bound - 1):
        assert bsgs(params.lift(x), bound, params) == x
    with pytest.raises(NotFound):
        bsgs(params.lift(bound), bound, params)


@pytest.mark.parametrize("bound", [1, 2, 300, 1025, 163841, 1 << 16, 1 << 30, 1 << 32])
def test_baby_step_count_is_about_eight_square_roots(bound):
    root = isqrt(bound - 1) + 1  # ceil(sqrt(bound))
    m = baby_step_count(bound)
    giant_steps = (bound - 1) // m + 1
    assert root <= m <= max(root, 1 << 16)
    assert giant_steps * m >= bound
    if 8 * root <= 1 << 16:
        assert m == 8 * root and giant_steps <= root // 8 + 1
    if bound == 1 << 32:
        assert m == 1 << 16  # sized only: the table is never built here


def _naive_log(h, bound, params):
    e = 1
    for x in range(bound):
        if e == h:
            return x
        e = e * params.g % params.p
    return None


def test_bsgs_matches_naive_log_under_interleaved_bounds():
    # 1000 and 1001 share m = 32, 2000 has m = 45; 300 (m = 18) runs on two groups
    queries = [
        (TOY_GROUP, 1000),
        (TOY_GROUP, 2000),
        (TOY_GROUP, 1001),
        (TOY_GROUP, 300),
        (G359, 300),
    ]
    assert TOY_GROUP.baby_steps(32) is TOY_GROUP.baby_steps(32)
    assert G359.baby_steps(18)[0] != TOY_GROUP.baby_steps(18)[0]
    rng = random.Random(29)
    for _ in range(200):
        params, bound = rng.choice(queries)
        x = rng.randrange(bound)
        h = params.lift(x)
        assert bsgs(h, bound, params) == _naive_log(h, bound, params) == x
        m = isqrt(bound - 1) + 1
        beyond = params.lift(rng.randrange(bound, m * m))
        with pytest.raises(NotFound):
            bsgs(beyond, bound, params)
        assert _naive_log(beyond, bound, params) is None


def test_bsgs_runtime_scales_as_square_root():
    # worst-case decodes at three bounds; each 16x bound step ~ 4x work
    def cost(bound, reps=30):
        h = TOY_GROUP.lift(bound - 1)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                assert bsgs(h, bound, TOY_GROUP) == bound - 1
            best = min(best, time.perf_counter() - t0)
        return best

    c10, c14, c18 = cost(1 << 10), cost(1 << 14), cost(1 << 18, reps=10) * 3
    # generous envelope: ratios should sit near 4, far from O(1) or O(bound)=16
    assert 1.5 < c14 / c10 < 12
    assert 1.5 < c18 / c14 < 12


# ---- precomputed tables ---------------------------------------------------------------


def test_scalar_rounds_build_no_group_table(monkeypatch):
    from secel.protocol import RoundSpec, SimConfig, run_rounds

    fresh = GroupParams(p=TOY_GROUP.p, q=TOY_GROUP.q, g=TOY_GROUP.g)
    groups = (TOY_GROUP, DEFAULT_GROUP, fresh)
    for params in groups:
        monkeypatch.setattr(params, "_lift_rows", None)
        monkeypatch.setattr(params, "_bsgs_tables", {})
    for spec, verified in (
        (RoundSpec(n=4, t=2, length=8, rounds=2), True),
        (RoundSpec(n=5, t=2, length=4, rounds=2, share_loss=(2,), group=fresh), True),
        (RoundSpec(n=4, t=2, tamper="flip_element", group=DEFAULT_GROUP), False),
    ):
        result = run_rounds(spec, SimConfig(seed=3, n=spec.n))
        assert [r.verified for r in result.rounds] == [verified] * spec.rounds
    for params in groups:
        assert params._lift_rows is None
        assert params._bsgs_tables == {}
    fresh.lift(1)
    assert len(fresh._lift_rows) == 8  # 61-bit q: one row per byte
