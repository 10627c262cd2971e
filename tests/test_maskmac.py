"""Masking/MAC layer: pad linearity, tag identity, aggregation, tamper detection.

Frozen worked examples stub the label coefficient to H=7 over Z_31 so every
value is hand-checkable; property tests use the real hash-derived coefficient.
Masked vectors are in the wire format, a list of [c1, c2] pairs whose label is
(round, position).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secel import group_variant, maskmac
from secel.algebra import DEFAULT_PRIME, MERSENNE_61, PrimeModulus
from secel.errors import LabelMismatch, ZeroAuthKey
from secel.group_variant import (
    DEFAULT_GROUP,
    TOY_GROUP,
    combine_key_lifts,
    group_aggregate,
    group_mask_vector,
    group_unmask,
    group_verify,
)
from secel.maskmac import (
    aggregate_vectors,
    label_coeffs,
    mask_vector,
    sum_auth_keys,
    unmask_vector,
    verify_vector,
)

F31 = PrimeModulus(31)
F130 = PrimeModulus(DEFAULT_PRIME)
H = 7  # stub coefficient for the worked examples


@pytest.fixture
def stub_h(monkeypatch):
    """Every label hashes to H, so the examples below work by hand mod 31."""
    monkeypatch.setattr(maskmac, "label_coeffs", lambda r, length, p: (H,) * length)


def _pad(key, p, round_no=0, index=0):
    """PRG(key, (round_no, index)) as the kernel applies it: c1 of w = 0."""
    return mask_vector([0] * (index + 1), key, 0, 1, round_no, p)[index][0]


# ---- label coefficient -----------------------------------------------------------


def test_label_coeff_domain_and_determinism():
    for p in (31, DEFAULT_PRIME):
        seen = set()
        for r in range(4):
            for h in label_coeffs(r, 4, p):
                assert 1 <= h <= p - 1
                seen.add(h)
        assert label_coeffs(0, 1, p) == label_coeffs(0, 1, p)
    # distinct labels almost surely map to distinct coefficients at 130 bits
    assert len(seen) == 16


def _reference_coeffs(round_no, length, p):
    """H(label) from its definition: SHA-256 of the domain, the 8-byte round and
    the 8-byte index, read big-endian and pinned into [1, p-1]."""
    return tuple(
        1
        + int.from_bytes(
            hashlib.sha256(
                b"secel/prg/v1" + round_no.to_bytes(8, "big") + idx.to_bytes(8, "big")
            ).digest(),
            "big",
        )
        % (p - 1)
        for idx in range(length)
    )


@pytest.mark.parametrize("p", [DEFAULT_PRIME, DEFAULT_GROUP.q], ids=["scalar", "group"])
def test_label_coeffs_match_the_sha256_definition(p):
    for rnd in (0, 1, 2, 7, 1 << 20, (1 << 64) - 1):
        reference = _reference_coeffs(rnd, 64, p)
        for length in range(1, 65):
            coeffs = label_coeffs(rnd, length, p)
            assert type(coeffs) is tuple
            assert coeffs == reference[:length]  # a shorter vector reads a prefix
    assert label_coeffs(0, 0, p) == ()
    assert label_coeffs.cache_info().maxsize <= 16


# ---- prg -------------------------------------------------------------------------


def test_prg_examples(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(maskmac, "label_coeffs", lambda r, length, p: (H,) * length)
        assert _pad(0, 31) == 0
        assert _pad(5, 31) == 4  # 35 mod 31
    # key-homomorphism with the real coefficient
    rng = random.Random(10)
    p = DEFAULT_PRIME
    for _ in range(50):
        rnd, idx = rng.randrange(1000), rng.randrange(8)
        a, b = F130.random_element(rng), F130.random_element(rng)
        pad_a, pad_b = _pad(a, p, rnd, idx), _pad(b, p, rnd, idx)
        assert (pad_a + pad_b) % p == _pad((a + b) % p, p, rnd, idx)
        c = rng.randrange(p)
        assert pad_a * c % p == _pad(a * c % p, p, rnd, idx)


# ---- mask / tag -------------------------------------------------------------------


def test_mask_examples(stub_h):
    [[c1, _]] = mask_vector([9], 5, 0, 1, 0, 31)
    assert c1 == 13  # 35+9 = 44 mod 31
    assert (c1 - _pad(5, 31)) % 31 == 9


def test_tag_examples(stub_h):
    [[c1, c2]] = mask_vector([9], 5, 6, 4, 0, 31)
    assert c1 == 13
    assert c2 == 15  # (11-13) * 4^{-1} = 29*8 mod 31
    assert (c2 * 4 + c1) % 31 == 11 == _pad(6, 31)
    # a c1 equal to the key's own pad tags to zero
    assert mask_vector([11], 0, 6, 4, 0, 31) == [[11, 0]]
    with pytest.raises(ZeroAuthKey):
        mask_vector([9], 5, 6, 0, 0, 31)
    with pytest.raises(ZeroAuthKey):
        mask_vector([9], 5, 6, 31, 0, 31)


def test_sum_auth_keys():
    assert sum_auth_keys([4, 9], 31) == 13
    with pytest.raises(ZeroAuthKey):
        sum_auth_keys([30, 1], 31)
    with pytest.raises(ValueError):
        sum_auth_keys([], 31)


# ---- aggregate --------------------------------------------------------------------


def test_aggregate_examples():
    agg = aggregate_vectors([[[13, 15]], [[20, 2]]], 31)
    assert agg == [[2, 17]]  # componentwise mod-31 sums
    assert aggregate_vectors([[[3, 4], [5, 6]]], 31) == [[3, 4], [5, 6]]
    with pytest.raises(ValueError):
        aggregate_vectors([], 31)
    with pytest.raises(LabelMismatch):
        aggregate_vectors([[[1, 1]], [[1, 1], [1, 1]]], 31)


def field_elements(rng: random.Random, p: int, size: int) -> list[int]:
    """`size` elements of Z_p: 0 and p - 1 a quarter of the time each, else uniform."""
    edges = (0, p - 1)
    return [edges[k] if (k := rng.randrange(4)) < 2 else rng.randrange(p) for _ in range(size)]


# The elements come from a Random seeded by one drawn integer: drawing each of
# up to 1,536 through hypothesis cost seconds of input generation per run.
# Shrinking still minimizes count, length and the seed, not the values.
@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([31, MERSENNE_61, DEFAULT_PRIME]),
    count=st.integers(min_value=1, max_value=12),
    length=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_aggregate_is_the_column_sum(p, count, length, seed):
    rng = random.Random(seed)
    vectors = [[field_elements(rng, p, 2) for _ in range(length)] for _ in range(count)]
    assert aggregate_vectors(vectors, p) == [
        [sum(v[idx][0] for v in vectors) % p, sum(v[idx][1] for v in vectors) % p]
        for idx in range(length)
    ]
    with pytest.raises(ValueError):
        aggregate_vectors([], p)
    with pytest.raises(LabelMismatch):
        aggregate_vectors(vectors + [vectors[0] + [[0, 0]]], p)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([DEFAULT_PRIME, TOY_GROUP.q, DEFAULT_GROUP.q]),
    bound=st.sampled_from([1 << 20, 1 << 300]),
)
def test_mask_vector_reduces_its_inputs(data, p, bound):
    # the codec hands over unreduced, possibly negative, scaled values
    values = data.draw(
        st.lists(st.integers(-bound, bound) | st.sampled_from([0, p - 1, p, -p]), min_size=1,
                 max_size=16),
        label="values",
    )
    secret, key = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    s, rnd = data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, 1 << 20))
    assert mask_vector(values, secret, key, s, rnd, p) == mask_vector(
        [w % p for w in values], secret, key, s, rnd, p
    )


# ---- verify ------------------------------------------------------------------------


def test_verify_honest_single_party(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(maskmac, "label_coeffs", lambda r, length, p: (H,) * length)
        # the tag example is a one-party aggregate: k = k_i = 6
        assert verify_vector([[13, 15]], 6, 4, 0, 31)
        assert not verify_vector([[14, 15]], 6, 4, 0, 31)
    # with the real coefficient the tag is bound to its round
    agg = mask_vector([9, 3], 5, 6, 4, 0, DEFAULT_PRIME)
    assert verify_vector(agg, 6, 4, 0, DEFAULT_PRIME)
    assert not verify_vector(agg, 6, 4, 1, DEFAULT_PRIME)


def test_tamper_acceptance_is_exactly_the_kernel_line(stub_h):
    # (c1+d1, c2+d2) verifies iff d1 + s*d2 = 0 mod p: exhaustive at p=31
    for d1 in range(31):
        for d2 in range(31):
            tampered = [[(13 + d1) % 31, (15 + d2) % 31]]
            expected = (d1 + 4 * d2) % 31 == 0
            assert verify_vector(tampered, 6, 4, 0, 31) is expected


# ---- unmask ------------------------------------------------------------------------


def test_unmask_examples(stub_h):
    # M=1: the mask example
    assert unmask_vector([[13, 0]], 5, 0, 31) == [9]
    # two parties: w=3 and w=4, keys 5 and 6 -> c1 = (35+3)+(42+4) = 84 mod 31 = 22
    a = mask_vector([3], 5, 0, 1, 0, 31)
    b = mask_vector([4], 6, 0, 1, 0, 31)
    agg = aggregate_vectors([a, b], 31)
    assert agg[0][0] == 22
    assert unmask_vector(agg, 11, 0, 31) == [7]  # 22 - 77 mod 31
    # all-zero inputs
    z = aggregate_vectors([mask_vector([0], v, 0, 1, 0, 31) for v in (5, 6)], 31)
    assert unmask_vector(z, 11, 0, 31) == [0]


# ---- end-to-end invariants ------------------------------------------------------------


@pytest.mark.parametrize("modulus,trials", [(F31, 500), (F130, 500)])
def test_end_to_end_exactness_and_completeness(modulus, trials):
    rng = random.Random(11)
    p = modulus.p
    for trial in range(trials):
        m = rng.randrange(1, 65)
        length = rng.randrange(1, 9)
        keys_v = [modulus.random_element(rng) for _ in range(m)]
        keys_k = [modulus.random_element(rng) for _ in range(m)]
        ws = [[modulus.random_element(rng) for _ in range(length)] for _ in range(m)]
        while True:  # a zero sum forces a protocol-level resample; mirror that here
            try:
                s = sum_auth_keys([modulus.random_nonzero(rng) for _ in range(m)], p)
                break
            except ZeroAuthKey:
                continue

        vectors = [
            mask_vector(w, v0, ki, s, trial, p) for v0, ki, w in zip(keys_v, keys_k, ws)
        ]
        agg = aggregate_vectors(vectors, p)

        assert verify_vector(agg, sum(keys_k) % p, s, trial, p)
        assert unmask_vector(agg, sum(keys_v) % p, trial, p) == [
            sum(column) % p for column in zip(*ws)
        ]


def test_hiding_at_toy_scale():
    # over all masking keys, ciphertexts of w=0 and w=1 have identical distributions
    dists = []
    for w in (0, 1):
        c1s = Counter(
            mask_vector([0, w], key, 0, 1, 3, 31)[1][0] for key in range(31)
        )
        dists.append(c1s)
    assert dists[0] == dists[1]
    assert set(dists[0]) == set(range(31))  # uniform: every value hit exactly once
    assert all(n == 1 for n in dists[0].values())


# ---- vector kernels --------------------------------------------------------------


def test_vector_helpers_match_scalar_path():
    # every pair is the defining formula at its own label (round, position)
    rng = random.Random(12)
    modulus = F130
    p = modulus.p
    m, l, rnd = 5, 16, 2
    vs = [modulus.random_element(rng) for _ in range(m)]
    ks = [modulus.random_element(rng) for _ in range(m)]
    s = sum_auth_keys([modulus.random_nonzero(rng) for _ in range(m)], p)
    grads = [[modulus.random_element(rng) for _ in range(l)] for _ in range(m)]

    vectors = [mask_vector(grads[i], vs[i], ks[i], s, rnd, p) for i in range(m)]
    for i in range(m):
        for idx, (c1, c2) in enumerate(vectors[i]):
            h = label_coeffs(rnd, l, p)[idx]
            assert c1 == (vs[i] * h + grads[i][idx]) % p
            assert (c2 * s + c1) % p == ks[i] * h % p

    agg = aggregate_vectors(vectors, p)
    assert verify_vector(agg, sum(ks) % p, s, rnd, p)
    out = unmask_vector(agg, sum(vs) % p, rnd, p)
    assert out == [sum(g[idx] for g in grads) % p for idx in range(l)]

    with pytest.raises(LabelMismatch):
        aggregate_vectors([vectors[0], vectors[1][:-1]], p)
    with pytest.raises(ZeroAuthKey):
        mask_vector(grads[0], vs[0], ks[0], 0, rnd, p)


# ---- property: scalar kernels and their group lifts ------------------------------------


@st.composite
def _masking_round(draw, order):
    m = draw(st.integers(1, 5))
    length = draw(st.integers(1, 5))
    elem = st.integers(0, order - 1)
    return {
        "round": draw(st.integers(0, 1 << 20)),
        "values": [draw(st.lists(elem, min_size=length, max_size=length)) for _ in range(m)],
        "pads": draw(st.lists(elem, min_size=m, max_size=m)),
        "keys": draw(st.lists(elem, min_size=m, max_size=m)),
        "s": draw(st.integers(1, order - 1)),
        "shift": (draw(st.integers(0, length - 1)), draw(st.integers(1, order - 1))),
    }


def _check_scalar(case, p):
    rnd, s = case["round"], case["s"]
    vectors = [
        mask_vector(w, v0, k, s, rnd, p)
        for w, v0, k in zip(case["values"], case["pads"], case["keys"])
    ]
    agg = aggregate_vectors(vectors, p)
    k_sum = sum(case["keys"]) % p
    v_sum = sum(case["pads"]) % p
    assert verify_vector(agg, k_sum, s, rnd, p)
    sums = unmask_vector(agg, v_sum, rnd, p)
    assert sums == [sum(column) % p for column in zip(*case["values"])]
    idx, d = case["shift"]
    shifted = [list(pair) for pair in agg]
    shifted[idx][0] = (shifted[idx][0] + d) % p
    assert not verify_vector(shifted, k_sum, s, rnd, p)
    return vectors, agg, sums, k_sum, v_sum


@settings(max_examples=200, deadline=None)
@given(_masking_round(MERSENNE_61))
def test_property_scalar_kernels_verify_and_unmask(case):
    _check_scalar(case, MERSENNE_61)


@settings(max_examples=100, deadline=None)
@given(_masking_round(TOY_GROUP.q))
def test_property_group_kernels_are_the_lifted_scalar_kernels(case):
    params = TOY_GROUP
    lift = params.lift
    rnd, s = case["round"], case["s"]
    vectors, agg, sums, k_sum, v_sum = _check_scalar(case, params.q)
    lifted = [
        group_mask_vector(w, v0, k, s, rnd, params)
        for w, v0, k in zip(case["values"], case["pads"], case["keys"])
    ]
    assert lifted == [[[lift(c1), lift(c2)] for c1, c2 in v] for v in vectors]
    g_agg = group_aggregate(lifted, params)
    assert g_agg == [[lift(c1), lift(c2)] for c1, c2 in agg]
    g_k = combine_key_lifts([lift(k) for k in case["keys"]], params)
    assert g_k == lift(k_sum)
    assert group_verify(g_agg, g_k, s, rnd, params)
    assert group_unmask(g_agg, lift(v_sum), rnd, params) == [lift(x) for x in sums]
    idx, d = case["shift"]
    shifted = [list(pair) for pair in g_agg]
    shifted[idx][0] = shifted[idx][0] * lift(d) % params.p
    assert not group_verify(shifted, g_k, s, rnd, params)


# ---- property: the pad and the tag are separate definitions ----------------------------


def _other_coeffs(seed):
    """A stand-in coefficient per label: nonzero, and fixed per (seed, round, index)."""

    def coeffs(round_no, length, p):
        rng = random.Random(f"{seed}/{round_no}")
        return tuple(rng.randrange(1, p) for _ in range(length))

    return coeffs


@contextmanager
def _stubbed(name, fn):
    """Replace one maskmac definition where the kernels of both variants read it."""
    with mock.patch.object(maskmac, name, fn), mock.patch.object(group_variant, name, fn):
        yield


def _masking_run(variant, case):
    """Mask, aggregate, verify and unmask through one variant's kernels: every
    submission's c1s, the tag check's verdict and the unmasked sums (lifted in
    the group)."""
    rnd, s = case["round"], case["s"]
    k_sum, v_sum = sum(case["keys"]), sum(case["pads"])
    rows = list(zip(case["values"], case["pads"], case["keys"]))
    if variant == "scalar":
        p = DEFAULT_PRIME
        vectors = [mask_vector(w, v0, k, s, rnd, p) for w, v0, k in rows]
        agg = aggregate_vectors(vectors, p)
        verified = verify_vector(agg, k_sum, s, rnd, p)
        sums = unmask_vector(agg, v_sum, rnd, p)
    else:
        params = TOY_GROUP
        vectors = [group_mask_vector(w, v0, k, s, rnd, params) for w, v0, k in rows]
        agg = group_aggregate(vectors, params)
        verified = group_verify(agg, params.lift(k_sum), s, rnd, params)
        sums = group_unmask(agg, params.lift(v_sum), rnd, params)
    return [[c1 for c1, _ in v] for v in vectors], verified, sums


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    length=st.integers(2, 6),
    variant=st.sampled_from(["scalar", "group"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_the_pad_and_the_tag_are_separate_definitions(n, length, variant, seed):
    # a kernel that folds the pad's coefficient into c2 fails either stub
    p = DEFAULT_PRIME if variant == "scalar" else TOY_GROUP.q
    rng = random.Random(seed)
    case = {
        "round": rng.randrange(1 << 20),
        "values": [[rng.randrange(p) for _ in range(length)] for _ in range(n)],
        "pads": [rng.randrange(1, p) for _ in range(n)],
        "keys": [rng.randrange(p) for _ in range(n)],
        "s": rng.randrange(1, p),
    }
    exact = [sum(column) % p for column in zip(*case["values"])]
    if variant == "group":
        exact = [TOY_GROUP.lift(x) for x in exact]
    c1s, verified, sums = _masking_run(variant, case)
    assert verified and sums == exact

    other = _other_coeffs(seed)
    with _stubbed("tag_coeffs", other):
        tag_c1s, verified, tag_sums = _masking_run(variant, case)
    assert tag_c1s == c1s  # the pad reads nothing of the tag
    assert verified and tag_sums == sums

    def other_pads(key, round_no, length, p):
        return [key * c % p for c in other(round_no, length, p)]

    with _stubbed("pads", other_pads):
        pad_c1s, verified, pad_sums = _masking_run(variant, case)
    assert pad_c1s != c1s  # the stub reached the kernels
    assert verified and pad_sums == sums
