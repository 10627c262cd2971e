"""Prime-modulus, polynomial, interpolation, and codec tests.

Frozen expected values are cross-checked against independent oracles inside
the tests (exhaustive search, direct substitution, re-evaluation) so the
library is never its own referee.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secel.algebra import (
    DEFAULT_PRIME,
    MERSENNE_61,
    FixedPointCodec,
    PrimeModulus,
    SymBivarPoly,
    UniPoly,
    is_probable_prime,
    lagrange_at,
    lagrange_at_zero,
    lagrange_coeffs_at,
)
from secel.errors import DuplicatePoint, InsufficientShares
from secel.group_variant import DEFAULT_GROUP

F31 = PrimeModulus(31)
F130 = PrimeModulus(DEFAULT_PRIME)


# ---- pinned moduli -----------------------------------------------------------


def test_default_prime_is_130_bit_prime():
    assert DEFAULT_PRIME.bit_length() == 130
    assert is_probable_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME == (1 << 129) + 17


def test_mersenne_61_is_prime():
    assert MERSENNE_61 == (1 << 61) - 1
    assert is_probable_prime(MERSENNE_61)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeModulus(33)


DRAW_MODULI = [PrimeModulus(p) for p in (3, 607, MERSENNE_61, DEFAULT_PRIME, 2**1279 - 1)]


@settings(max_examples=100, deadline=None)
@given(
    modulus=st.sampled_from(DRAW_MODULI),
    seed=st.integers(0, 2**64),
    draws=st.integers(1, 12),
)
def test_field_draws_read_the_stream_randrange_reads(modulus, seed, draws):
    # every seeded transcript rests on this: a draw is randrange's, value and state
    ours, theirs = random.Random(seed), random.Random(seed)
    p = modulus.p
    for _ in range(draws):
        assert modulus.random_element(ours) == theirs.randrange(p)
        assert modulus.random_nonzero(ours) == 1 + theirs.randrange(p - 1)
    assert ours.getstate() == theirs.getstate()


# ---- polynomial evaluation -----------------------------------------------------


def test_poly_eval_examples():
    f = UniPoly([5, 3], F31)  # 5 + 3x
    # oracle: direct substitution
    assert f.eval(1) == (5 + 3 * 1) % 31 == 8
    assert f.eval(0) == 5
    assert f.eval(2) == (5 + 3 * 2) % 31 == 11


def test_poly_eval_matches_naive_power_sum():
    rng = random.Random(11)
    for _ in range(100):
        coeffs = [rng.randrange(31) for _ in range(rng.randrange(1, 6))]
        f = UniPoly(coeffs, F31)
        x = rng.randrange(31)
        naive = sum(c * pow(x, i, 31) for i, c in enumerate(coeffs)) % 31
        assert f.eval(x) == naive


# ---- Lagrange interpolation ------------------------------------------------------


def test_lagrange_at_zero_examples():
    pts = [(1, 8), (2, 11)]
    got = lagrange_at_zero(pts, 2, 31)
    assert got == 5
    # oracle: the interpolated polynomial is 5 + 3x; re-evaluate both points
    f = UniPoly([5, 3], F31)
    assert f.eval(1) == 8 and f.eval(2) == 11

    single = [(1, 9)]
    assert lagrange_at_zero(single, 1, 31) == 9

    # extra point ignored; point 3 does lie on 5 + 3x
    extra = pts + [(3, 14)]
    assert lagrange_at_zero(extra, 2, 31) == 5
    assert f.eval(3) == 14


def fermat_coeffs(xs, x0, p):
    """Lagrange basis coefficients with each denominator inverted as den^(p-2)."""
    out = []
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if i != j:
                num = num * (x0 - xj) % p
                den = den * (xi - xj) % p
        out.append(num * pow(den, p - 2, p) % p)
    return out


WIDE = st.integers(min_value=-(2**300), max_value=2**300)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([DEFAULT_PRIME, DEFAULT_GROUP.q]),
    xs=st.lists(st.one_of(st.integers(min_value=-20, max_value=40), WIDE), min_size=1, max_size=12, unique=True),
    x0=st.one_of(st.integers(min_value=-5, max_value=40), WIDE),
)
def test_lagrange_coeffs_match_the_fermat_formula(p, xs, x0):
    if len({x % p for x in xs}) != len(xs):
        with pytest.raises(DuplicatePoint):
            lagrange_coeffs_at(xs, x0, p)
        return
    assert lagrange_coeffs_at(xs, x0, p) == fermat_coeffs(xs, x0, p)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, DEFAULT_GROUP.q])
def test_lagrange_coeffs_reject_points_equal_mod_p(p):
    for xs in ([3, 3], [1, 2, 1], [5, p + 5], [0, -p]):
        with pytest.raises(DuplicatePoint):
            lagrange_coeffs_at(xs, 0, p)


def test_lagrange_errors():
    pts = [(1, 8)]
    with pytest.raises(InsufficientShares):
        lagrange_at_zero(pts, 2, 31)
    dup = [(1, 8), (1, 9)]
    with pytest.raises(DuplicatePoint):
        lagrange_at_zero(dup, 2, 31)
    zero_x = [(0, 8), (2, 9)]
    with pytest.raises(ValueError):
        lagrange_at_zero(zero_x, 2, 31)


@pytest.mark.parametrize("modulus", [F31, F130])
def test_lagrange_recovers_constant_term(modulus):
    # 1000 random-trial property split over the two moduli (500 each)
    rng = random.Random(13 + modulus.p)
    for _ in range(500):
        t = rng.randrange(1, 6)
        f = UniPoly.random(t - 1, modulus, rng)
        xs = rng.sample(range(1, min(40, modulus.p)), t)
        pts = [(x, f.eval(x)) for x in xs]
        assert lagrange_at_zero(pts, t, modulus.p) == f.constant_term()


def test_lagrange_at_general_point():
    rng = random.Random(17)
    for _ in range(100):
        t = rng.randrange(1, 5)
        f = UniPoly.random(t - 1, F31, rng)
        xs = rng.sample(range(1, 31), t)
        pts = [(x, f.eval(x)) for x in xs]
        x0 = rng.randrange(31)
        assert lagrange_at(pts, x0, t, 31) == f.eval(x0)


# ---- symmetric bivariate polynomials ----------------------------------------------


def test_bivar_row_examples():
    # F = 1 + 2x + 2y + 3xy
    f = SymBivarPoly(2, {(0, 0): 1, (0, 1): 2, (1, 1): 3}, F31)
    assert f.row(0).coeffs == (1, 2)
    # oracle: substitute y=1 -> (1+2) + (2+3)x
    assert f.row(1).coeffs == (3, 5)
    # symmetry of cross evaluations
    assert f.row(1).eval(2) == f.row(2).eval(1)


def test_bivar_symmetry_random():
    rng = random.Random(19)
    for _ in range(20):
        t = rng.randrange(1, 5)
        f = SymBivarPoly.random(t, F31, rng)
        for _ in range(100):
            x, y = rng.randrange(31), rng.randrange(31)
            assert f.eval(x, y) == f.eval(y, x)


def test_bivar_row_consistent_with_eval():
    rng = random.Random(23)
    f = SymBivarPoly.random(3, F130, rng)
    for _ in range(50):
        i, j = rng.randrange(100), rng.randrange(100)
        assert f.row(j).eval(i) == f.eval(i, j)


def test_bivar_secret_at_origin():
    rng = random.Random(29)
    f = SymBivarPoly.random(3, F31, rng, secret=17)
    assert f.secret() == 17
    assert f.eval(0, 0) == 17
    assert f.row(0).constant_term() == 17


# ---- fixed-point codec --------------------------------------------------------------


def encode_value(codec, v, modulus):
    """Reference encoding of one value, against which the vector path is checked."""
    clipped = min(max(float(v), -codec.clip_bound), codec.clip_bound)
    if not codec.signed:
        clipped += codec.clip_bound
    return round(clipped * codec.scale) % modulus.p


def decode_sum(codec, v, modulus, m_count=1):
    """Reference decoding of one sum of m_count encodings, a value mod p."""
    if codec.signed:
        if v > modulus.p // 2:
            v -= modulus.p
        return v / codec.scale
    # shifted: subtract the m_count copies of the clip offset
    return v / codec.scale - m_count * codec.clip_bound


def test_codec_examples():
    codec = FixedPointCodec(scale_bits=8, clip_bound=8.0)
    assert encode_value(codec, 1.5, F130) == 384
    e_neg = encode_value(codec, -1.5, F130)
    assert e_neg == DEFAULT_PRIME - 384
    total = (encode_value(codec, 1.5, F130) + encode_value(codec, -1.5, F130)) % F130.p
    assert decode_sum(codec, total, F130, m_count=2) == 0.0


def test_codec_roundtrip_error_bound():
    codec = FixedPointCodec(scale_bits=16, clip_bound=8.0)
    rng = random.Random(31)
    for _ in range(500):
        v = rng.uniform(-10, 10)
        clipped = min(max(v, -8.0), 8.0)
        got = decode_sum(codec, encode_value(codec, v, F130), F130)
        assert abs(got - clipped) <= 2 ** -16


def test_codec_sum_error_bound():
    codec = FixedPointCodec(scale_bits=16, clip_bound=8.0)
    rng = random.Random(37)
    for _ in range(50):
        m = rng.randrange(1, 65)
        vals = [rng.uniform(-8, 8) for _ in range(m)]
        total = sum(encode_value(codec, v, F130) for v in vals) % F130.p
        got = decode_sum(codec, total, F130, m_count=m)
        assert abs(got - sum(vals)) <= m * 2 ** -16


def test_codec_shifted_mode_nonnegative():
    codec = FixedPointCodec(scale_bits=10, clip_bound=8.0, signed=False)
    q = PrimeModulus(2305843009213688669)
    rng = random.Random(41)
    total = 0
    vals = [rng.uniform(-8, 8) for _ in range(100)]
    for v in vals:
        e = encode_value(codec, v, q)
        assert 0 <= e <= 2 * 8 * 1024  # shifted encodings stay small
        total = (total + e) % q.p
    assert abs(decode_sum(codec, total, q, m_count=100) - sum(vals)) <= 100 * 2 ** -10


def test_codec_capacity_guard():
    codec = FixedPointCodec(scale_bits=16, clip_bound=8.0)
    codec.ensure_capacity(1000, F130)
    with pytest.raises(ValueError):
        codec.ensure_capacity(10, PrimeModulus(31))


@pytest.mark.parametrize(
    "scale_bits, clip, signed, fits",
    [
        (1020, 8.0, True, True),  # 2^1023
        (1021, 8.0, True, False),
        (1019, 8.0, False, True),  # shifted: 2 * 8 * 2^1019 = 2^1023
        (1020, 8.0, False, False),
        (1023, math.nextafter(2.0, 0.0), True, True),  # just under float max
        (1023, 2.0, True, False),
        (1024, 2.0**-10, True, False),  # the value fits; the scale does not
    ],
)
def test_codec_float_range_guard_is_exact(scale_bits, clip, signed, fits):
    codec = FixedPointCodec(scale_bits, clip, signed)
    if fits:
        codec.ensure_float_range()
        top = Fraction(clip) * (1 if signed else 2) * codec.scale  # exact: all dyadic
        assert codec.scaled_values([clip]) == [int(top)]
    else:
        with pytest.raises(ValueError, match="past float range"):
            codec.ensure_float_range()


@settings(max_examples=200, deadline=None)
@given(
    scale_bits=st.integers(min_value=1, max_value=200),
    clip=st.floats(min_value=2.0**-60, max_value=1e30, allow_nan=False, allow_infinity=False),
)
def test_width_bits_is_the_exact_width_bit_length(scale_bits, clip):
    codec = FixedPointCodec(scale_bits=scale_bits, clip_bound=clip)
    width = int(2 * Fraction(codec.clip_bound) * codec.scale)
    if width:
        assert codec.width_bits() == width.bit_length()
    else:
        assert codec.width_bits() <= 0
    for modulus in (F31, F130):
        # the bit-length shortcut gives what the exact count gives
        exact = max(0, (modulus.p // 2 - 1) // max(width, 1))
        assert codec.max_parties(modulus) == exact


@settings(max_examples=200, deadline=None)
@given(
    signed=st.booleans(),
    scale_bits=st.integers(min_value=1, max_value=60),
    clip=st.floats(min_value=2.0**-20, max_value=1e6, allow_nan=False, allow_infinity=False),
    m_count=st.integers(min_value=0, max_value=100),
)
def test_reach_is_where_m_extreme_encodings_sum(signed, scale_bits, clip, m_count):
    codec = FixedPointCodec(scale_bits, clip, signed)
    top, bottom = codec.scaled_values([clip, -clip])
    assert m_count * top == codec.reach(m_count)
    assert m_count * bottom == (-codec.reach(m_count) if signed else 0)


def test_gradient_vector_helpers():
    codec = FixedPointCodec(scale_bits=16, clip_bound=8.0)
    vec = [0.25, -0.5, 7.999]
    enc = codec.encode(vec, F130)
    dec = codec.decode(enc, F130)
    for orig, back in zip(vec, dec):
        assert abs(orig - back) <= 2 ** -16


@settings(max_examples=100, deadline=None)
@given(
    signed=st.booleans(),
    scale_bits=st.integers(min_value=1, max_value=20),
    clip=st.sampled_from([0.5, 1.0, 8.0, 100.0]),
    vs=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
        | st.sampled_from([-8.0, 8.0, -8.000001, 8.000001, -0.0, 1e300, -1e300])
        | st.integers(min_value=-(1 << 40), max_value=1 << 40),
        max_size=40,
    ),
    m_count=st.integers(min_value=1, max_value=100),
)
def test_codec_vector_paths_match_the_per_value_ones(
    signed, scale_bits, clip, vs, m_count
):
    codec = FixedPointCodec(scale_bits=scale_bits, clip_bound=clip, signed=signed)
    for modulus in (F31, F130):
        es = codec.encode(vs, modulus)
        assert es == [encode_value(codec, v, modulus) for v in vs]
        sums = es + [0, 1, modulus.p // 2, modulus.p // 2 + 1, modulus.p - 1]
        assert codec.decode(sums, modulus, m_count) == [
            decode_sum(codec, e, modulus, m_count) for e in sums
        ]


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    signed=st.booleans(),
    scale_bits=st.integers(min_value=1, max_value=20),
    clip=st.sampled_from([0.5, 1.0, 8.0, 100.0]),
)
def test_codec_encode_clips_like_encode_value(data, signed, scale_bits, clip):
    codec = FixedPointCodec(scale_bits=scale_bits, clip_bound=clip, signed=signed)
    value = (
        st.floats(allow_nan=False)
        | st.sampled_from([0.0, -0.0, math.inf, -math.inf, clip, -clip, 2 * clip, -2 * clip])
        | st.integers(min_value=-(1 << 60), max_value=1 << 60)
    )
    vs = data.draw(st.lists(value, max_size=40), label="values")
    nan_at = data.draw(st.integers(min_value=0, max_value=len(vs)), label="nan_at")
    scaled = codec.scaled_values(vs)
    top = round(2 * clip * codec.scale)
    lo, hi = (-top // 2, top // 2) if signed else (0, top)
    assert all(type(x) is int and lo <= x <= hi for x in scaled)
    with_nan = vs[:nan_at] + [math.nan] + vs[nan_at:]
    with pytest.raises(ValueError):
        codec.scaled_values(with_nan)
    for modulus in (F31, F130):
        assert codec.encode(vs, modulus) == [encode_value(codec, v, modulus) for v in vs]
        assert codec.encode(vs, modulus) == [x % modulus.p for x in scaled]
        with pytest.raises(ValueError):
            codec.encode(with_nan, modulus)
        with pytest.raises(ValueError):
            encode_value(codec, math.nan, modulus)
