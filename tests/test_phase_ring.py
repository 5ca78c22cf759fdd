"""Exact ring arithmetic: frozen values, canonical form, ring laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmagic.phase_ring import (ExactAmplitude, ONE, SQRT2, ZERO, canonical,
                               eighth_root, i_power, sqrt2_root)

ints = st.integers(min_value=-(2 ** 30), max_value=2 ** 30)
amps = st.builds(ExactAmplitude, ints, ints, ints, ints,
                 st.integers(min_value=0, max_value=6)).map(
    lambda a: canonical(a.a, a.b, a.c, a.d, a.e))


class TestAdd:
    def test_additive_inverse(self):
        x = ExactAmplitude(1)
        assert (x + ExactAmplitude(-1)).is_zero()

    def test_conjugate_pair_sums_to_sqrt2(self):
        assert eighth_root(1) + eighth_root(7) == ExactAmplitude(0, 1)

    def test_decomposition_coefficient_sum(self):
        got = ExactAmplitude(-16, 12) + ExactAmplitude(96, -68)
        assert got == ExactAmplitude(80, -56)


class TestMul:
    def test_phase_addition(self):
        assert eighth_root(1) * eighth_root(1) == ExactAmplitude(0, 0, 1, 0)

    def test_sqrt2_squared(self):
        assert ExactAmplitude(0, 1) * ExactAmplitude(0, 1) == ExactAmplitude(2)

    def test_inv_sqrt2_squared_is_half(self):
        h = ExactAmplitude(1, 0, 0, 0, 1)
        sq = h * h
        assert sq == ExactAmplitude(1, 0, 0, 0, 2)
        assert sq.to_float() == pytest.approx(0.5)


class TestToFloat:
    def test_imaginary_unit(self):
        assert ExactAmplitude(0, 0, 1, 0).to_float() == 1j

    def test_inv_sqrt2(self):
        assert ExactAmplitude(1, 0, 0, 0, 1).to_float().real == pytest.approx(0.70710678, abs=1e-8)

    def test_ring_coefficient(self):
        want = -16 + 12 * math.sqrt(2)
        assert ExactAmplitude(-16, 12).to_float().real == pytest.approx(want)
        assert want == pytest.approx(0.97056, abs=1e-5)


class TestCanonicalForm:
    def test_zero_normalizes(self):
        assert canonical(0, 0, 0, 0, 5) == ExactAmplitude(0, 0, 0, 0, 0)

    def test_exponent_minimal(self):
        # 2/sqrt2^2 == 1
        assert canonical(2, 0, 0, 0, 2) == ExactAmplitude(1)

    @given(amps)
    def test_equality_is_fieldwise(self, x):
        same = canonical(x.a, x.b, x.c, x.d, x.e)
        assert same == x and hash(same) == hash(x)


@settings(max_examples=300)
@given(amps, amps, amps)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


def test_ring_laws_bulk():
    rng = np.random.default_rng(2024)
    vals = rng.integers(-(2 ** 30), 2 ** 30, size=(300_000, 5))
    triples = [canonical(int(a), int(b), int(c), int(d), int(e) % 7)
               for a, b, c, d, e in vals]
    for i in range(0, len(triples), 3):
        x, y, z = triples[i], triples[i + 1], triples[i + 2]
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z


@settings(max_examples=300)
@given(amps, amps)
def test_conjugation_and_norm(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    ns = x * x.conj()
    assert ns.c == 0 and ns.d == 0
    assert ns.to_float().real >= -1e-12


@settings(max_examples=200)
@given(amps, amps)
def test_to_float_respects_ring_ops(x, y):
    fx, fy = x.to_float(), y.to_float()
    scale = max(1.0, abs(fx) + abs(fy), abs(fx) * abs(fy))
    assert abs((x + y).to_float() - (fx + fy)) <= 1e-12 * scale
    assert abs((x * y).to_float() - fx * fy) <= 1e-12 * scale


def test_eighth_root_phase_type():
    for k in range(8):
        emb = eighth_root(k)
        assert abs(emb.to_float() - np.exp(1j * np.pi * k / 4)) < 1e-14
        eight = ONE
        for _ in range(8):
            eight = eight * emb
        assert eight == ONE
        assert eighth_root(k + 8) == emb == eighth_root(k - 8)
    assert eighth_root(3) * eighth_root(7) == eighth_root(2)


def test_i_power():
    assert i_power(1) == ExactAmplitude(0, 0, 1, 0)
    assert i_power(-1) == ExactAmplitude(0, 0, -1, 0)
    assert i_power(6) == ExactAmplitude(-1)


def test_sqrt2_root_equals_ring_product():
    # the exponential-sum value sqrt2^k zeta^p, canonical like a product
    power = ONE  # sqrt2^k
    for k in range(25):
        for p in range(8):
            assert sqrt2_root(k, p) == power * eighth_root(p)
        power = power * SQRT2
    assert sqrt2_root(3, -1) == sqrt2_root(3, 7)


def test_text_rendering_roundtrippable():
    x = ExactAmplitude(1, -2, 3, 0, 5)
    assert "sqrt2^5" in str(x) and "-2" in str(x)
