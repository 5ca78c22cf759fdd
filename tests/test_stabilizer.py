"""Stabilizer kernel vs dense brute force on fixed and random cases."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tmagic.dense import apply_pauli, apply_projector, dense_magic_state
from tmagic.draws import RawDraws, pcg64_streams
from tmagic import gf2
from tmagic.gf2 import from_str, parity, revbits
from tmagic.pauli import PauliOperator, PauliProjector, random_pauli
from tmagic.phase_ring import (INV_SQRT2, ExactAmplitude, ONE, ZERO,
                               eighth_root, sqrt2_root)
from tmagic.stabilizer import (StabilizerState, apply_pauli_state,
                               exponential_sum, inner_product, plan_value,
                               projector_ket, random_stabilizer_state,
                               _dimension_weights)

import reference_kernel


PLUS1 = StabilizerState(1, (1,), 0, (0,), (0,), 0, INV_SQRT2)  # |+>
PLUS1_2 = StabilizerState(2, (0b11,), 0, (0,), (0,), 0, INV_SQRT2)  # |00>+|11>
HALF = ExactAmplitude(1, 0, 0, 0, 2)


def project(s: StabilizerState, p: PauliOperator, sign: int) -> StabilizerState:
    """((I + sign P)/2)|s> as 2^-1 ``projector_ket``: s's columns plus P's
    flip, with a variable for the factor."""
    k = projector_ket(s, [(p, sign)])
    return StabilizerState(k.n, k.basis, k.shift, k.bmat, k.dvec, k.c,
                           k.scale * HALF)


def projected_norm(s: StabilizerState, p: PauliOperator, sign: int
                   ) -> ExactAmplitude:
    """<s|(I + sign P)/2|s>, exactly, as 2^-1 <s|projector_ket(s)>."""
    return HALF * inner_product(s, projector_ket(s, [(p, sign)]))


def z_cut(s: StabilizerState, xi: int, bit: int) -> StabilizerState:
    """The part of s on {x : xi . x = bit}: s projected by the Z-type Pauli
    on the sites of xi, whose flip is the zero column."""
    return project(s, PauliOperator(s.n, beta=xi), -1 if bit else 1)


def brute_exponential_sum(s: StabilizerState) -> ExactAmplitude:
    total = ZERO
    for u in range(1 << s.m):
        total = total + eighth_root(s.phase_exponent(u))
    return s.scale * total


def exp_sum(s: StabilizerState):
    """The ``exponential_sum`` plan of the form of s evaluated at input 0
    (no bit 2 flipped), with the constant of s: (k, p) or None."""
    plan = exponential_sum(s.bmat, s.dvec, [1 << k for k in range(s.m)])
    return plan_value(plan, 0, s.c)


def exp_sum_value(s: StabilizerState) -> ExactAmplitude:
    """scale * the exponential sum of the form of s, as a ring value."""
    ks = exp_sum(s)
    return ZERO if ks is None else s.scale * sqrt2_root(*ks)


def form_state(m: int, d, upper: int, c: int) -> StabilizerState:
    """The form on m variables with cross bits ``upper`` over the pairs a < b."""
    b = [0] * m
    bit = 0
    for a in range(m):
        for b2 in range(a + 1, m):
            if (upper >> bit) & 1:
                b[a] |= 1 << b2
                b[b2] |= 1 << a
            bit += 1
    return StabilizerState(max(m, 1), tuple(1 << i for i in range(m)), 0,
                           tuple(b), tuple(d), c, ONE)


def random_form_state(rng, m: int) -> StabilizerState:
    d = tuple(2 * int(rng.integers(0, 4)) for _ in range(m))
    b = [0] * m
    for a in range(m):
        for b2 in range(a + 1, m):
            if rng.integers(0, 2):
                b[a] |= 1 << b2
                b[b2] |= 1 << a
    return StabilizerState(max(m, 1), tuple(1 << i for i in range(m)), 0,
                           tuple(b), d, int(rng.integers(0, 8)), ONE)


@st.composite
def form_states(draw):
    m = draw(st.integers(0, 10))
    d = draw(st.lists(st.sampled_from((0, 2, 4, 6)), min_size=m, max_size=m))
    upper = draw(st.integers(0, (1 << (m * (m - 1) // 2)) - 1))
    return form_state(m, d, upper, draw(st.integers(0, 7)))


class TestExponentialSum:
    """The elimination plan evaluated at input 0: the exponential sum of
    the form itself."""

    def test_single_point(self):
        s = StabilizerState.computational(1, 0)
        assert exp_sum(s) == (0, 0)
        assert exp_sum_value(s) == ONE

    def test_cancelling_pair(self):
        s = StabilizerState(1, (1,), 0, (0,), (4,), 0, ONE)
        assert exp_sum(s) is None
        assert exp_sum_value(s).is_zero()

    def test_cross_term(self):
        # sum_{x,y} (-1)^{xy} = 2
        s = StabilizerState(2, (1, 2), 0, (0b10, 0b01), (0, 0), 0, ONE)
        assert exp_sum(s) == (2, 0)
        assert exp_sum_value(s) == ExactAmplitude(2)

    def test_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = random_form_state(rng, int(rng.integers(0, 7)))
            assert exp_sum_value(s) == brute_exponential_sum(s)

    def test_value_is_power_of_sqrt2_times_eighth_root(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            s = random_form_state(rng, int(rng.integers(0, 7)))
            v = exp_sum_value(s)
            if v.is_zero():
                continue
            mag2 = v * v.conj()
            # |v|^2 must be an exact power of 2
            assert mag2.b == 0 and mag2.e == 0 and mag2.a & (mag2.a - 1) == 0
            ph = v.to_float()
            ang = np.angle(ph) / (np.pi / 4)
            assert abs(ang - round(ang)) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(form_states())
    @example(StabilizerState(1, (1,), 0, (0,), (4,), 3, ONE))  # zero sum
    @example(StabilizerState(1, (1,), 0, (0,), (6,), 5, ONE))  # k = 1
    @example(form_state(3, (2, 0, 4), 0b111, 1))  # k = 3, coupled
    @example(StabilizerState.computational(1, 0))  # m = 0
    def test_matches_reference(self, s):
        ks = exp_sum(s)
        want = reference_kernel.exponential_sum(s)
        assert (ks is None) == want.is_zero()
        if ks is not None:
            k, p = ks
            assert k >= 0 and 0 <= p < 8
        assert exp_sum_value(s) == want


def flipped(s: StabilizerState, lam: int) -> StabilizerState:
    """s with d_k xor 4 where bit k of lam is set."""
    d = tuple(x ^ (4 * ((lam >> k) & 1)) for k, x in enumerate(s.dvec))
    return StabilizerState(s.n, s.basis, s.shift, s.bmat, d, s.c, s.scale)


def plan_ring(plan, x: int, c: int) -> ExactAmplitude:
    ks = plan_value(plan, x, c)
    if ks is None:
        return ZERO
    k, p = ks
    assert k >= 0 and 0 <= p < 8
    return sqrt2_root(k, p)


@st.composite
def flipped_forms(draw):
    m = draw(st.integers(0, 16))
    d = draw(st.lists(st.sampled_from((0, 2, 4, 6)), min_size=m, max_size=m))
    upper = draw(st.integers(0, (1 << (m * (m - 1) // 2)) - 1))
    return (form_state(m, d, upper, draw(st.integers(0, 7))),
            draw(st.integers(0, (1 << m) - 1)))


class TestPlan:
    """The plan evaluated at an input x against the reference exponential
    sum of the form it stands for: bit 2 of d_k flipped where
    parity(funcs[k] & x) = 1."""

    def test_every_input_up_to_six_variables(self):
        rng = np.random.default_rng(2031)
        cases = zeros = 0
        for m in range(7):
            for _ in range(30 if m else 1):
                s = random_form_state(rng, m)
                plan = exponential_sum(s.bmat, s.dvec,
                                       [1 << k for k in range(m)])
                for lam in range(1 << m):
                    want = reference_kernel.exponential_sum(flipped(s, lam))
                    assert plan_ring(plan, lam, s.c) == want, (s, lam)
                    cases += 1
                    zeros += want.is_zero()
        assert cases // 10 < zeros < cases

    def test_inputs_through_funcs(self):
        # the engines' funcs are null vectors, so one input bit may flip
        # several linear terms and some none
        rng = np.random.default_rng(2032)
        for _ in range(300):
            m = int(rng.integers(0, 7))
            s = random_form_state(rng, m)
            funcs = [int(rng.integers(0, 1 << 5)) for _ in range(m)]
            plan = exponential_sum(s.bmat, s.dvec, funcs)
            for x in range(1 << 5):
                lam = sum(((f & x).bit_count() & 1) << k
                          for k, f in enumerate(funcs))
                assert (plan_ring(plan, x, s.c)
                        == reference_kernel.exponential_sum(flipped(s, lam)))

    @settings(max_examples=200, deadline=None)
    @given(flipped_forms())
    def test_matches_reference_up_to_sixteen_variables(self, case):
        s, lam = case
        plan = exponential_sum(s.bmat, s.dvec, [1 << k for k in range(s.m)])
        assert (plan_ring(plan, lam, s.c)
                == reference_kernel.exponential_sum(flipped(s, lam)))

    def test_inputs_are_not_consumed(self):
        s = form_state(4, (2, 6, 0, 4), 0b101101, 3)
        b, d = list(s.bmat), list(s.dvec)
        exponential_sum(b, d, [1, 2, 4, 8])
        assert (tuple(b), tuple(d)) == (s.bmat, s.dvec)


class TestShrink:
    """Support restriction by a Z-type factor, whose column is zero: the
    points off the restriction cancel in the sum over the factor."""

    def test_plus_to_zero(self):
        s = z_cut(PLUS1, 1, 0)
        assert s.basis == (1, 0) and s.shift == 0
        assert np.allclose(s.to_dense(), [2 ** -0.5, 0])
        assert projected_norm(PLUS1, PauliOperator(1, beta=1), 1) == HALF

    def test_inconsistent_constraint_empty(self):
        zero = StabilizerState.computational(1, 0)
        assert all(a.is_zero() for a in z_cut(zero, 1, 1).to_dense_exact())
        assert projected_norm(zero, PauliOperator(1, beta=1), -1) == ZERO

    def test_already_satisfied_returns_same_state(self):
        zero = StabilizerState.computational(2, 0)
        assert z_cut(zero, 0b11, 0).to_dense_exact() == zero.to_dense_exact()
        assert projected_norm(zero, PauliOperator(2, beta=0b11), 1) == ONE

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            s = random_stabilizer_state(n, rng)
            xi = int(rng.integers(1, 1 << n))
            bit = int(rng.integers(0, 2))
            want = s.to_dense()
            for idx in range(1 << n):
                if parity(revbits(idx, n) & xi) != bit:
                    want[idx] = 0
            assert np.allclose(z_cut(s, xi, bit).to_dense(), want, atol=1e-12)


class TestExtend:
    """Support extension: a Pauli whose flip direction leaves the support
    adds that direction, giving (|s> + P|s>)/2."""

    def test_zero_to_plus(self):
        out = project(StabilizerState.computational(1, 0),
                      PauliOperator.from_str("X"), 1)
        assert out.m == 1
        assert np.allclose(out.to_dense(), [0.5, 0.5])

    def test_support_union_dense(self):
        from tmagic.dense import apply_pauli
        from tmagic.gf2 import rank_of
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 5))
            s = random_stabilizer_state(n, rng)
            p = random_pauli(n, rng)
            if rank_of(list(s.basis) + [p.x_mask]) != s.m + 1:
                continue
            out = project(s, p, 1)
            assert out.basis == s.basis + (p.x_mask,)
            vs = s.to_dense()
            # original amplitudes kept, P-shifted copy added on the new coset
            want = (vs + apply_pauli(vs, p)) / 2
            assert np.allclose(out.to_dense(), want, atol=1e-12)
            checked += 1


class TestInnerProduct:
    def test_zero_zero(self):
        z = StabilizerState.computational(4, 0)
        assert inner_product(z, z) == ONE

    def test_zero_plus(self):
        for n in range(1, 6):
            z = StabilizerState.computational(n, 0)
            p = StabilizerState(n, tuple(1 << q for q in range(n)), 0,
                                (0,) * n, (0,) * n, 0,
                                ExactAmplitude(1, 0, 0, 0, n))  # |+>^n
            assert inner_product(z, p) == ExactAmplitude(1, 0, 0, 0, n)

    def test_b60_e6_overlap(self):
        # <0^6 | E6> with E6 the normalized even-Hamming-weight sum: 1/(4 sqrt2)
        b60 = StabilizerState.computational(6, 0)
        cols = tuple(from_str(s) for s in
                     ("110000", "101000", "100100", "100010", "100001"))
        e6 = StabilizerState(6, cols, 0, (0,) * 5, (0,) * 5, 0,
                             ExactAmplitude(1, 0, 0, 0, 5))
        got = inner_product(b60, e6)
        assert got == ExactAmplitude(1, 0, 0, 0, 5)
        assert got.to_float() == pytest.approx(1 / (4 * np.sqrt(2)))
        # cross-check against the dense even-weight vector
        dense = np.array([1.0 if bin(revbits(i, 6)).count("1") % 2 == 0 else 0.0
                          for i in range(64)]) / np.sqrt(32)
        assert np.allclose(e6.to_dense(), dense)

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            n = int(rng.integers(1, 8))
            a = random_stabilizer_state(n, rng)
            b = random_stabilizer_state(n, rng)
            got = inner_product(a, b).to_float()
            want = np.vdot(a.to_dense(), b.to_dense())
            assert abs(got - want) < 1e-10

    def test_exact_against_exact_dense(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = random_stabilizer_state(n, rng)
            b = random_stabilizer_state(n, rng)
            got = inner_product(a, b)
            want = ZERO
            for x, y in zip(a.to_dense_exact(), b.to_dense_exact()):
                want = want + x.conj() * y
            assert got == want


class TestMeasurePauli:
    """One Pauli measurement outcome, (I + sign P)/2, as 2^-1
    ``projector_ket`` and its norm as 2^-1 <s|projector_ket(s)>."""

    def test_eigenstate(self):
        zero = StabilizerState.computational(1, 0)
        out = project(zero, PauliOperator.from_str("Z"), 1)
        assert out.to_dense_exact() == zero.to_dense_exact()
        assert projected_norm(zero, PauliOperator.from_str("Z"), 1) == ONE

    def test_annihilation(self):
        zero = StabilizerState.computational(1, 0)
        out = project(zero, PauliOperator.from_str("Z"), -1)
        assert all(a.is_zero() for a in out.to_dense_exact())
        assert projected_norm(zero, PauliOperator.from_str("Z"), -1) == ZERO

    def test_plus_measured_in_z(self):
        assert projected_norm(PLUS1, PauliOperator.from_str("Z"), 1) == HALF
        out = project(PLUS1, PauliOperator.from_str("Z"), 1)
        assert np.allclose(out.to_dense(), [2 ** -0.5, 0])

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            s = random_stabilizer_state(n, rng)
            p = random_pauli(n, rng)
            sign = 1 if rng.integers(0, 2) else -1
            want = apply_projector(s.to_dense(), PauliProjector.single(p, sign))
            assert np.allclose(project(s, p, sign).to_dense(), want, atol=1e-12)
            nf = projected_norm(s, p, sign).to_float()
            assert abs(nf.imag) < 1e-14
            assert abs(nf.real - np.vdot(s.to_dense(), want).real) < 1e-12

    def test_norm_is_real_in_unit_interval_and_signs_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            s = random_stabilizer_state(n, rng)
            p = random_pauli(n, rng)
            np_plus = projected_norm(s, p, 1)
            np_minus = projected_norm(s, p, -1)
            total = np_plus + np_minus
            assert total == ONE
            for v in (np_plus, np_minus):
                assert v.is_real()
                assert -1e-12 <= v.to_float().real <= 1 + 1e-12

    def test_several_factors_dense(self):
        # r = 1..3 random factors, commuting or not, repeated and
        # contradicting: 2^-r projector_ket is the product of the r
        # projectors, the first factor applied first
        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            s = random_stabilizer_state(n, rng)
            factors = [(random_pauli(n, rng), 1 - 2 * int(rng.integers(0, 2)))
                       for _ in range(int(rng.integers(1, 4)))]
            if rng.integers(0, 4) == 0:
                p, sign = factors[0]
                factors.append((p, sign if rng.integers(0, 2) else -sign))
            want = s.to_dense()
            for p, sign in factors:
                want = (want + sign * apply_pauli(want, p)) / 2
            ket = projector_ket(s, factors)
            assert ket.m == s.m + len(factors)
            got = ket.to_dense() / 2 ** len(factors)
            assert np.allclose(got, want, atol=1e-12)

    def test_kets_share_bases_through_one_dict(self):
        # kets of states on one column set, built with one dict, share one
        # basis tuple; without the dict each ket has its own
        factors = [(PauliOperator.from_str("XZ"), 1), (PauliOperator.from_str("IY"), -1)]
        cols = (0b01, 0b10)
        states = [StabilizerState(2, cols, h, (0, 0), (0, 2 * h), 0, HALF)
                  for h in range(2)] + [PLUS1_2]
        bases: dict = {}
        kets = [projector_ket(s, factors, bases) for s in states]
        assert kets[0].basis is kets[1].basis
        assert kets[2].basis is not kets[0].basis
        assert kets == [projector_ket(s, factors) for s in states]
        assert projector_ket(states[0], factors).basis is not kets[0].basis

    def test_rejects_non_hermitian_factor_and_bad_sign(self):
        s = StabilizerState.computational(1, 0)
        with pytest.raises(ValueError, match="must be Hermitian"):
            projector_ket(s, [(PauliOperator.from_str("i:Z"), 1)])
        with pytest.raises(ValueError, match="sign must be"):
            projector_ket(s, [(PauliOperator.from_str("Z"), 0)])
        with pytest.raises(ValueError, match="qubit count"):
            projector_ket(s, [(PauliOperator.from_str("ZZ"), 1)])

    def test_apply_pauli_state(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            s = random_stabilizer_state(n, rng)
            p = PauliOperator(n, *_masks(rng, n), int(rng.integers(0, 4)))
            got = apply_pauli_state(s, p).to_dense()
            want = apply_pauli(s.to_dense(), p)
            assert np.allclose(got, want, atol=1e-12)


def _masks(rng, n):
    beta = gamma = delta = 0
    for q in range(n):
        v = int(rng.integers(0, 4))
        if v == 1:
            beta |= 1 << q
        elif v == 2:
            gamma |= 1 << q
        elif v == 3:
            delta |= 1 << q
    return beta, gamma, delta


def _state_key(vec: np.ndarray) -> tuple:
    idx = np.argmax(np.abs(vec) > 1e-9)
    normalized = vec / vec[idx]
    return tuple(np.round(normalized, 6))


def _draws(seed) -> RawDraws:
    """One decoder over the PCG64 stream of ``default_rng(seed)``."""
    return RawDraws(np.random.default_rng(seed).bit_generator.random_raw)


class TestRandomStabilizerState:
    def test_counts(self):
        count = reference_kernel.stabilizer_state_count
        assert count(1) == 6
        assert count(2) == 60
        assert count(3) == 1080
        for n in range(1, 9):
            weights, total = _dimension_weights(n)
            assert len(weights) == n + 1
            assert sum(weights) == total == count(n)

    def test_single_qubit_uniform(self):
        rng = _draws(10)
        draws = 60_000
        counts: dict = {}
        for _ in range(draws):
            key = _state_key(random_stabilizer_state(1, rng).to_dense())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expect = draws / 6
        sigma = (draws * (1 / 6) * (5 / 6)) ** 0.5
        for v in counts.values():
            assert abs(v - expect) < 4 * sigma

    def test_two_qubit_coverage(self):
        rng = _draws(11)
        seen = set()
        for _ in range(100_000):
            seen.add(_state_key(random_stabilizer_state(2, rng).to_dense()))
            if len(seen) == 60:
                break
        assert len(seen) == 60

    def test_deterministic_under_seed(self):
        a = random_stabilizer_state(5, _draws(123))
        assert random_stabilizer_state(5, _draws(123)) == a
        # a Generator is read through a fresh decoder over its bit generator
        assert random_stabilizer_state(5, np.random.default_rng(123)) == a

    def test_draws_pinned(self):
        # states drawn in turn by one decoder: the same-bound runs of draws
        # (columns, dvec, cross bits) are one batch of raw words each, a
        # single draw stays scalar and bounds above 2^62 (n = 63, 70) take
        # the byte path; the stream must be what one draw at a time gives
        rng = np.random.default_rng(20261018)
        draws = RawDraws(rng.bit_generator.random_raw)
        pinned = [(1, [1, 1, 1, 1], "f92e79342ab6bf9c"),
                  (2, [2, 1, 1, 1], "d0f9265046878a06"),
                  (6, [6, 4, 6, 5], "8e7b1e935ee4a3d1"),
                  (12, [11, 11, 10, 11], "dc56ff0c9eb9ccec"),
                  (24, [24, 23, 23, 24], "aa05d10afb1eba30"),
                  (63, [63, 63, 63, 62], "28758605d1bddf11"),
                  (70, [70, 70, 68, 67], "bcbc797198f3cd22")]
        for n, dims, digest in pinned:
            states = [random_stabilizer_state(n, draws) for _ in range(4)]
            text = "".join(repr((s.n, s.basis, s.shift, s.bmat, s.dvec, s.c,
                                 s.scale)) for s in states)
            assert [s.m for s in states] == dims, n
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, n
        # a bound above 2^32 takes a whole word: the one after the states
        assert int(rng.integers(0, 2 ** 62)) == 473211817149858612
        draws = _draws(5)
        assert random_stabilizer_state(2, draws) == StabilizerState(
            2, (3, 1), 2, (2, 1), (4, 2), 0, ExactAmplitude(1, 0, 0, 0, 2))
        assert random_stabilizer_state(2, draws) == StabilizerState(
            2, (), 1, (), (), 0, ONE)

    def test_states_are_normalized(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_stabilizer_state(int(rng.integers(1, 7)), rng)
            assert inner_product(s, s) == ONE

    def test_refuses_other_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(ValueError, match="MT19937"):
            random_stabilizer_state(2, rng)


class TestNumpyStream:
    """The decoded draws and the sampled estimator's stream states against
    numpy itself, so that a numpy release that changes either fails here."""

    BOUNDS = (2, 3, 4, 5, 64, 1000, 2 ** 31 + 11, 2 ** 32, 2 ** 32 + 1,
              2 ** 40 - 3, 2 ** 62)
    BYTE_BOUNDS = (2 ** 62 + 1, 2 ** 63, 2 ** 64 - 59, 2 ** 70)  # byte path
    STATE_NS = (*range(1, 15), 24, 31, 32, 33, 48, 62, 63, 64, 70)

    def _step(self, kind, meta, draws, twin):
        """One call on each stream: decoded by ``draws`` where numpy makes
        it on ``twin``."""
        def pick(seq):
            return seq[int(meta.integers(len(seq)))]

        bound = pick(self.BOUNDS)
        k = int(meta.integers(2, 9))
        bits = bound.bit_length() - 1
        if kind == "scalar":
            return draws.below(bound), int(twin.integers(0, bound))
        if kind == "size-k" and bound == 1 << bits:
            # a power of two never rejects: one exact-count batch
            return (draws.run(bits, k),
                    twin.integers(0, bound, size=k).tolist())
        if kind == "size-k":
            return ([draws.below(bound) for _ in range(k)],
                    twin.integers(0, bound, size=k).tolist())
        if kind == "byte path":
            bound = pick(self.BYTE_BOUNDS)
            return (draws.below(bound),
                    reference_kernel.numpy_randbelow(twin, bound))
        n = pick(self.STATE_NS)
        return (random_stabilizer_state(n, draws),
                reference_kernel.numpy_random_stabilizer_state(n, twin))

    def test_draws_against_a_twin_generator(self):
        # after each step the decoder's stream must stand where numpy's
        # does: the same LCG state and the same buffered half word
        meta = np.random.default_rng(20261019)
        trials = [(3000, ("scalar", "size-k", "byte path"), 4),
                  (400, ("state",), 6)]
        for count, kinds, steps in trials:
            for trial in range(count):
                bg = np.random.PCG64(trial)
                draws = RawDraws(bg.random_raw)
                twin = np.random.default_rng(trial)
                for step in range(steps):
                    kind = kinds[int(meta.integers(len(kinds)))]
                    got, want = self._step(kind, meta, draws, twin)
                    assert got == want, (trial, step, kind)
                    st = twin.bit_generator.state
                    assert bg.state["state"] == st["state"], (trial, step, kind)
                    assert draws.half == (st["uinteger"] if st["has_uint32"]
                                          else None), (trial, step, kind)

    @pytest.mark.parametrize("batch", [1, 7, 16, 64])
    def test_read_ahead_sources(self, monkeypatch, batch):
        # a source that hands over ``batch`` words whatever the decoder asks
        # for, as a stream only the decoder reads may: the values must not
        # depend on how far it reads.  Rank rejections, 32- and 64-bit
        # Lemire rejections (about 1/2 and 1/16 of the draws at these
        # bounds) and byte-path rejections spill past a batch
        ranks = []
        rank_of = gf2.rank_of
        monkeypatch.setattr(gf2, "rank_of",
                            lambda cols: ranks.append(1) or rank_of(cols))
        meta = np.random.default_rng([20261020, batch])
        bounds = (2 ** 31 + 11, 3 * 2 ** 60 + 1, 2 ** 62 + 1)
        states = 0
        for trial in range(40):
            bg = np.random.PCG64(trial)
            draws = RawDraws(lambda k: bg.random_raw(batch))
            twin = np.random.default_rng(trial)
            for step in range(8):
                if step % 2:
                    bound = bounds[int(meta.integers(len(bounds)))]
                    got = draws.below(bound)
                    want = reference_kernel.numpy_randbelow(twin, bound)
                else:
                    n = self.STATE_NS[int(meta.integers(len(self.STATE_NS)))]
                    got = random_stabilizer_state(n, draws)
                    want = reference_kernel.numpy_random_stabilizer_state(
                        n, twin)
                    states += 1
                assert got == want, (trial, step)
            if batch == 1:  # reads no word ahead: numpy's stream position
                assert bg.state["state"] == twin.bit_generator.state["state"]
        # the decoder's rank tests: one per attempt, so rejections happened
        assert len(ranks) > 2 * states

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 1,
                                      2 ** 100])
    def test_sample_stream_states(self, seed):
        # 3329 is L at eps = 0.03, p_f = 0.05; 4096 starts the second block
        streams = list(pcg64_streams(seed, 4097))
        for a in (0, 1, 2, 3328, 4095, 4096):
            want = np.random.PCG64(np.random.SeedSequence([seed, a])).state
            assert streams[a] == want, a


class TestToDense:
    def test_zero_state(self):
        assert np.allclose(StabilizerState.computational(1, 0).to_dense(), [1, 0])

    def test_plus_state(self):
        v = PLUS1.to_dense()
        assert np.allclose(v, [2 ** -0.5, 2 ** -0.5])

    def test_two_point_cat_state(self):
        # support {000000, 111111} with phases zeta^(2u+6)
        s = StabilizerState(6, (0b111111,), 0b111111, (0,), (2,), 6,
                            ExactAmplitude(1, 0, 0, 0, 1))
        v = s.to_dense()
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        assert list(nz) == [0, 63]
        assert v[63] == pytest.approx((2 ** -0.5) * np.exp(1j * np.pi * 6 / 4))
        assert v[0] == pytest.approx(2 ** -0.5)

    def test_guard(self):
        with pytest.raises(ValueError):
            StabilizerState.computational(15, 0).to_dense_exact()
