"""Pauli algebra: basis action, commutation, parsing, dense equivalence."""

import itertools

import numpy as np
import pytest

from tmagic.dense import apply_pauli, dense_projector_expect
from tmagic.pauli import PauliOperator, PauliProjector, commute, random_pauli

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_matrix(p: PauliOperator) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for q in range(p.n):
        m = np.kron(m, MATS[p.letter(q)])
    return (1j) ** p.omega_exp * m


def basis_vector(n: int, index: int) -> np.ndarray:
    """|index> in the dense convention (qubit 0 is the most significant bit)."""
    e = np.zeros(1 << n, dtype=complex)
    e[index] = 1
    return e


def matrix_from_basis_action(p: PauliOperator) -> np.ndarray:
    """Column x is P|x>, as the dense oracle applies it."""
    return np.column_stack([apply_pauli(basis_vector(p.n, x), p)
                            for x in range(1 << p.n)])


class TestPauliOnBasis:
    def test_x_flips(self):
        out = apply_pauli(basis_vector(1, 0), PauliOperator.from_str("X"))
        assert np.array_equal(out, basis_vector(1, 1))

    def test_z_eigenphase(self):
        out = apply_pauli(basis_vector(1, 1), PauliOperator.from_str("Z"))
        assert np.array_equal(out, -basis_vector(1, 1))

    def test_yz_on_01(self):
        # Y x Z acting on |01>: phase i * (-1) = -i, lands on |11>
        p = PauliOperator.from_str("YZ")
        out = apply_pauli(basis_vector(2, 0b01), p)  # qubit0=0, qubit1=1
        assert np.array_equal(out, -1j * basis_vector(2, 0b11))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_matrix_equals_kronecker(self, n):
        for letters in itertools.product("IZXY", repeat=n):
            p = PauliOperator.from_str("".join(letters))
            assert np.array_equal(matrix_from_basis_action(p), kron_matrix(p))

    def test_squares_to_omega_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            p = PauliOperator(n, *_random_masks(rng, n), int(rng.integers(0, 4)))
            for x in range(1 << n):
                e = basis_vector(n, x)
                once = apply_pauli(e, p)
                (support,) = np.nonzero(once)
                assert len(support) == 1
                assert once[support[0]] in (1, -1, 1j, -1j)
                # (i^w)^2 = (-1)^w
                assert np.array_equal(apply_pauli(once, p), (-1) ** p.omega_exp * e)


def _random_masks(rng, n):
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


class TestCommute:
    def test_same_pauli(self):
        assert commute(PauliOperator.from_str("X"), PauliOperator.from_str("X"))

    def test_x_z_anticommute(self):
        assert not commute(PauliOperator.from_str("X"), PauliOperator.from_str("Z"))

    def test_xx_zz_commute(self):
        assert commute(PauliOperator.from_str("XX"), PauliOperator.from_str("ZZ"))

    def test_against_dense_commutator(self):
        for la in itertools.product("IZXY", repeat=2):
            for lb in itertools.product("IZXY", repeat=2):
                pa = PauliOperator.from_str("".join(la))
                pb = PauliOperator.from_str("".join(lb))
                ma, mb = kron_matrix(pa), kron_matrix(pb)
                dense_commutes = np.allclose(ma @ mb, mb @ ma)
                assert commute(pa, pb) == dense_commutes


class TestRandomPauli:
    def test_single_qubit_uniform(self):
        rng = np.random.default_rng(42)
        n_draws = 100_000
        counts = {s: 0 for s in "IZXY"}
        for _ in range(n_draws):
            counts[random_pauli(1, rng).letter(0)] += 1
        expect = n_draws / 4
        sigma = (n_draws * 0.25 * 0.75) ** 0.5
        for v in counts.values():
            assert abs(v - expect) < 4 * sigma

    def test_reproducible(self):
        a = random_pauli(5, np.random.default_rng(7))
        b = random_pauli(5, np.random.default_rng(7))
        assert a == b

    def test_all_64_three_qubit_paulis_seen(self):
        rng = np.random.default_rng(1)
        seen = {str(random_pauli(3, rng)) for _ in range(10_000)}
        assert len(seen) == 64


class TestText:
    def test_roundtrip(self):
        for s in ("XYZI", "-i:XYZI", "-1:ZZ", "+i:Y"):
            p = PauliOperator.from_str(s)
            assert PauliOperator.from_str(str(p)) == p

    def test_invalid_letter_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            PauliOperator.from_str("XYQZ")

    def test_invalid_phase_token(self):
        with pytest.raises(ValueError, match="phase token"):
            PauliOperator.from_str("j:XX")

    def test_positions_count_the_phase_token_and_start(self):
        # a position is one in s, plus where s starts in a longer text
        with pytest.raises(ValueError, match="'Q' at position 4$"):
            PauliOperator.from_str("-1:XQ")
        with pytest.raises(ValueError, match="'Q' at position 5$"):
            PauliOperator.from_str("-1:XQ", start=1)
        with pytest.raises(ValueError, match="'j' at position 3$"):
            PauliOperator.from_str("j:XX", start=3)


class TestProjector:
    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError, match="do not commute"):
            PauliProjector(2, ((PauliOperator.from_str("XI"), 1),
                               (PauliOperator.from_str("ZI"), 1)))

    def test_accepts_more_factors_than_qubits(self):
        # a repeated factor is still one projector: ((I + Z)/2)^2 = (I + Z)/2
        p = PauliOperator.from_str("Z")
        proj = PauliProjector(1, ((p, 1), (p, 1)))
        assert proj.factors == ((p, 1), (p, 1))
        assert dense_projector_expect(np.array([1, 0], dtype=complex), proj) == 1
        assert dense_projector_expect(np.array([0, 1], dtype=complex), proj) == 0

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="signs"):
            PauliProjector(1, ((PauliOperator.from_str("Z"), 2),))

    def test_rejects_non_hermitian_factor(self):
        with pytest.raises(ValueError, match="Hermitian"):
            PauliProjector(1, ((PauliOperator.from_str("+i:Z"), 1),))
