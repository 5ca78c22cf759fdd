"""Pauli operators in the per-qubit indicator-bit parameterization.

A Pauli is a product over qubits of exactly one of I, Z, X, Y, with a global
fourth-root-of-unity phase omega = i**omega_exp.  Qubit q lives in bit q of
the beta/gamma/delta masks (beta: Z sites, gamma: X sites, delta: Y sites).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .gf2 import parity
from .value import Value

if TYPE_CHECKING:
    import numpy as np

_PHASE_TOKENS = {"+1": 0, "1": 0, "+i": 1, "i": 1, "-1": 2, "-i": 3}
_PHASE_STRS = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}


class PauliOperator(Value):
    """n-qubit Pauli: omega * prod_q {I,Z,X,Y}_q with omega = i**omega_exp.

    Treated as immutable and compared by value; ``omega_exp`` is stored
    mod 4."""

    __slots__ = _fields = ("n", "beta", "gamma", "delta", "omega_exp")

    def __init__(self, n: int, beta: int = 0, gamma: int = 0, delta: int = 0,
                 omega_exp: int = 0) -> None:
        mask = (1 << n) - 1
        if (beta | gamma | delta) & ~mask:
            raise ValueError("site mask exceeds qubit count")
        if (beta & gamma) or (beta & delta) or (gamma & delta):
            raise ValueError("each qubit must carry exactly one of I, Z, X, Y")
        self.n = n
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.omega_exp = omega_exp % 4

    # -- site queries ---------------------------------------------------

    def letter(self, q: int) -> str:
        if (self.beta >> q) & 1:
            return "Z"
        if (self.gamma >> q) & 1:
            return "X"
        if (self.delta >> q) & 1:
            return "Y"
        return "I"

    def site_bits(self, q: int) -> tuple[int, int, int, int]:
        """(alpha, beta, gamma, delta) indicator bits for qubit q."""
        b = (self.beta >> q) & 1
        g = (self.gamma >> q) & 1
        d = (self.delta >> q) & 1
        return (1 - b - g - d, b, g, d)

    @property
    def x_mask(self) -> int:
        """Qubits whose basis bit is flipped (X and Y sites)."""
        return self.gamma | self.delta

    @property
    def z_mask(self) -> int:
        """Qubits contributing (-1)^x eigenphases (Z and Y sites)."""
        return self.beta | self.delta

    # -- text format ------------------------------------------------------

    def __str__(self) -> str:
        body = "".join(self.letter(q) for q in range(self.n))
        if self.omega_exp:
            return f"{_PHASE_STRS[self.omega_exp]}:{body}"
        return body

    @staticmethod
    def from_str(s: str, start: int = 0) -> "PauliOperator":
        """'XYZI', or with a phase token '-1:XX'.  A ValueError names the
        bad character's position in s plus ``start``, the position of s in
        a text it was cut from."""
        omega = 0
        body = s
        if ":" in s:
            tok, body = s.split(":", 1)
            if tok not in _PHASE_TOKENS:
                raise ValueError(f"unknown phase token {tok!r} at position {start}")
            omega = _PHASE_TOKENS[tok]
            start += len(tok) + 1
        beta = gamma = delta = 0
        for q, ch in enumerate(body):
            if ch == "Z":
                beta |= 1 << q
            elif ch == "X":
                gamma |= 1 << q
            elif ch == "Y":
                delta |= 1 << q
            elif ch != "I":
                raise ValueError(f"invalid Pauli letter {ch!r} at position {start + q}")
        return PauliOperator(len(body), beta, gamma, delta, omega)


def letters_to_pauli(letters: Sequence[int]) -> PauliOperator:
    """Letters 0/1/2/3 = I/Z/X/Y to a phase-free PauliOperator."""
    beta = gamma = delta = 0
    for q, v in enumerate(letters):
        v = int(v)
        if v == 1:
            beta |= 1 << q
        elif v == 2:
            gamma |= 1 << q
        elif v == 3:
            delta |= 1 << q
    return PauliOperator(len(letters), beta, gamma, delta, 0)


def random_pauli(n: int, rng: np.random.Generator) -> PauliOperator:
    """Uniform over the 4**n phase-free Paulis."""
    return letters_to_pauli(rng.integers(0, 4, size=n))


def commute(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the symplectic form of the (x, z) masks vanishes mod 2."""
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    return parity(p.x_mask & q.z_mask) == parity(p.z_mask & q.x_mask)


class PauliProjector(Value):
    """Product of commuting projector factors (I + sign_i * P_i)/2.

    Treated as immutable and compared by value."""

    __slots__ = _fields = ("n", "factors")

    def __init__(self, n: int,
                 factors: tuple[tuple[PauliOperator, int], ...] = ()) -> None:
        ops = [p for p, _ in factors]
        for p in ops:
            if p.n != n:
                raise ValueError("factor qubit count mismatch")
            if p.omega_exp % 2:
                raise ValueError("projector factors must be Hermitian (phase +-1)")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not commute(ops[i], ops[j]):
                    raise ValueError(f"projector factors {i + 1} and {j + 1} "
                                     "do not commute")
        for _, s in factors:
            if s not in (1, -1):
                raise ValueError("projector signs must be +1 or -1")
        self.n = n
        self.factors = factors

    @staticmethod
    def single(p: PauliOperator, sign: int = 1) -> "PauliProjector":
        return PauliProjector(p.n, ((p, sign),))

    def __str__(self) -> str:
        return " ".join(("+" if s > 0 else "-") + str(p) for p, s in self.factors)
