"""Exact arithmetic in the ring Z[i, sqrt(2)] scaled by powers of 1/sqrt(2).

Every amplitude, phase and decomposition coefficient in this package is a
value of the form

    (a + b*sqrt(2) + (c + d*sqrt(2))*i) / sqrt(2)**e

with integer a, b, c, d and e >= 0.  The ring contains all eighth roots of
unity (e.g. exp(i*pi/4) = (1 + i)/sqrt(2)), so equality of amplitudes is an
integer comparison instead of a floating-point tolerance.
"""

from __future__ import annotations

import math

from .value import Value

_SQRT2 = math.sqrt(2.0)


class ExactAmplitude(Value):
    """Element of Z[i, sqrt2] / sqrt2^e in canonical (minimal e) form.

    Value represented: ``(a + b*sqrt2 + (c + d*sqrt2)*1j) / sqrt2**e``.
    Instances are treated as immutable (nothing assigns to their slots, and
    they are hashed by value); arithmetic returns new canonical values.
    """

    __slots__ = _fields = ("a", "b", "c", "d", "e")

    def __init__(self, a: int = 0, b: int = 0, c: int = 0, d: int = 0,
                 e: int = 0) -> None:
        if e < 0:
            raise ValueError("denominator exponent must be non-negative")
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.e = e

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "ExactAmplitude") -> "ExactAmplitude":
        x, y = self, other
        if x.e < y.e:
            x, y = y, x
        # lift y to denominator sqrt2^x.e by multiplying by sqrt2^(x.e - y.e)
        a, b, c, d = y.a, y.b, y.c, y.d
        for _ in range(x.e - y.e):
            a, b, c, d = 2 * b, a, 2 * d, c
        return canonical(x.a + a, x.b + b, x.c + c, x.d + d, x.e)

    def __neg__(self) -> "ExactAmplitude":
        return ExactAmplitude(-self.a, -self.b, -self.c, -self.d, self.e)

    def __mul__(self, other: "ExactAmplitude") -> "ExactAmplitude":
        # (A1 + B1 i)(A2 + B2 i) with A, B in Z[sqrt2]
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        # real part: A1*A2 - B1*B2
        ra = a1 * a2 + 2 * b1 * b2 - (c1 * c2 + 2 * d1 * d2)
        rb = a1 * b2 + b1 * a2 - (c1 * d2 + d1 * c2)
        # imag part: A1*B2 + B1*A2
        ia = a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2
        ib = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return canonical(ra, rb, ia, ib, self.e + other.e)

    def conj(self) -> "ExactAmplitude":
        return ExactAmplitude(self.a, self.b, -self.c, -self.d, self.e)

    def scale_int(self, k: int) -> "ExactAmplitude":
        return canonical(k * self.a, k * self.b, k * self.c, k * self.d, self.e)

    # -- predicates and output ----------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_real(self) -> bool:
        return self.c == 0 and self.d == 0

    def to_float(self) -> complex:
        """Numeric value; only for output and oracle-comparison boundaries."""
        scale = _SQRT2 ** self.e
        return complex((self.a + self.b * _SQRT2) / scale,
                       (self.c + self.d * _SQRT2) / scale)

    def real_float(self) -> float:
        return self.to_float().real

    def __str__(self) -> str:
        return f"(({self.a} + {self.b}*sqrt2) + ({self.c} + {self.d}*sqrt2)i) / sqrt2^{self.e}"


def canonical(a: int, b: int, c: int, d: int, e: int) -> ExactAmplitude:
    """Reduce the denominator exponent as far as the numerator allows."""
    if a == 0 and b == 0 and c == 0 and d == 0:
        return ExactAmplitude(0, 0, 0, 0, 0)
    while e > 0 and a % 2 == 0 and c % 2 == 0:
        a, b, c, d, e = b, a // 2, d, c // 2, e - 1
    return ExactAmplitude(a, b, c, d, e)


ZERO = ExactAmplitude()
ONE = ExactAmplitude(1)
SQRT2, INV_SQRT2 = ExactAmplitude(0, 1), ExactAmplitude(1, 0, 0, 0, 1)


# zeta^p = (x + y*i) / sqrt2^e for p = 0..7, as (x, y, e)
_ROOTS = ((1, 0, 0), (1, 1, 1), (0, 1, 0), (-1, 1, 1),
          (-1, 0, 0), (-1, -1, 1), (0, -1, 0), (1, -1, 1))


def eighth_root(k: int) -> ExactAmplitude:
    """exp(i*pi*k/4) as an ExactAmplitude."""
    x, y, e = _ROOTS[k % 8]
    return ExactAmplitude(x, 0, y, 0, e)


def sqrt2_root(k: int, p: int) -> ExactAmplitude:
    """sqrt(2)**k * exp(i*pi*p/4) in canonical form, for k >= 0.

    This is the value of every non-vanishing stabilizer exponential sum,
    built directly from its two exponents instead of by ring products.
    """
    x, y, e = _ROOTS[p % 8]
    k -= e
    if k < 0:
        return ExactAmplitude(x, 0, y, 0, 1)
    h = 1 << (k >> 1)
    if k & 1:
        return ExactAmplitude(0, x * h, 0, y * h, 0)
    return ExactAmplitude(x * h, 0, y * h, 0, 0)
