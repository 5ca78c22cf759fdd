"""GF(2) linear algebra against brute-force enumeration."""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tmagic.gf2 import (AffineSpace, from_str, parity, rank_of, revbits,
                        solve_columns, to_str)

import reference_kernel


def brute_rank(rows, cols):
    seen = {0}
    basis = []
    for r in rows:
        span = set()
        for combo in itertools.product([0, 1], repeat=len(basis)):
            v = 0
            for c, b in zip(combo, basis):
                if c:
                    v ^= b
            span.add(v)
        if r not in span:
            basis.append(r)
    return len(basis)


def combine(columns, u):
    """sum_j u_j columns[j] over GF(2)."""
    v = 0
    for j, c in enumerate(columns):
        if (u >> j) & 1:
            v ^= c
    return v


def brute_solutions(columns, rhs):
    return [u for u in range(1 << len(columns)) if combine(columns, u) == rhs]


def random_space(rng, n, m, shift=None):
    cols = []
    while len(cols) < m:
        v = int(rng.integers(1, 1 << n))
        if rank_of(cols + [v]) == len(cols) + 1:
            cols.append(v)
    h = int(rng.integers(0, 1 << n)) if shift is None else shift
    return AffineSpace.create(n, cols, h)


def intersect(a, b):
    """a & b from one solve_columns call on both bases, or None if empty."""
    sol = solve_columns(list(a.basis) + list(b.basis), a.shift ^ b.shift, a.n)
    if sol is None:
        return None
    part, null = sol
    dirs = [combine(a.basis, w) for w in null]
    return AffineSpace.create(a.n, [d for d in dirs if d],
                              combine(a.basis, part) ^ a.shift)


def dual(space):
    """The xi with xi . g = 0 for every basis g: the null space of G^T."""
    rows_of_g = [sum(((g >> i) & 1) << j for j, g in enumerate(space.basis))
                 for i in range(space.n)]
    return solve_columns(rows_of_g, 0, space.dim)[1]


class TestGaussEliminate:
    """Elimination through its readings: rank_of and solve_columns."""

    def test_zero_matrix(self):
        assert rank_of([0, 0, 0]) == 0

    def test_identity(self):
        assert rank_of([1 << i for i in range(5)]) == 5

    def test_six_qubit_direction_matrix(self):
        # rows (1,1,0,0,0,0) ... (1,0,0,0,0,1): rank 5
        rows = [from_str("110000"), from_str("101000"), from_str("100100"),
                from_str("100010"), from_str("100001")]
        assert rank_of(rows) == 5
        assert AffineSpace.create(6, rows, 0).dim == 5

    def test_transform_reproduces_echelon(self):
        # every relation found by the elimination combines the rows to 0,
        # and there are as many as rows minus rank
        rng = np.random.default_rng(0)
        for _ in range(50):
            r, c = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            rows = [int(rng.integers(0, 1 << c)) for _ in range(r)]
            _, relations = solve_columns(rows, 0, c)
            assert len(relations) == r - brute_rank(rows, c)
            for u in relations:
                assert combine(rows, u) == 0

    def test_rank_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            rows = [int(rng.integers(0, 1 << c)) for _ in range(r)]
            assert rank_of(rows) == brute_rank(rows, c)


class TestAffineMembership:
    def test_full_space(self):
        a = AffineSpace.full(4)
        for x in range(16):
            assert a.member_witness(x) is not None

    def test_single_point(self):
        a = AffineSpace.point(3, 0b101)
        assert a.contains(0b101)
        assert not a.contains(0b001)

    def test_six_qubit_space_with_shift(self):
        cols = [from_str("110000"), from_str("101000"), from_str("100100"),
                from_str("100010"), from_str("100001")]
        a = AffineSpace.create(6, cols, from_str("100000"))
        pts = set(a.points())
        # brute force over all 2^5 parameter values
        assert len(pts) == 32
        assert from_str("100000") in pts
        assert from_str("000001") in pts  # reachable via column 5 + shift
        for x in range(64):
            w = a.member_witness(x)
            assert (w is not None) == (x in pts)

    def test_witness_reconstructs_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a = random_space(rng, n, int(rng.integers(0, n + 1)))
            x = list(a.points())[int(rng.integers(0, 1 << a.dim))]
            w = a.member_witness(x)
            assert combine(a.basis, w) ^ a.shift == x


class TestAffineIntersection:
    def test_self_intersection(self):
        a = AffineSpace.create(4, [0b0011, 0b0101], 0b1000)
        assert intersect(a, a) == a

    def test_disjoint_hyperplanes(self):
        a = AffineSpace.point(1, 0)
        b = AffineSpace.point(1, 1)
        assert intersect(a, b) is None

    def test_exhaustive_cross_check(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a, b = (random_space(rng, n, int(rng.integers(0, n + 1)))
                    for _ in range(2))
            inter = intersect(a, b)
            want = set(a.points()) & set(b.points())
            if inter is None:
                assert not want
            else:
                assert set(inter.points()) == want


class TestDualBasis:
    """The null space of G^T from solve_columns annihilates the space."""

    def test_full_space_has_empty_dual(self):
        assert dual(AffineSpace.full(3)) == []

    def test_point_has_full_dual(self):
        d = dual(AffineSpace.point(3, 0b010))
        assert len(d) == 3
        assert rank_of(d) == 3

    def test_six_qubit_dual(self):
        cols = [from_str("110000"), from_str("101000"), from_str("100100"),
                from_str("100010"), from_str("100001")]
        a = AffineSpace.create(6, cols, from_str("100000"))
        d = dual(a)
        assert len(d) == 1
        for x in a.points():
            assert parity(d[0] & (x ^ a.shift)) == 0

    def test_random_duals_annihilate(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, n + 1))
            a = random_space(rng, n, m, shift=0)
            d = dual(a)
            assert len(d) == n - m
            for xi in d:
                for g in a.basis:
                    assert parity(xi & g) == 0
            assert rank_of(d) == n - m


def test_solve_columns_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 7))
        cols = [int(rng.integers(0, 1 << n)) for _ in range(m)]
        rhs = int(rng.integers(0, 1 << n))
        sol = solve_columns(cols, rhs, n)
        sols = brute_solutions(cols, rhs)
        if sol is None:
            assert not sols
        else:
            part, null = sol
            assert part in sols
            assert len(sols) == 1 << len(null)
            for w in null:
                assert (part ^ w) in sols


@st.composite
def linear_systems(draw):
    """(columns, rhs, n), biased towards repeats, zeros and consistency."""
    n = draw(st.integers(min_value=0, max_value=6))
    vec = st.integers(min_value=0, max_value=(1 << n) - 1)
    cols = draw(st.lists(vec, max_size=7))
    if cols and draw(st.booleans()):
        cols.append(draw(st.sampled_from(cols)))  # repeated column
    rhs = draw(st.one_of(st.just(0), vec,
                         st.integers(0, (1 << len(cols)) - 1).map(
                             lambda u: combine(cols, u))))
    return cols, rhs, n


@settings(max_examples=400, deadline=None)
@given(linear_systems())
@example(([], 0, 3))               # m = 0, consistent
@example(([], 0b101, 3))           # m = 0, inconsistent
@example(([0b11, 0b11], 0, 2))     # repeated column, rhs = 0
@example(([0b01, 0b01], 0b10, 2))  # repeated column, inconsistent
@example(([0, 0b10, 0], 0b10, 2))  # zero columns
def test_solve_columns_property(system):
    cols, rhs, n = system
    sol = solve_columns(cols, rhs, n)
    sols = brute_solutions(cols, rhs)
    assert sol == reference_kernel.solve_columns(cols, rhs, n)
    if sol is None:
        assert not sols
        return
    part, null = sol
    assert part in sols
    # the null basis spans exactly the differences of solutions
    span = {combine(null, u) for u in range(1 << len(null))}
    assert len(span) == 1 << len(null)
    assert {part ^ w for w in span} == set(sols)


def test_bit_helpers():
    assert to_str(0b0011, 4) == "1100"
    assert from_str("1100") == 0b0011
    assert revbits(0b001, 3) == 0b100
    assert parity(0b1010) == 0
    assert parity(0b1011) == 1
