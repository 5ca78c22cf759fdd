"""GF(2) linear algebra against brute-force enumeration."""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tmagic.gf2 import (from_str, parity, rank_of, revbits, solve_columns,
                        to_str)

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


def points(columns, shift):
    """The affine space {sum_j u_j columns[j] + shift} as a set of points."""
    return {combine(columns, u) ^ shift for u in range(1 << len(columns))}


def random_space(rng, n, m, shift=None):
    """(independent columns, shift) of a random m-dimensional affine space."""
    cols = []
    while len(cols) < m:
        v = int(rng.integers(1, 1 << n))
        if rank_of(cols + [v]) == len(cols) + 1:
            cols.append(v)
    h = int(rng.integers(0, 1 << n)) if shift is None else shift
    return cols, h


def member_witness(columns, shift, x, n):
    """u with sum_j u_j columns[j] + shift = x from solve_columns, or None."""
    sol = solve_columns(columns, x ^ shift, n)
    return None if sol is None else sol[0]


def intersect(a, b, n):
    """The points of a & b from one solve_columns call on both bases."""
    (ca, ha), (cb, hb) = a, b
    sol = solve_columns(ca + cb, ha ^ hb, n)
    if sol is None:
        return set()
    part, null = sol
    return points([combine(ca, w) for w in null], combine(ca, part) ^ ha)


def dual(columns, n):
    """The xi with xi . g = 0 for every column g: the null space of G^T."""
    rows_of_g = [sum(((g >> i) & 1) << j for j, g in enumerate(columns))
                 for i in range(n)]
    return solve_columns(rows_of_g, 0, len(columns))[1]


SIX_QUBIT_COLUMNS = [from_str("110000"), from_str("101000"), from_str("100100"),
                     from_str("100010"), from_str("100001")]


class TestGaussEliminate:
    """Elimination through its readings: rank_of and solve_columns."""

    def test_zero_matrix(self):
        assert rank_of([0, 0, 0]) == 0

    def test_identity(self):
        assert rank_of([1 << i for i in range(5)]) == 5

    def test_six_qubit_direction_matrix(self):
        # rows (1,1,0,0,0,0) ... (1,0,0,0,0,1): rank 5
        assert rank_of(SIX_QUBIT_COLUMNS) == 5

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
    """Membership of an affine space is a solve_columns call."""

    def test_full_space(self):
        for x in range(16):
            assert member_witness([1 << i for i in range(4)], 0, x, 4) is not None

    def test_single_point(self):
        assert member_witness([], 0b101, 0b101, 3) == 0
        assert member_witness([], 0b101, 0b001, 3) is None

    def test_six_qubit_space_with_shift(self):
        shift = from_str("100000")
        pts = points(SIX_QUBIT_COLUMNS, shift)
        # brute force over all 2^5 parameter values
        assert len(pts) == 32
        assert from_str("100000") in pts
        assert from_str("000001") in pts  # reachable via column 5 + shift
        for x in range(64):
            w = member_witness(SIX_QUBIT_COLUMNS, shift, x, 6)
            assert (w is not None) == (x in pts)

    def test_witness_reconstructs_point(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            cols, h = random_space(rng, n, int(rng.integers(0, n + 1)))
            x = sorted(points(cols, h))[int(rng.integers(0, 1 << len(cols)))]
            w = member_witness(cols, h, x, n)
            assert combine(cols, w) ^ h == x


class TestAffineIntersection:
    def test_self_intersection(self):
        a = ([0b0011, 0b0101], 0b1000)
        assert intersect(a, a, 4) == points(*a)

    def test_disjoint_hyperplanes(self):
        assert intersect(([], 0), ([], 1), 1) == set()

    def test_exhaustive_cross_check(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a, b = (random_space(rng, n, int(rng.integers(0, n + 1)))
                    for _ in range(2))
            assert intersect(a, b, n) == points(*a) & points(*b)


class TestDualBasis:
    """The null space of G^T from solve_columns annihilates the space."""

    def test_full_space_has_empty_dual(self):
        assert dual([1 << i for i in range(3)], 3) == []

    def test_point_has_full_dual(self):
        d = dual([], 3)
        assert len(d) == 3
        assert rank_of(d) == 3

    def test_six_qubit_dual(self):
        shift = from_str("100000")
        d = dual(SIX_QUBIT_COLUMNS, 6)
        assert len(d) == 1
        for x in points(SIX_QUBIT_COLUMNS, shift):
            assert parity(d[0] & (x ^ shift)) == 0

    def test_random_duals_annihilate(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, n + 1))
            cols, _ = random_space(rng, n, m, shift=0)
            d = dual(cols, n)
            assert len(d) == n - m
            for xi in d:
                for g in cols:
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
