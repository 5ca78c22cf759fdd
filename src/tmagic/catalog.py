"""Exact stabilizer decompositions of tensored T-gate magic states.

The catalog holds the minimal known decompositions at T-counts 1, 2, 3, 6
and 12 (2, 2, 3, 7 and 47 terms), plus tensor composition, zero-padding and
the tensor over the greedy block cover (``tmagic.blocks``, which also holds
the term-count table) for arbitrary T-counts.  Coefficients and phase data
are pinned by one requirement: each entry must reconstruct its dense
Kronecker target in exact ring arithmetic, which the test suite enforces
amplitude by amplitude.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence, TextIO

from .blocks import DEFAULT_POLICY, block_cover
from .phase_ring import INV_SQRT2, SQRT2, ExactAmplitude, ZERO, eighth_root
from .stabilizer import StabilizerState
from .gf2 import from_str, rank_of, to_str


class MagicDecomposition:
    """|T>^{otimes k} = sum_j coeff_j |state_j> with exact coefficients.

    Treated as immutable and compared by value."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int,
                 terms: tuple[tuple[ExactAmplitude, StabilizerState], ...]
                 ) -> None:
        self.k = k
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MagicDecomposition:
            return NotImplemented
        return (self.k, self.terms) == (other.k, other.terms)

    def __hash__(self) -> int:
        return hash((self.k, self.terms))

    def __repr__(self) -> str:
        return f"MagicDecomposition(k={self.k!r}, terms={self.terms!r})"

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def n(self) -> int:
        return self.terms[0][1].n if self.terms else self.k

    def reconstruct_dense_exact(self) -> list[ExactAmplitude]:
        vec = [ZERO] * (1 << self.n)
        for coeff, state in self.terms:
            for idx, amp in enumerate(state.to_dense_exact()):
                if not amp.is_zero():
                    vec[idx] = vec[idx] + coeff * amp
        return vec


# ---------------------------------------------------------------------------
# small T-counts
# ---------------------------------------------------------------------------

def t1_decomposition() -> MagicDecomposition:
    """|T> = (|0> + zeta |1>)/sqrt2 as two computational-basis terms."""
    return MagicDecomposition(1, (
        (INV_SQRT2, StabilizerState.computational(1, 0)),
        (INV_SQRT2 * eighth_root(1), StabilizerState.computational(1, 1)),
    ))


def t2_decomposition() -> MagicDecomposition:
    """|T>^2 = (|phi1> + zeta |phi2>)/sqrt2 with the two-qubit pair states."""
    phi1 = StabilizerState(2, (0b11,), 0, (0,), (2,), 0, INV_SQRT2)
    phi2 = StabilizerState(2, (0b11,), 0b01, (0,), (0,), 0, INV_SQRT2)
    return MagicDecomposition(2, (
        (INV_SQRT2, phi1),
        (INV_SQRT2 * eighth_root(1), phi2),
    ))


def t3_decomposition() -> MagicDecomposition:
    """Three-term decomposition saturating the T-count-3 stabilizer rank."""
    quarter = ExactAmplitude(1, 0, 0, 0, 4)
    one_m_i = ExactAmplitude(1, 0, -1, 0, 0)
    one_p_i = ExactAmplitude(1, 0, 1, 0, 0)
    c1 = -(one_m_i * ExactAmplitude(-1, 1, -1, 0, 0) * quarter * eighth_root(7))
    c2 = -(one_p_i * ExactAmplitude(1, 1, -1, 0, 0) * quarter * eighth_root(1))
    c3 = -(one_p_i * ExactAmplitude(-1, 1, 1, 0, 0) * quarter * eighth_root(1))
    # psi1 = (|011> + i|100>)/sqrt2  (leftmost character = qubit 0)
    psi1 = StabilizerState(3, (0b111,), from_str("011"), (0,), (2,), 0, INV_SQRT2)
    scale8 = ExactAmplitude(1, 0, 0, 0, 3)
    cube = (1, 2, 4)
    # psi2: i^(1 + x2 + x3) pattern on the full cube
    psi2 = StabilizerState(3, cube, 0, (0, 0, 0), (0, 2, 2), 2, scale8)
    # psi3: full cube with all three (-1)^{x_a x_b} couplings
    psi3 = StabilizerState(3, cube, 0, (0b110, 0b101, 0b011),
                           (0, 6, 6), 2, scale8)
    return MagicDecomposition(3, ((c1, psi1), (c2, psi2), (c3, psi3)))


# ---------------------------------------------------------------------------
# six- and twelve-qubit entries
# ---------------------------------------------------------------------------

def _complete_graph(m: int) -> tuple[int, ...]:
    full = (1 << m) - 1
    return tuple(full & ~(1 << a) for a in range(m))


def _pairs_to_bmat(m: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    rows = [0] * m
    for a, b in pairs:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


_ZETA3 = eighth_root(3)


def _t6_states() -> dict[str, StabilizerState]:
    """The seven states: two full-cube states, four half-cube quadratic-form
    states on span{e0+e_i}, and one two-point cat-like state.  The states
    of one column set share one basis tuple, as every catalog entry's do."""
    cube = tuple(1 << q for q in range(6))
    cols = tuple(1 | (1 << i) for i in range(1, 6))  # column i = e0 + e_i
    s32 = ExactAmplitude(1, 0, 0, 0, 5)              # 2^{-5/2}
    kgraph = _complete_graph(5)
    zero5 = (0,) * 5
    four5 = (4,) * 5
    return {
        "b60": StabilizerState(6, cube, 0, (0,) * 6, (0,) * 6, 0,
                               ExactAmplitude(1, 0, 0, 0, 6)),
        "b66": StabilizerState(6, cube, 0, (0,) * 6, (4,) * 6, 4,
                               ExactAmplitude(1, 0, 0, 0, 6)),
        "e6": StabilizerState(6, cols, 1, kgraph, zero5, 4, s32),
        "o6": StabilizerState(6, cols, 0, kgraph, four5, 4, s32),
        "k6": StabilizerState(6, (0b111111,), 0b111111, (0,), (2,), 6, INV_SQRT2),
        "phi1": StabilizerState(6, cols, 1, _pairs_to_bmat(
            5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]), zero5, 0, s32),
        "phi2": StabilizerState(6, cols, 1, _pairs_to_bmat(
            5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]), zero5, 0, s32),
    }


def _t6_coefficients() -> dict[str, ExactAmplitude]:
    # the unique solution of sum_j c_j |state_j> = |T>^{x6}; the states are
    # linearly independent, so exact dense reconstruction pins every value
    return {
        "b60": ExactAmplitude(1, 1, 0, 0, 4) * _ZETA3,
        "b66": ExactAmplitude(-1, 1, 0, 0, 4) * eighth_root(7),
        "e6": ExactAmplitude(1, 0, 0, 0, 3) * _ZETA3,
        "o6": ExactAmplitude(1, 0, 0, 0, 2) * eighth_root(1),
        "k6": ExactAmplitude(1, 0, 0, 0, 3),
        "phi1": ExactAmplitude(1, 0, 0, 0, 3) * eighth_root(1),
        "phi2": ExactAmplitude(1, 0, 0, 0, 3) * eighth_root(1),
    }


_T6_ORDER = ("b60", "b66", "e6", "o6", "k6", "phi1", "phi2")


def t6_decomposition() -> MagicDecomposition:
    states = _t6_states()
    coeffs = _t6_coefficients()
    return MagicDecomposition(6, tuple(
        (coeffs[name], states[name]) for name in _T6_ORDER))


def _tensor_states(a: StabilizerState, b: StabilizerState,
                   bases: dict) -> StabilizerState:
    """a (x) b, whose basis tuple is shared (through ``bases``) by every
    product state built on the same columns, so that ``gram_entries``'
    basis checks are identity hits."""
    na = a.n
    basis = a.basis + tuple(col << na for col in b.basis)
    basis = bases.setdefault(basis, basis)
    ma = a.m
    bmat = a.bmat + tuple(row << ma for row in b.bmat)
    return StabilizerState(na + b.n, basis, a.shift | (b.shift << na),
                           bmat, a.dvec + b.dvec, (a.c + b.c) % 8,
                           a.scale * b.scale)


def tensor(a: MagicDecomposition, b: MagicDecomposition) -> MagicDecomposition:
    bases: dict = {}
    terms = tuple((ca * cb, _tensor_states(sa, sb, bases))
                  for ca, sa in a.terms for cb, sb in b.terms)
    return MagicDecomposition(a.k + b.k, terms)


def _t12_merge_states() -> tuple[StabilizerState, StabilizerState]:
    # 11 direction columns: col i = e0 + e_{i+1} on 12 qubits (even-weight
    # space); the b-merge lives on the even coset, the eo-merge on the odd one
    cols = tuple(1 | (1 << (i + 1)) for i in range(11))
    scale = ExactAmplitude(1, 0, 0, 0, 11)  # 2^{-11/2}
    dvec = tuple(0 if i < 5 else 4 for i in range(11))
    merged_b = StabilizerState(12, cols, 0, (0,) * 11, dvec, 4, scale)
    merged_eo = StabilizerState(12, cols, 1, _complete_graph(11),
                                (0,) * 11, 0, scale)
    return merged_b, merged_eo


def t12_decomposition() -> MagicDecomposition:
    """Tensor square of the 7-term entry with the two Bell-pair merges."""
    t6 = t6_decomposition()
    coeffs = _t6_coefficients()
    merged_b, merged_eo = _t12_merge_states()
    c_b = SQRT2 * coeffs["b60"] * coeffs["b66"]
    c_6 = SQRT2 * coeffs["e6"] * coeffs["o6"]
    names = _T6_ORDER
    drop = {("b60", "b66"), ("b66", "b60"), ("e6", "o6"), ("o6", "e6")}
    bases: dict = {}
    terms = []
    for i, (ci, si) in enumerate(t6.terms):
        for j, (cj, sj) in enumerate(t6.terms):
            if (names[i], names[j]) in drop:
                continue
            terms.append((ci * cj, _tensor_states(si, sj, bases)))
    terms.append((c_b, merged_b))
    terms.append((c_6, merged_eo))
    return MagicDecomposition(12, tuple(terms))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def extend_with_zeros(dec: MagicDecomposition, n: int) -> MagicDecomposition:
    """Tensor every term with |0>^(n-k); term count unchanged."""
    if n < dec.k:
        raise ValueError(f"cannot extend a {dec.k}-qubit decomposition to {n} qubits")
    if n == dec.n:
        return dec
    # padding qubits sit above the existing coordinates with |0> amplitudes,
    # so only the ambient dimension changes
    terms = tuple(
        (c, StabilizerState(n, s.basis, s.shift, s.bmat, s.dvec, s.c, s.scale))
        for c, s in dec.terms)
    return MagicDecomposition(dec.k, terms)


_CATALOG = {1: t1_decomposition, 2: t2_decomposition, 3: t3_decomposition,
            6: t6_decomposition, 12: t12_decomposition}


@cache
def catalog_entry(k: int) -> MagicDecomposition:
    """The catalog decomposition of |T>^k, built once per process."""
    if k not in _CATALOG:
        raise ValueError(f"no catalog entry for T-count {k}")
    return _CATALOG[k]()


def block_decomposition(t: int, policy: Sequence[int] = DEFAULT_POLICY
                        ) -> MagicDecomposition:
    """Tensor of catalog entries over the greedy block cover of t."""
    if t < 1:
        raise ValueError("T-count must be at least 1")
    first, *rest = block_cover(t, policy)
    dec = catalog_entry(first)
    for k in rest:
        dec = tensor(dec, catalog_entry(k))
    return dec


# ---------------------------------------------------------------------------
# text file format
# ---------------------------------------------------------------------------

def _amp_str(a: ExactAmplitude) -> str:
    return f"({a.a},{a.b},{a.c},{a.d},{a.e})"


def _amp_parse(s: str) -> ExactAmplitude:
    parts = s.strip().lstrip("(").rstrip(")").split(",")
    if len(parts) != 5:
        raise ValueError(f"malformed amplitude {s!r}")
    return ExactAmplitude(*(int(p) for p in parts))


def write_catalog_file(dec: MagicDecomposition, out: TextIO,
                       notes: Sequence[str] = ()) -> None:
    """Line-oriented text export to the stream ``out``; '#' lines are comments."""
    for note in notes:
        out.write(f"# {note}\n")
    out.write(f"k={dec.k} terms={len(dec.terms)}\n")
    for coeff, s in dec.terms:
        out.write(f"coeff={_amp_str(coeff)}\n")
        out.write(f"n={s.n} m={s.m}\n")
        out.write("G=" + " ".join(to_str(col, s.n) for col in s.basis) + "\n")
        out.write("h=" + to_str(s.shift, s.n) + "\n")
        upper = []
        for a in range(s.m):
            for b in range(a + 1, s.m):
                upper.append(str(4 * ((s.bmat[a] >> b) & 1)))
        out.write("J=" + ",".join(upper) + "\n")
        out.write("D=" + ",".join(str(d) for d in s.dvec) + "\n")
        out.write(f"c={s.c}\n")
        out.write(f"global={_amp_str(s.scale)}\n")


def read_catalog_file(path: str) -> MagicDecomposition:
    """Read a ``write_catalog_file`` export.

    Malformed input raises ``ValueError`` naming the file and the line: a
    missing, misnamed or unparsable field, a file that ends early or runs on
    past its last term, a ``k`` below 1, a term whose ``n`` is not the
    file's ``k``, ``G`` columns that are dependent (a catalog state's are
    independent), a ``J`` entry that is not 0 or 4 (mod 8), or a
    ``G``/``h``/``J``/``D`` length that does not match ``n`` and ``m``.
    """
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.lstrip().startswith("#")]
    pos = 0
    line_no = 0  # number of the line read last, for error messages

    def fields(*keys: str) -> list[str]:
        """Values of the next line, which must read ``key=value ...``."""
        nonlocal pos, line_no
        if pos == len(lines):
            raise ValueError(f"file ends before {keys[0]}=")
        line_no, text = lines[pos]
        pos += 1
        parts = [f.partition("=") for f in (text.split() if len(keys) > 1 else [text])]
        if [(name, sep) for name, sep, _ in parts] != [(key, "=") for key in keys]:
            want = " ".join(f"{key}=..." for key in keys)
            raise ValueError(f"expected {want}, got {text!r}")
        return [value for _, _, value in parts]

    def int_list(key: str, count: int) -> list[int]:
        (text,) = fields(key)
        values = [int(v) for v in text.split(",")] if text else []
        if len(values) != count:
            raise ValueError(f"{key}= holds {len(values)} values, expected {count}")
        return values

    def bits(text: str, n: int) -> int:
        if len(text) != n:
            raise ValueError(f"bit string {text!r} has length {len(text)}, expected n={n}")
        return from_str(text)

    try:
        k, nterms = (int(v) for v in fields("k", "terms"))
        if k < 1:
            raise ValueError(f"k= must be a T-count of at least 1, got {k}")
        terms = []
        bases: dict = {}  # one tuple per column set, as the catalog's
        for _ in range(nterms):
            coeff = _amp_parse(*fields("coeff"))
            n, m = (int(v) for v in fields("n", "m"))
            if n != k:
                raise ValueError(f"term acts on n={n} qubits, expected the "
                                 f"file's k={k}")
            basis = tuple(bits(col, n) for col in fields("G")[0].split())
            if len(basis) != m:
                raise ValueError(f"G= holds {len(basis)} columns, expected m={m}")
            rank = rank_of(basis)
            if rank < m:
                raise ValueError(f"G= columns are dependent: rank {rank}, "
                                 f"expected m={m}")
            basis = bases.setdefault(basis, basis)
            shift = bits(*fields("h"), n)
            jvals = int_list("J", m * (m - 1) // 2)
            if any(v % 4 for v in jvals):
                raise ValueError(f"J= entries must be 0 or 4 (mod 8), got {jvals}")
            bmat = [0] * m
            it = iter(jvals)
            for a in range(m):
                for b in range(a + 1, m):
                    if next(it) % 8 == 4:
                        bmat[a] |= 1 << b
                        bmat[b] |= 1 << a
            dvec = tuple(int_list("D", m))
            c = int(*fields("c"))
            scale = _amp_parse(*fields("global"))
            terms.append((coeff, StabilizerState(n, basis, shift, tuple(bmat),
                                                 dvec, c, scale)))
        if pos < len(lines):
            line_no = lines[pos][0]
            raise ValueError(f"unexpected line after the last of {nterms} terms")
    except ValueError as exc:
        raise ValueError(f"{path}, line {line_no}: {exc}") from None
    return MagicDecomposition(k, tuple(terms))
