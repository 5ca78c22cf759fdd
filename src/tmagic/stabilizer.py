"""Quadratic-form stabilizer states and the O(n^3) kernel routines.

A state is stored as

    |s> = scale * sum_{u in F_2^m} zeta^{phi(u)} |G u + h>,
    phi(u) = c + sum_a D_a u_a + sum_{a<b} 4 B_ab u_a u_b   (mod 8),

with zeta = exp(i pi/4), direction columns G (bit-packed), shift h,
linear data D (even entries mod 8) and GF(2) cross data B (J = 4B in the
mod-8 picture).  A state's columns are independent; a ``projector_ket``,
the sum over its factors' variables, may have dependent ones, and every
routine here accepts them.

All D entries stay even and all cross terms stay in {0, 4}: those are the
only phases a Pauli (``apply_pauli_state``) or a projector
(``projector_ket``) can produce, and the restriction is what keeps the
exponential-sum elimination at O(m^3).  No routine projects a state:
Pi|s> = 2^-r ``projector_ket``(s), read through inner products.

``inner_product`` finds the common support with one GF(2) elimination and
builds the phase difference of the two states on it in one pass over the
null vectors: a column B~ v_k per null vector gives that variable's linear
term and its cross terms with the later ones, so neither the transpose of
the null basis nor a second congruence is formed.  This is the
InnerProduct / ExponentialSum construction of Bravyi et al., Quantum 3,
181 (2019).  ``gram_entries`` is the same computation for an operator's
Gram entries <a|P|b>: it keeps the part that depends on the two states'
classes only (``GramPair``; a class is the columns, cross data and
``odd`` mask) and adds per call what the Pauli shift or the projector's
extra columns contribute.  Its column step is shared by all entries of
one pair of classes, which differ only in shifts and phases, and by the
blocks of several bra classes on one set of columns with one ket class:
the exact engine takes a class pair's block of Gram entries in one call,
and the sampled estimator a random state's overlaps with every class of
projector kets on one column set, walking the random state's share of
the new null vectors' columns (``_extend_form``) once for all of them.

That Gauss sum is always 0 or sqrt2^k zeta^p, and the forms of a block's
entries differ only in their constant and in bit 2 of their linear terms,
which each entry's base point sets.  So ``exponential_sum`` eliminates a
block's form once, with bit 2 of each linear term carried as a GF(2)
functional of the base point, and returns a plan: k, the part of p that
no entry changes, and the parities that make up the rest.  ``plan_value``
reads an entry's (k, p) off the plan with a few parities; no form is
copied per entry, and no ring value is built until the caller multiplies
in the two scales.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from typing import TYPE_CHECKING, Optional, Sequence

from . import gf2
from .gf2 import eliminate, parity, reduce_column, revbits, solve_columns
from .pauli import PauliOperator
from .phase_ring import ExactAmplitude, ONE, ZERO, eighth_root, sqrt2_root

if TYPE_CHECKING:
    import numpy as np

    from .draws import RawDraws


class StabilizerState:
    """scale * sum_u zeta^phi(u) |G u + h> (see the module docstring).

    Treated as immutable.  ``odd`` and ``d4`` are derived from ``dvec`` and
    take no part in equality, hashing or the repr."""

    __slots__ = ("n", "basis", "shift", "bmat", "dvec", "c", "scale",
                 "odd", "d4")

    def __init__(self, n: int, basis: tuple[int, ...], shift: int,
                 bmat: tuple[int, ...], dvec: tuple[int, ...], c: int,
                 scale: ExactAmplitude) -> None:
        m = len(basis)
        if len(bmat) != m or len(dvec) != m:
            raise ValueError(f"bmat and dvec need one entry per basis column "
                             f"({m}), got {len(bmat)} and {len(dvec)}")
        if any(d % 2 for d in dvec):
            raise ValueError(f"dvec entries must be even, got {dvec}")
        if any((row >> a) & 1 for a, row in enumerate(bmat)):
            raise ValueError(f"bmat must have a zero diagonal, got {bmat}")
        odd = d4 = 0
        for a, d in enumerate(dvec):
            odd |= ((d >> 1) & 1) << a
            d4 |= ((d >> 2) & 1) << a
        self.n = n
        self.basis = basis
        self.shift = shift
        self.bmat = bmat  # symmetric GF(2) cross data, bit b of bmat[a] = B_ab
        self.dvec = dvec  # linear phase data, even entries mod 8
        self.c = c        # constant phase exponent, mod 8
        self.scale = scale
        # masks of the a with bit 1 / bit 2 of dvec[a] set, for inner_product
        self.odd = odd
        self.d4 = d4

    def _key(self) -> tuple:
        return (self.n, self.basis, self.shift, self.bmat, self.dvec, self.c,
                self.scale)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not StabilizerState:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"StabilizerState(n={self.n!r}, basis={self.basis!r}, "
                f"shift={self.shift!r}, bmat={self.bmat!r}, "
                f"dvec={self.dvec!r}, c={self.c!r}, scale={self.scale!r})")

    @property
    def m(self) -> int:
        return len(self.basis)

    @staticmethod
    def computational(n: int, x: int = 0) -> "StabilizerState":
        """|x> for a bit-packed basis label x (coordinate order)."""
        return StabilizerState(n, (), x, (), (), 0, ONE)

    def phase_exponent(self, u: int) -> int:
        """phi(u) mod 8 for a bit-packed parameter vector u."""
        return self.phase_and_coupling(u)[0] % 8

    def phase_and_coupling(self, u: int) -> tuple[int, int]:
        """phi(u) (not reduced mod 8) and B u, in one walk over u's bits.

        Summing |B_a & u| over the set bits a of u counts each coupled pair
        twice, so 2 |B_a & u| supplies the 4 B_ab u_a u_b terms.
        """
        e = self.c
        bu = 0
        dvec, bmat = self.dvec, self.bmat
        w = u
        while w:
            low = w & -w
            a = low.bit_length() - 1
            row = bmat[a]
            bu ^= row
            e += dvec[a] + 2 * (row & u).bit_count()
            w ^= low
        return e, bu

    def point(self, u: int) -> int:
        x = self.shift
        for a in range(self.m):
            if (u >> a) & 1:
                x ^= self.basis[a]
        return x

    def to_dense_exact(self) -> list[ExactAmplitude]:
        if self.n > 14:
            raise ValueError("dense conversion capped at 14 qubits")
        vec = [ZERO] * (1 << self.n)
        for u in range(1 << self.m):
            idx = revbits(self.point(u), self.n)
            vec[idx] = vec[idx] + self.scale * eighth_root(self.phase_exponent(u))
        return vec

    def to_dense(self) -> np.ndarray:
        import numpy as np
        return np.array([a.to_float() for a in self.to_dense_exact()],
                        dtype=np.complex128)


# ---------------------------------------------------------------------------
# EXPONENTIALSUM
# ---------------------------------------------------------------------------

# (k, p, zero tests, sixes, twos, pairs): see ``exponential_sum``
Plan = tuple[int, int, list[int], list[int], list[int], list[tuple[int, int]]]


def exponential_sum(b: Sequence[int], d: Sequence[int], funcs: Sequence[int]
                    ) -> Plan:
    """The elimination plan of sum_w zeta^{phi_x(w)}, w in F_2^r, for the
    forms phi_x with cross rows b, constant 0 and linear terms d_k xor
    4 parity(funcs[k] & x), one form per input x.

    Each such sum is sqrt2^k zeta^p or 0.  The elimination steps read only
    b and the linear terms mod 4, which no x changes, so one run serves
    every x: it is the run for one form with bit 2 of each linear term
    carried as a GF(2) functional F of x (bit 0 of F is its constant, bit
    i + 1 its coefficient of x_i, so F(x) = parity(F & (2x + 1))).  Each
    step takes the lowest live variable a:

    - a uncoupled, d_a = 0 mod 4: it sums to 2, or to 0 where F_a(x) = 1
      (a zero test);
    - a uncoupled, d_a = 2 mod 4: it sums to 1 + i^{d_a/2}, that is
      sqrt2 zeta, times zeta^6 where F_a(x) = 1 (a six);
    - a coupled: substituting its lowest partner v by the xor of all of
      them leaves a coupled to v only.  If d_a = 0 mod 4, summing u_a pins
      u_v = F_a(x), both go and k += 2; u_v = 1 adds d_v, that is 2 where
      d_v = 2 mod 4 (a two) and 4 where F_v(x) = 1 (a pair (F_a, F_v)),
      and 4 u_z to each z coupled to v.  Otherwise u_a sums to the
      uncoupled case's factor and d_v -= d_a.

    A substitution adds d_v to each d_x it touches (bit 1 xor, and a carry
    into bit 2 where both bit 1s are set) and 4 to those coupled to v.
    Returns (k, p, zero tests, sixes, twos, pairs) for ``plan_value``.
    """
    b = list(b)
    odd = [(x >> 1) & 1 for x in d]
    f = [((x >> 2) & 1) | (g << 1) for x, g in zip(d, funcs)]
    k = p = 0
    zeros: list[int] = []
    sixes: list[int] = []
    twos: list[int] = []
    pairs: list[tuple[int, int]] = []
    live = (1 << len(b)) - 1
    while live:
        low = live & -live
        a = low.bit_length() - 1
        nmask = b[a] & live
        if nmask == 0:
            if odd[a]:
                k += 1
                p += 1
                sixes.append(f[a])
            else:
                k += 2
                zeros.append(f[a])
            live ^= low
            continue
        vbit = nmask & -nmask
        v = vbit.bit_length() - 1
        # old u_v = new u_v xor (xor of the u_x, x in mask)
        mask = nmask ^ vbit
        rv, ov, fv = b[v] & live, odd[v], f[v]
        w = mask
        while w:
            xbit = w & -w
            x = xbit.bit_length() - 1
            b[x] ^= rv
            f[x] ^= fv ^ (odd[x] & ov) ^ ((rv >> x) & 1)
            odd[x] ^= ov
            w ^= xbit
        w = rv
        while w:
            zbit = w & -w
            b[zbit.bit_length() - 1] ^= mask
            w ^= zbit
        if ov:  # d_v xor(...) with d_v = 2 mod 4 couples every pair
            full = mask | vbit
            w = full
            while w:
                xbit = w & -w
                b[xbit.bit_length() - 1] ^= full ^ xbit
                w ^= xbit
        fa = f[a]
        if odd[a]:
            k += 1
            p += 1
            sixes.append(fa)
            f[v] ^= fa ^ odd[v] ^ 1
            odd[v] ^= 1
            live ^= low
        else:
            k += 2
            if odd[v]:
                twos.append(fa)
            pairs.append((fa, f[v]))
            w = b[v] & live & ~(low | vbit)
            while w:
                zbit = w & -w
                f[zbit.bit_length() - 1] ^= fa
                w ^= zbit
            live ^= low | vbit
    return k, p, zeros, sixes, twos, pairs


def plan_value(plan: Plan, x: int, c: int) -> Optional[tuple[int, int]]:
    """The sum of ``exponential_sum``'s plan at input x, with constant
    phase c added, as (k, p), meaning sqrt2^k zeta^p, or None for 0."""
    k, p, zeros, sixes, twos, pairs = plan
    lx = (x << 1) | 1
    for f in zeros:
        if (f & lx).bit_count() & 1:
            return None
    p += c
    for f in sixes:
        if (f & lx).bit_count() & 1:
            p += 6
    for f in twos:
        if (f & lx).bit_count() & 1:
            p += 2
    for f, g in pairs:
        if (f & lx).bit_count() & (g & lx).bit_count() & 1:
            p += 4
    return k, p % 8


# ---------------------------------------------------------------------------
# INNERPRODUCT
# ---------------------------------------------------------------------------

def inner_product(sa: StabilizerState, sb: StabilizerState) -> ExactAmplitude:
    """Exact <a|b> via the common affine support and one exponential sum.

    The support intersection is {u = (u_a, u_b) = base xor V w}, where the
    columns v_k of V are the null vectors from ``solve_columns`` (u_a in
    the low m_a bits).  The summand phi_b(u_b) - phi_a(u_a) is one form on
    u, with cross data B = diag(B_a, B_b) and linear data (-d_a, d_b);
    ``_extend_form`` pulls it back to the r variables w, and ``_entry``
    evaluates its ``exponential_sum`` plan at the base point.  Nothing
    here needs independent columns, so either state may be a sum over
    dependent ones, such as a ``projector_ket``.
    """
    if sa.n != sb.n:
        raise ValueError("qubit count mismatch")
    sol = solve_columns(list(sa.basis) + list(sb.basis),
                        sa.shift ^ sb.shift, sa.n)
    if sol is None:
        return ZERO
    part, null = sol
    b: list[int] = []
    d: list[int] = []
    _extend_form(sa, sb, null, b, d, [])
    ks = _entry(sa, sb, part, exponential_sum(b, d, null))
    if ks is None:
        return ZERO
    return sa.scale.conj() * sb.scale * sqrt2_root(*ks)


def _extend_form(sa: StabilizerState, sb: StabilizerState, null: list[int],
                 b: list[int], d: list[int], half: list[tuple[int, int]]
                 ) -> None:
    """Add the null vectors null[len(d):] as variables of the pulled-back
    form (b, d), whose variables so far are null[:len(d)]; in place.

    One walk over the set bits of v_k gives the column C_k = B~ v_k, where
    B~ is B plus the diagonal ``odd`` (the d = 2 mod 4, whose d * xor(...)
    terms couple every pair), and twice the edge count e_k of B inside v_k:

      w_k w_k'  4 parity(v_k' & C_k), for every earlier k';
      w_k       2 |v_k & odd| + 2 e_k (from the squares w_k w_k = w_k).

    B is block diagonal, so C_k and |v_k & odd| + e_k are sa's share plus
    sb's, and sb's share of the i-th added null vector reads only sb's
    class and v_k.  ``half`` keeps those shares: a caller that extends
    several forms by the same null vectors, against states of one class
    as sb, passes them one list, and only the first form walks sb's side
    (the blocks of one ket class in a ``gram_entries`` call; a new ket
    class gets a new list).  These read only the two
    states' cross data and ``odd`` masks, not the base point (``_entry``
    adds that part).  No transpose of V is formed.
    """
    ma = sa.m
    low = (1 << ma) - 1
    bmat_a, bmat_b = sa.bmat, sb.bmat
    first = len(d)
    walked = bool(half)  # sb's shares are there for all or none
    for k in range(first, len(null)):
        v = null[k]
        va = v & low
        ca = e = 0  # B_a v_k's sa part; e = twice its edges inside it
        w = va
        while w:
            bit = w & -w
            row = bmat_a[bit.bit_length() - 1]
            ca ^= row
            e += (row & va).bit_count()
            w ^= bit
        vo = va & sa.odd
        if walked:
            cb, eb = half[k - first]
        else:  # sb's share, shifted into place
            vb = v >> ma
            cb = eb = 0
            w = vb
            while w:
                bit = w & -w
                row = bmat_b[bit.bit_length() - 1]
                cb ^= row
                eb += (row & vb).bit_count()
                w ^= bit
            vob = vb & sb.odd
            cb = (cb ^ vob) << ma
            eb += vob.bit_count()
            half.append((cb, eb))
        ck = (ca ^ vo) | cb  # B~ v_k
        kbit = 1 << k
        row = 0
        for k2 in range(k):
            if (null[k2] & ck).bit_count() & 1:
                row |= 1 << k2
                b[k2] |= kbit
        b.append(row)
        d.append(2 * (vo.bit_count() + e + eb) % 8)


def _entry(sa: StabilizerState, sb: StabilizerState, part: int, plan: Plan
           ) -> Optional[tuple[int, int]]:
    """Sum of zeta^(phi_b - phi_a) over the support base xor V w, as
    ``plan_value``'s (k, p) or None, from the ``exponential_sum`` plan of
    the form that ``_extend_form`` built on V with funcs V.

    The base point ``part`` adds 4 |v_k & four| to each linear term, where
    ``four`` is bit 2 of the linear data (bit 2 of -d is bit 2 of d xor
    bit 1), flipped by 4 (B base) and, on an odd entry with base = 1, by
    the sign of u = 1 - x; so ``four`` is the plan's input.  The base
    point also sets the constant phi_b(base_b) - phi_a(base_a).
    """
    ma = sa.m
    phi_a, bbase_a = sa.phase_and_coupling(part & ((1 << ma) - 1))
    phi_b, bbase_b = sb.phase_and_coupling(part >> ma)
    four = (((sa.d4 ^ sa.odd ^ bbase_a) | ((sb.d4 ^ bbase_b) << ma))
            ^ ((sa.odd | (sb.odd << ma)) & part))
    return plan_value(plan, four, phi_b - phi_a)


# ---------------------------------------------------------------------------
# GRAM ENTRIES
# ---------------------------------------------------------------------------

def pivot_table(sa: StabilizerState, sb: StabilizerState
                ) -> tuple[list[int], list[int], list[int]]:
    """The ``eliminate`` table of [G_a | G_b]; it depends on the two bases
    only."""
    return eliminate(list(sa.basis) + list(sb.basis), sa.n)


class GramPair:
    """What the Gram entries <a|P|b> of every operator P share, for all
    states a in the class of sa and b in the class of sb.

    The pivot table and null basis of [G_a | G_b] depend on the two bases
    only, and the pulled-back form's cross rows and linear base
    (``_extend_form``) on the states' cross data and ``odd`` masks only.
    Shifts and phases change neither, nor does a Pauli shift of b, and
    projector factors only add columns after b's own, so ``gram_entries``
    reuses all of it and adds what the operator contributes.  So does the
    form's ``exponential_sum`` plan, whose input is each entry's base
    point: it is kept beside the form, and serves every block whose kets
    add no columns.  ``table`` is ``pivot_table(sa, sb)``, which pairs with
    the same two bases may share; the form and the plan are built at the
    first call that needs them, and go with the pair.
    """

    __slots__ = ("vecs", "masks", "null", "ma", "mb", "_states", "_form",
                 "_plan")

    def __init__(self, sa: StabilizerState, sb: StabilizerState,
                 table: tuple[list[int], list[int], list[int]]) -> None:
        self.vecs, self.masks, self.null = table
        self.ma, self.mb = sa.m, sb.m
        self._states = (sa, sb)
        self._form: Optional[tuple[list[int], list[int]]] = None
        self._plan: Optional[Plan] = None

    def columns(self, extra: Sequence[int]
                ) -> tuple[list[int], list[int], list[int]]:
        """Reduce the extra columns, the variables after sb's, into the
        kept table: the column step of ``gram_entries``.

        Returns the table (a copy once an extra column joins it, the kept
        one otherwise; do not mutate it) and the null vectors that extra
        columns close.
        """
        vecs, masks = self.vecs, self.masks
        new = []
        first = self.ma + self.mb
        for i, x in enumerate(extra):
            v, mask = reduce_column(vecs, masks, x, 1 << (first + i))
            if not v:
                new.append(mask)
                continue
            if vecs is self.vecs:
                vecs, masks = list(vecs), list(masks)
            top = v.bit_length() - 1
            vecs[top] = v
            masks[top] = mask
        return vecs, masks, new

    def form(self) -> tuple[list[int], list[int]]:
        """(cross rows, linear base) of the form on ``null``; do not mutate."""
        if self._form is None:
            sa, sb = self._states
            b: list[int] = []
            d: list[int] = []
            _extend_form(sa, sb, self.null, b, d, [])
            self._form = (b, d)
        return self._form

    def plan(self, sb: StabilizerState, null: list[int],
             half: list[tuple[int, int]]) -> Plan:
        """The ``exponential_sum`` plan of the form on null, which is
        ``null`` and then the null vectors that the further columns of a
        ket sb of the block's class close: the kept one when there are
        none, else one built on an extended copy of the form, sharing
        ``half`` (``_extend_form``) with the call's other blocks of sb's
        class."""
        if len(null) == len(self.null):
            if self._plan is None:
                self._plan = exponential_sum(*self.form(), null)
            return self._plan
        b, d = self.form()
        b, d = list(b), list(d)
        _extend_form(self._states[0], sb, null, b, d, half)
        return exponential_sum(b, d, null)


Entry = tuple[StabilizerState, StabilizerState]


def gram_entries(blocks: Sequence[tuple[GramPair, Sequence[Entry]]]
                 ) -> list[Optional[tuple[int, int]]]:
    """<bra|ket> / (conj(bra.scale) ket.scale) for each (bra, ket) entry of
    each (pair, entries) block, in order, as (k, p), meaning sqrt2^k
    zeta^p, or None where it vanishes.

    A block's entries, at least one, share one class pair: every bra has
    the columns, cross data and ``odd`` mask of ``pair``'s first state,
    and every ket those of one state that extends ``pair``'s second one,
    which is that state shifted by a Pauli (``apply_pauli_state``) or
    extended by the same projector factors (``projector_ket``), or, with
    mb = 0, any one state.  Only shifts and phases differ between entries,
    and they enter the pulled-back form only through its constant and bit
    2 of its linear terms.  So the column step, the kets' further columns
    reduced into the cached table, and one elimination plan
    (``GramPair.plan``: the kept one when the kets add no columns, as a
    Pauli's do) serve all of a block's entries; each entry then costs its
    right-hand side bra.shift ^ ket.shift solved against the table and
    one ``plan_value`` (the right-hand-side step).  No form is copied per
    entry.

    The blocks of one call share more: their pairs are built on one pair of
    bases, so they share one pivot table, and their kets lie on one column
    set.  So the column step is done once per call.  The kets of blocks
    whose pairs share their second state must share one class, as the
    exact engine's blocks of one ket class and the sampled estimator's
    blocks of one random state do.  A run of such blocks walks the kets'
    share of the new null vectors' columns (``_extend_form``) once, and
    each block's plan adds only its bras' share and the couplings; the
    share is walked afresh where the pair's second state changes, so
    callers put the blocks of one ket class next to each other.  A block
    whose pair is on other bases than the first block's, or whose first
    ket is on another column set than the first block's, raises
    ValueError.
    """
    pair, entries = blocks[0]
    sa, sb = pair._states
    basis_a, basis_b, kets = sa.basis, sb.basis, entries[0][1].basis
    vecs, masks, new = pair.columns(kets[pair.mb:])
    null = pair.null + new if new else pair.null
    second = None
    out: list[Optional[tuple[int, int]]] = []
    for pair, entries in blocks:
        sa, sb = pair._states
        if sb is not second:  # a new ket class: walk its share afresh
            second = sb
            half: list[tuple[int, int]] = []
            if sb.basis is not basis_b and sb.basis != basis_b:
                raise ValueError("gram_entries: a block's pair is on other "
                                 "bases than the first block's")
        if sa.basis is not basis_a and sa.basis != basis_a:
            raise ValueError("gram_entries: a block's pair is on other bases "
                             "than the first block's")
        ket = entries[0][1]
        if ket.basis is not kets and ket.basis != kets:
            raise ValueError("gram_entries: a block's kets are on another "
                             "column set than the first block's")
        plan = None
        for bra, ket in entries:
            v, part = reduce_column(vecs, masks, bra.shift ^ ket.shift, 0)
            if v:
                out.append(None)
                continue
            if plan is None:  # built at the block's first consistent entry
                plan = pair.plan(ket, null, half)
            out.append(_entry(bra, ket, part, plan))
    return out


def projector_ket(s: StabilizerState,
                  factors: Sequence[tuple[PauliOperator, int]],
                  bases: Optional[dict] = None) -> StabilizerState:
    """sum_S prod_i (sign_i P_i)^S_i |s>, which is 2^r Pi|s> for the
    projector Pi = prod_i (I + sign_i P_i)/2, as one form on the columns
    of s plus one variable S_i per factor.

    P_i adds the column x_i (its X and Y sites), and S_i gets the linear
    term 4 [sign_i = -1] + 2 omega_i + 2 |delta_i| + 4 parity(z_i & h), a
    coupling parity(z_i & g_a) to each u_a and parity(z_i & x_i') to each
    earlier S_i' (P_i sees the flips of the factors before it).  The
    columns may be dependent, and a factor may repeat or contradict
    another: the sum over S covers every case.  Each factor must be
    Hermitian, with sign +1 or -1.  The kets built with one ``bases`` dict
    share one basis tuple per column set, so that ``gram_entries``' basis
    checks are identity hits.
    """
    m = s.m
    basis = list(s.basis)
    bmat = list(s.bmat)
    dvec = list(s.dvec)
    for i, (p, sign) in enumerate(factors):
        if p.n != s.n:
            raise ValueError("qubit count mismatch")
        if p.omega_exp % 2:
            raise ValueError(f"projector factor {p} must be Hermitian "
                             "(phase +1 or -1)")
        if sign not in (1, -1):
            raise ValueError(f"projector sign must be +1 or -1, got {sign}")
        zm = p.z_mask
        bit = 1 << (m + i)
        row = 0
        for a, col in enumerate(basis):  # the columns of s, then earlier x_i'
            if (zm & col).bit_count() & 1:
                row |= 1 << a
                bmat[a] |= bit
        bmat.append(row)
        basis.append(p.x_mask)
        dvec.append((4 * (sign < 0) + 2 * p.omega_exp + 2 * p.delta.bit_count()
                     + 4 * parity(zm & s.shift)) % 8)
    cols = tuple(basis)
    if bases is not None:
        cols = bases.setdefault(cols, cols)
    return StabilizerState(s.n, cols, s.shift, tuple(bmat), tuple(dvec), s.c,
                           s.scale)


def apply_pauli_state(s: StabilizerState, p: PauliOperator) -> StabilizerState:
    """P|s> exactly: coset shift plus linear phase updates."""
    if p.n != s.n:
        raise ValueError("qubit count mismatch")
    zm = p.z_mask
    dvec = tuple((d + 4) % 8 if parity(zm & col) else d
                 for d, col in zip(s.dvec, s.basis))
    phase = eighth_root(2 * p.omega_exp + 2 * (p.delta.bit_count() % 4))
    return StabilizerState(s.n, s.basis, s.shift ^ p.x_mask, s.bmat, dvec,
                           (s.c + 4 * parity(zm & s.shift)) % 8,
                           s.scale * phase)


# ---------------------------------------------------------------------------
# RANDOMSTABILIZERSTATE
# ---------------------------------------------------------------------------

def _gaussian_binomial(n: int, m: int) -> int:
    num = den = 1
    for j in range(m):
        num *= (1 << (n - j)) - 1
        den *= (1 << (m - j)) - 1
    return num // den


@cache
def _dimension_weights(n: int) -> tuple[tuple[int, ...], int]:
    """Number of stabilizer states with affine support dimension m, for
    m = 0..n, and their sum |S(n)|."""
    weights = tuple(_gaussian_binomial(n, m) * (1 << (n - m))
                    * (1 << (m * (m + 3) // 2)) for m in range(n + 1))
    return weights, sum(weights)


@cache
def _cross_pairs(m: int) -> tuple[list[tuple[int, int]], ExactAmplitude]:
    """The pairs a < b of m variables, in the order their cross bits are
    drawn, and the scale 2^(-m/2) of a state on m variables."""
    return ([(a, b) for a in range(m) for b in range(a + 1, m)],
            ExactAmplitude(1, 0, 0, 0, m))


def random_stabilizer_state(n: int, draws: RawDraws | np.random.Generator
                            ) -> StabilizerState:
    """Uniformly random n-qubit stabilizer state (up to global phase).

    Draws from ``draws``, in order: the support dimension m (weighted by
    state count), the m columns of each rank-rejection attempt, the shift,
    the m ``dvec`` entries and the m(m-1)/2 cross bits of B row by row, each
    as ``Generator.integers(0, bound)`` gives it (the byte path above 2^62).
    The values rest on PCG64's raw stream and numpy's bounded-integer
    algorithms, which ``tmagic.draws.RawDraws`` decodes and
    ``tests/test_stabilizer.py`` pins against numpy.
    How far ahead ``draws`` reads is up to its word source; the values do
    not depend on it.

    A numpy Generator over PCG64, which perfbench's kernel-scaling probe
    still passes, is read through a fresh ``RawDraws`` over its bit
    generator that reads exactly the words it decodes: its buffered half
    word is neither used nor written back.  This adapter goes once the
    benchmark draws through ``RawDraws``.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    bg = getattr(draws, "bit_generator", None)
    if bg is not None:  # a numpy Generator, not a RawDraws
        import numpy as np
        from .draws import RawDraws
        if not isinstance(bg, np.random.PCG64):
            raise ValueError(f"draws are decoded from PCG64 words; the "
                             f"Generator runs on {type(bg).__name__}")
        draws = RawDraws(bg.random_raw)
    weights, total = _dimension_weights(n)
    r = draws.below(total)
    m = 0
    while r >= weights[m]:
        r -= weights[m]
        m += 1
    # uniform rank-m direction matrix by rejection
    while True:
        cols = draws.run(n, m)
        if gf2.rank_of(cols) == m:
            break
    h = draws.run(n, 1)[0]
    dvec = tuple([2 * x for x in draws.run(2, m)])
    pairs, scale = _cross_pairs(m)
    brows = [0] * m
    for a, b2 in compress(pairs, draws.run(1, len(pairs))):
        brows[a] |= 1 << b2
        brows[b2] |= 1 << a
    return StabilizerState(n, tuple(cols), h, tuple(brows), dvec, 0, scale)
