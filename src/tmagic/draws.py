"""numpy's seeded draws, reproduced from PCG64's raw stream.

Every seeded value the program prints rests on three numpy algorithms,
which this module reproduces: ``SeedSequence``'s hashing of the seed into
a PCG64 state, PCG64's XSL-RR output of a 128-bit LCG (O'Neill, "PCG: A
family of simple fast space-efficient statistically good algorithms for
random number generation", 2014), and ``Generator.integers``' bounded
draws by Lemire's method ("Fast random integer generation in an
interval", 2019).  ``tests/test_draws.py`` and ``tests/test_stabilizer.py``
pin each against numpy, so a numpy release that changed one fails there.

* ``PCG64Words`` is the raw word stream of ``default_rng(seed)``, or of
  ``PCG64(SeedSequence([seed, a]))``, in pure Python.
* ``pcg64_streams`` seeds the sampled estimator's L streams in one
  vectorized pass; it is the only code here that imports numpy, inside the
  function.  The hashing (``_generate_state``) is written once and runs on
  Python ints for one seed and on numpy uint32 lanes for many.
* ``RawDraws`` decodes ``Generator.integers(0, bound)`` draws from either
  source's words.

So ``census`` draws its letter rows without loading numpy, while the
sampled estimator keeps numpy's C PCG64 for its words.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_SEED_BLOCK = 1 << 12


def _uint32_words(x: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int, low word first."""
    if x < 0:
        raise ValueError(f"seed entropy must be non-negative, got {x}")
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _generate_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(8, uint32)`` for entropy given
    as its uint32 words: Python ints for one seed, or equal-length numpy
    uint32 arrays, one lane per seed.

    The hash constants do not depend on the entropy, so each step is one
    operation on an int or on a whole array.  Every product and difference
    is masked to 32 bits, which uint32 lanes wrap to anyway.
    """
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        v = v * hash_const & _M32
        return v ^ (v >> 16)

    def mix(x, y):
        v = ((x * _MIX_L & _M32) - (y * _MIX_R & _M32)) & _M32
        return v ^ (v >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    out = []
    hash_const = _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        v = v * hash_const & _M32
        out.append(v ^ (v >> 16))
    return out


def _pcg64_seeded(w0: int, w1: int, w2: int, w3: int, w4: int, w5: int,
                  w6: int, w7: int) -> tuple[int, int]:
    """PCG64's (state, inc) from the eight words of ``generate_state``:
    inc = 2 s_1 + 1 and state = (inc + s_0) M + inc mod 2^128, for the two
    128-bit halves s_0, s_1 of the four uint64 words, high word first in
    each."""
    init = w2 | w3 << 32 | w0 << 64 | w1 << 96
    inc = (w6 << 1 | w7 << 33 | w4 << 65 | w5 << 97 | 1) & _M128
    return ((inc + init) * _PCG_MULT + inc) & _M128, inc


class PCG64Words:
    """The raw 64-bit words of ``PCG64(SeedSequence(list(entropy)))``, in
    pure Python; for one seed, those of ``default_rng(seed)``.

    ``state`` and ``inc`` are the 128-bit LCG's, as ``PCG64.state`` holds
    them.  A call steps the LCG and takes the XSL-RR output of each new
    state, the high half xor the low half rotated right by the top 6
    bits, and hands over the next k words as a list of ints: a word
    source for ``RawDraws``.
    """

    __slots__ = ("state", "inc")

    def __init__(self, *entropy: int):
        if not entropy:
            raise ValueError("need at least one seed")
        words = []
        for x in entropy:
            words += _uint32_words(x)
        self.state, self.inc = _pcg64_seeded(*_generate_state(words))

    def __call__(self, k: int) -> list[int]:
        state, inc = self.state, self.inc
        out = []
        for _ in range(k):
            state = (state * _PCG_MULT + inc) & _M128
            x = ((state >> 64) ^ state) & _M64
            r = state >> 122
            out.append((x >> r | x << (64 - r)) & _M64)
        self.state = state
        return out


def pcg64_streams(seed: int, count: int) -> Iterator[dict]:
    """The state of ``PCG64(SeedSequence([seed, a]))`` for a = 0..count-1
    and a seed >= 0, as the dict ``PCG64.state`` takes.

    ``_generate_state`` runs on the uint32 lanes of a block of sample
    indices at once.  The blocks divide 2^32, so every index in one has as
    many entropy words.  PCG64's seeding step follows per sample.
    """
    import numpy as np
    head = _uint32_words(seed)
    for lo in range(0, count, _SEED_BLOCK):
        a = np.arange(lo, min(lo + _SEED_BLOCK, count), dtype=np.uint64)
        entropy = [np.full(len(a), w, np.uint32) for w in head]
        entropy += [(a >> (32 * j)).astype(np.uint32)
                    for j in range(len(_uint32_words(lo)))]
        for words in zip(*[v.tolist() for v in _generate_state(entropy)]):
            state, inc = _pcg64_seeded(*words)
            yield {"bit_generator": "PCG64",
                   "state": {"state": state, "inc": inc},
                   "has_uint32": 0, "uinteger": 0}


class RawDraws:
    """numpy's ``Generator.integers(0, bound)`` draws, decoded from the raw
    64-bit words of a fresh PCG64 stream.

    ``words(k)`` hands over the next raw words of the stream, at least
    one, as a list of ints (``PCG64Words``, or a numpy
    ``PCG64.random_raw(k).tolist()``); k is how many the decoder still
    needs.  The
    source decides how far it reads: one over a Generator that is drawn
    from again afterwards hands over exactly k, and one over a stream that
    only this decoder reads, such as a sample's, may read ahead.  The words
    not yet used wait as Python ints in one buffer, which the 32-bit
    halves, the whole words and the byte path all take from.  numpy takes
    a bound up to 2^32 by 32-bit Lemire on ``next_uint32``, which is the
    low half of a fresh word, then the high half that PCG64 buffers; a
    bound up to 2^62 by 64-bit Lemire on whole words, which leave that
    buffer alone.  ``half`` is the buffered high half, or None.  A decoder
    starts with none, as a fresh PCG64 does, so over a fresh stream its
    draws are those of a numpy Generator on that stream.
    """

    __slots__ = ("words", "half", "_buf", "_pos")

    def __init__(self, words: Callable[[int], list[int]]):
        self.words = words
        self.half: Optional[int] = None
        self._buf: list[int] = []
        self._pos = 0

    def _take(self, k: int) -> list[int]:
        """The next k words: the buffered ones, then the source's."""
        buf, pos = self._buf, self._pos
        while len(buf) - pos < k:
            buf = buf[pos:] + self.words(k - len(buf) + pos)
            pos = 0
        self._buf, self._pos = buf, pos + k
        return buf[pos:pos + k]

    def run(self, bits: int, count: int) -> list[int]:
        """``count`` draws below 2^bits: a power-of-two bound never
        rejects.  Lemire keeps the top ``bits`` of each half (bits <= 32)
        or word (bits <= 62); above, the byte path keeps the low ``bits`` of
        ceil(bits / 8) bytes, taken from little-endian halves as
        ``Generator.bytes`` takes them."""
        if bits <= 32:
            s = 32 - bits
            out = []
            if count and self.half is not None:
                out.append(self.half >> s)
                self.half = None
                count -= 1
            if count:
                s2 = 64 - bits
                for w in self._take((count + 1) >> 1):
                    out.append((w & 0xFFFFFFFF) >> s)
                    out.append(w >> s2)
                if count & 1:
                    out.pop()
                    self.half = w >> 32
            return out
        if bits <= 62:
            s = 64 - bits
            return [w >> s for w in self._take(count)]
        per = (bits + 31) // 32   # halves in ceil(bits / 8) bytes
        vals = self.run(32, count * per)
        mask = (1 << bits) - 1
        out = []
        for i in range(0, len(vals), per):
            v = 0
            for j in range(per):
                v |= vals[i + j] << (32 * j)
            out.append(v & mask)
        return out

    def below(self, bound: int) -> int:
        """One ``Generator.integers(0, bound)`` draw for bound <= 2^62; above,
        the byte path: ``Generator.bytes``, masked to the bound's bit length,
        until a value falls below the bound."""
        if bound > 1 << 62:
            bits = (bound - 1).bit_length()
            while True:
                v = self.run(bits, 1)[0]
                if v < bound:
                    return v
        if bound == 1:
            return 0
        # Lemire: the high w bits of a w-bit draw times the bound, once its
        # low w bits reach numpy's threshold 2^w mod bound
        w = 32 if bound <= 1 << 32 else 64
        mask = (1 << w) - 1
        threshold = (mask + 1) % bound
        while True:
            m = bound * (self.run(32, 1)[0] if w == 32 else self._take(1)[0])
            if m & mask >= threshold:
                return m >> w
