"""tmagic.draws and the census rows against numpy itself, so that a numpy
release that changes its seeding, its PCG64 stream or its bounded draws
fails here."""

import numpy as np
import pytest

from tmagic._gauss_kernels import exhaustive_letters, sample_letters
from tmagic.draws import PCG64Words, pcg64_streams

# 2^130 + ... has five entropy words, more than SeedSequence's pool of four
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130 + 987654321]


@pytest.mark.parametrize("seed", SEEDS)
def test_words_and_seeding_match_pcg64(seed):
    words = PCG64Words(seed)
    bg = np.random.PCG64(seed)
    want = bg.state["state"]
    assert (words.state, words.inc) == (want["state"], want["inc"])
    # two calls continue one stream, as random_raw does
    assert words(5) + words(700) == bg.random_raw(705).tolist()
    assert words.state == bg.state["state"]["state"]


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_and_vectorized_seeding_agree(seed):
    # 4096 starts the second block of the vectorized pass
    streams = list(pcg64_streams(seed, 4098))
    for a in (0, 1, 4095, 4096, 4097):
        words = PCG64Words(seed, a)
        assert streams[a]["state"] == {"state": words.state, "inc": words.inc}
    bg = np.random.PCG64(np.random.SeedSequence([seed, 4097]))
    assert PCG64Words(seed, 4097)(9) == bg.random_raw(9).tolist()


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        PCG64Words(-1)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
@pytest.mark.parametrize("samples", [1, 7, 200])
def test_sample_letters_match_numpy(k, samples):
    # 1 * 1, 7 * 1, 7 * 3 are odd: the last word gives one letter
    for seed in (0, 5, 2 ** 64 + 3):
        want = np.random.default_rng(seed).integers(
            0, 4, size=(samples, k), dtype=np.int64)
        assert sample_letters(k, samples, seed) == want.tolist()


@pytest.mark.parametrize("k", range(7))
def test_exhaustive_letters_match_the_array_expression(k):
    want = np.arange(4 ** k, dtype=np.int64)[:, None] // 4 ** np.arange(k) % 4
    assert exhaustive_letters(k) == want.tolist()
