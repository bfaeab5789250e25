"""The uniform stream of chain contract v1, drawn as its driver drew it.

Contract v1 gave each replica one uniform per epoch from
``np.random.Generator(np.random.PCG64(seed))``. Its driver hashed a whole
batch of seeds at once with :func:`pcg64_words`, the SeedSequence hash
on arrays. A run of at most ``ARRAY_DRAW_EPOCHS`` epochs then drew every
replica's uniforms in one array pass with :func:`pcg64_uniforms`. A
longer run built one Generator per replica from its words with
:class:`Words`. The per-epoch stepper in ``test_replay.py``, contract
v2's oracle in law, draws its uniforms through :func:`v1_uniforms`, and
``test_seeding.py`` holds each piece to numpy's own PCG64 stream.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK64 = (1 << 64) - 1

# numpy's SeedSequence hash: pool size 4, 32-bit words
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


def pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """Row i is ``np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    The SeedSequence hash run on uint32 arrays, one replica per element.
    A seed is its low and high 32-bit words; a seed below 2^32 is one
    entropy word, and its missing second word hashes like a zero.
    """
    u32 = np.uint32
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & 0xFFFFFFFF
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    zero = np.zeros(seeds.shape, dtype=u32)
    entropy = [(seeds & np.uint64(0xFFFFFFFF)).astype(u32), (seeds >> np.uint64(32)).astype(u32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = u32(_SS_MIX_L) * pool[dst] - u32(_SS_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))
    state = np.empty(seeds.shape + (8,), dtype=u32)
    hash_const = _SS_INIT_B
    for k in range(8):
        value = pool[k % 4] ^ u32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & 0xFFFFFFFF
        value = value * u32(hash_const)
        state[..., k] = value ^ (value >> u32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class Words(ISeedSequence):
    """Seeds a bit generator with precomputed words (see :func:`pcg64_words`)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly the four uint64 words the row holds
        return self.words


# numpy's PCG64: a 128-bit LCG, state -> state * _PCG_MULT + inc (mod 2^128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def pcg64_jumps(k: int) -> np.ndarray:
    """Jump constants of draws 0 .. k-1 from the seeding sum x = state + inc.

    Seeding steps from 0 to inc, adds the state and steps again, and each
    draw steps before its output, so draw j reads the state
    A x + G inc (mod 2^128) with A = MULT^(j+2) and G = sum_{i < j+2} MULT^i.
    Rows: the low 64 bits of A, their low and high 32-bit halves, the
    high 64 bits of A, then the same four for G; one column per draw.
    """
    rows = []
    a, g = _PCG_MULT, 1
    for _ in range(k):
        a, g = (a * _PCG_MULT) & _MASK128, (g * _PCG_MULT + 1) & _MASK128
        a_lo, g_lo = a & MASK64, g & MASK64
        rows.append([a_lo, a_lo & 0xFFFFFFFF, a_lo >> 32, a >> 64, g_lo, g_lo & 0xFFFFFFFF, g_lo >> 32, g >> 64])
    return np.array(rows, dtype=np.uint64).T


# a v1 run of at most this many epochs drew its uniforms from the words
# in one array pass instead of from a Generator per replica
ARRAY_DRAW_EPOCHS = 56
# draws computed per array pass; its scratch is three (draws, replicas)
# uint64 arrays
ARRAY_DRAW_COLUMNS = 10
_JUMPS = pcg64_jumps(ARRAY_DRAW_EPOCHS)[:, :, None]


def pcg64_uniforms(words: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write ``PCG64`` draws 0 .. k-1 of each row of ``words`` into ``out[:, :k]``.

    Row i of ``out`` gets ``Generator(PCG64(Words(words[i]))).random(k)``
    bit for bit, from the closed-form jump of :func:`pcg64_jumps`, with
    no bit generator. As numpy's ``pcg_setseq_128_srandom_r`` seeds them,
    the state is ``(word 0 << 64) | word 1`` and the increment
    ``inc = (((word 2 << 64) | word 3) << 1) | 1``; draw j is the XSL-RR
    output of ``A_j x + G_j inc`` (x = state + inc, all mod 2^128) as
    ``(output >> 11) * 2^-53``. The 128-bit sums are built from uint64
    limbs, the high halves of the limb products from 32-bit halves. Draws
    are computed ``ARRAY_DRAW_COLUMNS`` at a time, one row per draw, and
    ``k`` is at most ``ARRAY_DRAW_EPOCHS``.
    """
    u64 = np.uint64
    one, low, half = u64(1), u64(0xFFFFFFFF), u64(32)
    w0, w1, w2, w3 = words.T
    inc_lo = (w3 << one) | one
    inc_hi = (w2 << one) | (w3 >> u64(63))
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi
    x_hi += x_lo < w1
    halves = ((x_lo & low, x_lo >> half), (inc_lo & low, inc_lo >> half))
    hi_buf = np.empty((min(ARRAY_DRAW_COLUMNS, k), words.shape[0]), dtype=np.uint64)
    lo_buf = np.empty_like(hi_buf)
    t_buf = np.empty_like(hi_buf)
    for c in range(0, k, ARRAY_DRAW_COLUMNS):
        w = min(ARRAY_DRAW_COLUMNS, k - c)
        a_lo, a0, a1, a_hi, g_lo, g0, g1, g_hi = _JUMPS[:, c : c + w]
        hi, lo, t = hi_buf[:w], lo_buf[:w], t_buf[:w]
        # high 64 bits: the cross products ...
        np.multiply(a_hi, x_lo, out=hi)
        hi += np.multiply(a_lo, x_hi, out=t)
        hi += np.multiply(g_hi, inc_lo, out=t)
        hi += np.multiply(g_lo, inc_hi, out=t)
        # ... plus the high halves of a_lo x_lo and g_lo inc_lo
        for (m0, m1), (y0, y1) in zip(((a0, a1), (g0, g1)), halves):
            np.multiply(m0, y0, out=t)
            t >>= half
            np.multiply(m1, y0, out=lo)
            lo += t  # m1 y0 + (m0 y0 >> 32) < 2^64
            hi += np.right_shift(lo, half, out=t)
            lo &= low
            lo += np.multiply(m0, y1, out=t)  # m0 y1 + a 32-bit value < 2^64
            lo >>= half
            hi += lo
            hi += np.multiply(m1, y1, out=t)
        # low 64 bits, and their carry into the high ones
        np.multiply(a_lo, x_lo, out=lo)
        lo += np.multiply(g_lo, inc_lo, out=t)
        hi += lo < t
        # XSL-RR: rotate hi ^ lo right by the top six bits of hi
        lo ^= hi
        hi >>= u64(58)
        np.right_shift(lo, hi, out=t)
        np.subtract(u64(64), hi, out=hi)
        hi &= u64(63)
        lo <<= hi
        t |= lo
        t >>= u64(11)
        out[:, c : c + w] = t.T
    out[:, :k] *= 2.0**-53


def v1_uniforms(seeds, k: int) -> np.ndarray:
    """Row i is ``Generator(PCG64(seeds[i])).random(k)``, drawn as contract v1 drew it."""
    words = pcg64_words(np.asarray(seeds, dtype=np.uint64))
    out = np.empty((len(words), k))
    if k <= ARRAY_DRAW_EPOCHS:
        pcg64_uniforms(words, k, out)
    else:
        for row, w in zip(out, words):
            row[:] = np.random.Generator(np.random.PCG64(Words(w))).random(k)
    return out
