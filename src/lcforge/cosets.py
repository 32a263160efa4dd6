"""The numpy engines of lcforge's censuses: coset counts and sampled draws.

This is the one module of the package that imports numpy, and it serves
the censuses only.  census_distribution imports it, and numpy with it,
when it runs, so `import lcforge` loads no numpy.

Every census routine takes the weight parity of the sequences it counts
or draws, 1, 0 or None for any; lcforge.census maps its classes to these.

Exhaustive censuses score no sequence.  L(s) is N minus the multiplicity
of (1+x) in s(x), so the periods with L <= c are the 2^c multiples of
(1+x)^(N-c), and L_k(s) <= c holds exactly when some error pattern of
weight <= k is congruent to s modulo (1+x)^(N-c).  The census counts the
residues that light patterns reach, for every c at once, in the calling
process.  The map to (1+x)^j words is linear, so only the N unit
patterns are transformed and every light word is built by XOR, one
weight at a time; a class sorts only the weights of its parity.

Sampled censuses draw values from a counter-based hash stream, so the
same (seed, count) always yields the same draws.  They too run in the
calling process, 8 192 draws at a time: each draw is looked up among the
same sorted words, of every pattern of weight <= k, and the nearer
neighbour gives L_k.
"""

from __future__ import annotations

# hashlib.blake2b is this same builtin, but importing hashlib also loads
# OpenSSL's libcrypto, about 3.4 MiB of resident memory
from _blake2 import blake2b
from math import comb

import numpy as np

# draws scored at once: bounds a sampled census's temporaries for any count
_BLOCK_ROWS = 1 << 13


def _lucas(words: np.ndarray, n: int) -> np.ndarray:
    """In place: bit j becomes the XOR of bits i whose bits are among j's.

    That is the coordinate a_j in the basis (1+x)^j of the reflected period
    i -> N-1-i, at bit N-1-j; reflection keeps weights, L and L_k.
    """
    ones = (1 << (1 << n)) - 1
    for step in (1 << b for b in range(n)):
        # the positions j with j & step: `step` ones above `step` zeros, repeated
        upper = ones // ((1 << 2 * step) - 1) * (((1 << step) - 1) << step)
        words ^= (words << np.uint64(step)) & np.uint64(upper)
    return words


def _prefix_index(sizes: np.ndarray) -> np.ndarray:
    """0, 1, .., size - 1 for each of `sizes` in turn, as one index array.

    Each run's start is subtracted in place, so the index needs one
    temporary of its length, freed before the caller gathers with it.
    """
    index = np.arange(int(sizes.sum()))
    index -= np.repeat(np.cumsum(sizes) - sizes, sizes)
    return index


def _light_words(n: int, k: int, parity: int | None) -> np.ndarray:
    """The sorted (1+x)^j words of every pattern of weight <= k and of that
    weight parity (any for None), XORs of unit words."""
    period = 1 << n
    unit = _lucas(np.uint64(1) << np.arange(period, dtype=np.uint64), n)
    layer = np.zeros(1, dtype=np.uint64)
    layers = [layer]
    for w in range(k):
        # a layer lists one weight by highest position, so its C(i, w)
        # words below position i are a prefix; the next weight is that
        # prefix XOR unit[i] for each position i >= w in turn
        sizes = np.array([comb(i, w) for i in range(w, period)])
        layer = layer[_prefix_index(sizes)]
        layer ^= np.repeat(unit[w:], sizes)
        layers.append(layer)
    if parity is not None:
        layers = layers[parity::2]  # layers[w] holds weight w
    # sorted in place: a sorted copy would raise the peak by half
    words = np.concatenate(layers) if layers else np.zeros(0, dtype=np.uint64)
    words.sort()
    return words


def _bit_lengths(words: np.ndarray) -> np.ndarray:
    """The bit length of each uint64 word, 0 for 0.

    frexp goes through float64, so it is exact below 2^53: every word of
    a period of at most 32 bits (n <= 5), the census cap.
    """
    return np.frexp(words)[1]


def _coset_tally(n: int, k: int, parity: int | None) -> list[int]:
    """Exact per-L census of the sequences of that parity, for L = 0..N.

    Write a pattern e as the sum of a_j (1+x)^j; by Lucas' theorem a_j is
    the XOR of e_i over every i whose bits contain j's bits, and e mod
    (1+x)^m is fixed by a_0..a_(m-1).  With a_j packed at bit N-1-j, the
    number D(m) of distinct residues mod (1+x)^m is one more than the
    number of adjacent sorted words that differ in their top m bits, or
    0 when no pattern is light.  #{L_k <= c} is then 2^c * D(N-c) for
    c < N, and #{L_k <= N} is the whole class: 2^N, or 2^(N-1) for a
    parity.  Every multiple of (1+x) has even weight, so a class is
    reached by the patterns of its weight parity only.
    """
    period = 1 << n
    words = _light_words(n, k, parity)
    # 0 for a repeated word
    lengths = _bit_lengths(words[1:] ^ words[:-1])
    longer = np.bincount(lengths, minlength=period + 1)[::-1].cumsum()[::-1]
    distinct = min(len(words), 1)
    at_most = [(1 << c) * (distinct + int(longer[c + 1])) for c in range(period)]
    at_most.append((1 << period) >> (parity is not None))
    return [at_most[0]] + [b - a for a, b in zip(at_most, at_most[1:])]


def _draws(seed: int, lo: int, hi: int, n: int, parity: int | None) -> np.ndarray:
    """Draws lo..hi-1 of the stream keyed by `seed`, packed as uint64.

    Draw i hashes (seed, i) with blake2b and then forces the weight
    parity, if one is given: 2^n - 1 hash bits choose the low positions
    freely and the top position is set to fix the parity; every period
    of that parity arises from exactly one bit string, so draws are
    uniform on them.
    """
    keyed = blake2b(seed.to_bytes(8, "big"), digest_size=8)
    digests = bytearray()
    for index in range(lo, hi):
        draw = keyed.copy()
        draw.update(index.to_bytes(8, "big"))
        digests += draw.digest()
    words = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    period = 1 << n
    if parity is None:
        return words & np.uint64((1 << period) - 1)
    free = words & np.uint64((1 << (period - 1)) - 1)
    top = ((np.bitwise_count(free) & 1) ^ parity).astype(np.uint64)
    return free | top << np.uint64(period - 1)


def _sampled_tally(
    n: int, k: int, parity: int | None, seed: int, count: int
) -> list[int]:
    """Per-L tally of the first `count` draws, scored by their nearest light words."""
    # all patterns of weight <= k, whatever the parity: 0 is always one
    light = _light_words(n, k, None)
    tally = np.zeros((1 << n) + 1, dtype=np.int64)
    for start in range(0, count, _BLOCK_ROWS):
        end = min(count, start + _BLOCK_ROWS)
        words = _lucas(_draws(seed, start, end, n, parity), n)
        above = np.searchsorted(light, words)
        left = light[np.maximum(above, 1) - 1]
        right = light[np.minimum(above, len(light) - 1)]
        lengths = _bit_lengths(np.minimum(words ^ left, words ^ right))
        tally += np.bincount(lengths, minlength=len(tally))
    return tally.tolist()

