"""The numpy engines behind lcforge.census: coset counts and sampled draws.

Exhaustive censuses score no sequence.  L(s) is N minus the multiplicity
of (1+x) in s(x), so the periods with L <= c are the 2^c multiples of
(1+x)^(N-c), and L_k(s) <= c holds exactly when some error pattern of
weight <= k is congruent to s modulo (1+x)^(N-c).  The census counts the
residues that light patterns reach, for every c at once, in the calling
process.

Sampled censuses draw values from a counter-based hash stream, so the
same (seed, count) always yields the same draws.  They too run in the
calling process, 8 192 draws at a time: each draw is looked up among the
sorted (1+x)^j words of the patterns of weight <= k, and the nearer
neighbour gives L_k.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

from .census import SequenceClass, class_size

# draws scored at once: bounds a sampled census's temporaries for any count
_BLOCK_ROWS = 1 << 13


def _pattern_words(n: int, k: int, parity: int | None) -> np.ndarray:
    """Every pattern of weight <= k (of that parity, if given), packed."""
    bits = np.uint64(1) << np.arange(1 << n, dtype=np.uint64)
    layer = np.zeros(1, dtype=np.uint64)  # the patterns of one weight, sorted
    patterns = [layer] if parity != 1 else []
    for weight in range(1, k + 1):
        # the patterns below bit i are a prefix of the sorted layer
        cuts = np.searchsorted(layer, bits).tolist()
        layer = np.concatenate([layer[:cut] | bit for cut, bit in zip(cuts, bits)])
        if parity is None or weight & 1 == parity:
            patterns.append(layer)
    return np.concatenate(patterns) if patterns else layer[:0]


def _lucas(words: np.ndarray, n: int) -> np.ndarray:
    """In place: bit j becomes the XOR of bits i whose bits are among j's.

    That is the coordinate a_j in the basis (1+x)^j of the reflected period
    i -> N-1-i, at bit N-1-j; reflection keeps weights, L and L_k.
    """
    for step in (1 << b for b in range(n)):
        upper = sum(1 << j for j in range(1 << n) if j & step)
        words ^= (words << np.uint64(step)) & np.uint64(upper)
    return words


def _light_words(n: int, k: int, parity: int | None) -> np.ndarray:
    """The sorted (1+x)^j words of every pattern of weight <= k (and that parity)."""
    return np.sort(_lucas(_pattern_words(n, k, parity), n))


def _coset_tally(n: int, k: int, seq_class: SequenceClass) -> list[int]:
    """Exact per-L census of the class, counted by cosets of (1+x)^m.

    Write a pattern e as the sum of a_j (1+x)^j; by Lucas' theorem a_j is
    the XOR of e_i over every i whose bits contain j's bits, and e mod
    (1+x)^m is fixed by a_0..a_(m-1).  With a_j packed at bit N-1-j, the
    number D(m) of distinct residues mod (1+x)^m is one more than the
    number of adjacent sorted words that differ in their top m bits.
    #{L_k <= c} is then 2^c * D(N-c) for c < N.  Every multiple of (1+x)
    has even weight, so the full class counts odd-weight patterns only
    and the less class even-weight ones.
    """
    period = 1 << n
    words = _light_words(n, k, seq_class.parity)
    if not len(words):  # the full class with k = 0
        return [0] * period + [class_size(n, seq_class)]
    # bit length of each adjacent XOR, 0 for a repeated word; frexp is
    # exact below 2^53 (n <= 5), here and in _sampled_tally
    _, lengths = np.frexp(words[1:] ^ words[:-1])
    longer = np.bincount(lengths, minlength=period + 1)[::-1].cumsum()[::-1]
    at_most = [(1 << c) * (1 + int(longer[c + 1])) for c in range(period)]
    at_most.append(class_size(n, seq_class))
    return [at_most[0]] + [b - a for a, b in zip(at_most, at_most[1:])]


def _draws(seed: int, lo: int, hi: int, n: int, seq_class: SequenceClass) -> np.ndarray:
    """Draws lo..hi-1 of the stream keyed by `seed`, packed as uint64.

    Draw i hashes (seed, i) with blake2b and then forces the class
    parity.  For a parity class, 2^n - 1 hash bits choose the low
    positions freely and the top position is set to fix the parity;
    every class member arises from exactly one bit string, so draws are
    uniform on the class.
    """
    keyed = blake2b(seed.to_bytes(8, "big"), digest_size=8)
    digests = bytearray()
    for index in range(lo, hi):
        draw = keyed.copy()
        draw.update(index.to_bytes(8, "big"))
        digests += draw.digest()
    words = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    period, parity = 1 << n, seq_class.parity
    if parity is None:
        return words & np.uint64((1 << period) - 1)
    free = words & np.uint64((1 << (period - 1)) - 1)
    top = ((np.bitwise_count(free) & 1) ^ parity).astype(np.uint64)
    return free | top << np.uint64(period - 1)


def _sampled_tally(
    n: int, k: int, seq_class: SequenceClass, seed: int, count: int
) -> list[int]:
    """Per-L tally of the first `count` draws, scored by their nearest light words."""
    # all patterns of weight <= k, whatever the class: 0 is always one
    light = _light_words(n, k, None)
    tally = np.zeros((1 << n) + 1, dtype=np.int64)
    for start in range(0, count, _BLOCK_ROWS):
        end = min(count, start + _BLOCK_ROWS)
        words = _lucas(_draws(seed, start, end, n, seq_class), n)
        above = np.searchsorted(light, words)
        left = light[np.maximum(above, 1) - 1]
        right = light[np.minimum(above, len(light) - 1)]
        _, lengths = np.frexp(np.minimum(words ^ left, words ^ right))
        tally += np.bincount(lengths, minlength=len(tally))
    return tally.tolist()
