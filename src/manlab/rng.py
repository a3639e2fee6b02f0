"""Counter-based random streams.

Every random draw in the package is a pure function of
``(seed, stream, counter)``: sample ``i`` of a Monte-Carlo loop draws at
counter ``i``, so serial, chunked and parallel evaluation all produce
bit-identical statistics.

One hash serves every normal draw: the Monte-Carlo samplers, the public Haar
draws and the structure solve's generic coefficients.  ``normals`` hashes
(seed, stream, counter, index) with the SplitMix64 finalizer (Steele, Lea &
Flood, OOPSLA 2014) and applies Box-Muller, in plain numpy arithmetic.
``normal_rows`` draws many counters at once: the per-counter keys, the hash
words and the Box-Muller step run as whole arrays, in place, with no Python
loop over counters, and row ``i - start`` is bit for bit ``normals(i, n)``.
``uniform_rows`` returns the same words as uniforms; the binomial shot noise
of the swap tests is drawn from them.  Loading ``numpy.random`` costs a fresh
process more than a whole structure solve, and no command imports it:
Philox (``generator``) is kept as public API only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
# Counters occupy two 64-bit words of the key (and of Philox's counter).
_COUNTER_LIMIT = 1 << 128

# Multiplier/increment of the splitmix64 step, used to derive child streams.
_SPLIT_MULT = 6364136223846793005
_SPLIT_INC = 1442695040888963407

# SplitMix64: the golden-ratio increment and the two finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The same finalizer on a uint64 array, in place; array arithmetic wraps silently."""
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _check_counters(start: int, stop: int) -> None:
    if start < 0:
        raise ValueError("counter must be non-negative")
    if stop > _COUNTER_LIMIT:
        raise ValueError("counter must be below 2**128")


@dataclass(frozen=True)
class RngStream:
    """Immutable handle on a family of counter-indexed draws."""

    seed: int
    stream: int = 0

    def generator(self, counter: int = 0) -> np.random.Generator:
        """Philox generator positioned at `counter`; same arguments, same draws.

        No estimator uses it, calling it imports ``numpy.random``, and it is
        held for perfbench/tracer.py until ROADMAP item 1b.
        """
        _check_counters(counter, counter + 1)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        ctr = np.array([0, counter & _MASK64, counter >> 64, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=ctr))

    def normals(self, counter: int, n: int) -> np.ndarray:
        """n standard normals hashed from (seed, stream, counter); no numpy.random.

        Word j is the SplitMix64 finalizer of key + (j + 1) * golden, where
        the key mixes seed, stream and the two 64-bit words of the counter.
        Words 2i and 2i + 1 become uniforms in (0, 1), and Box-Muller turns
        that pair into normals 2i and 2i + 1.  Normal i depends only on the
        key and i, so the first k of n draws are the draws for n = k.
        """
        return self.normal_rows(counter, counter + 1, n)[0]

    def normal_rows(self, start: int, stop: int, n: int) -> np.ndarray:
        """(stop - start, n) normals whose row i - start is normals(i, n)."""
        pairs = (n + 1) // 2
        u = self.uniform_rows(start, stop, 2 * pairs)
        # log and cos/sin keep contiguous outputs: their SIMD paths depend on strides
        radius = np.log(u[:, 0::2])
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = np.multiply(u[:, 1::2], 2.0 * np.pi)
        trig = np.cos(angle)
        np.multiply(radius, trig, out=u[:, 0::2])
        np.sin(angle, out=trig)
        np.multiply(radius, trig, out=u[:, 1::2])
        return u[:, :n]

    def uniform_rows(self, start: int, stop: int, n: int) -> np.ndarray:
        """(stop - start, n) uniforms in (0, 1]; entry j of row i - start is word j of counter i.

        The words of ``normals(i, n)``: the top 53 bits of each, offset by half
        a step, so never 0 (and 1 only once in 2**53 words).
        """
        _check_counters(start, stop)
        rows = max(stop - start, 0)
        key = 0  # seed and stream are shared by every row: mixed once, in Python ints
        for word in (self.seed, self.stream):
            key = _mix64(((key + _GOLDEN) & _MASK64) ^ (word & _MASK64))
        first = np.uint64(start & _MASK64)
        keys = np.arange(rows, dtype=np.uint64)
        keys += first  # wraps past 2**64 ...
        high = (keys < first).astype(np.uint64)
        high += np.uint64(start >> 64)  # ... and carries
        keys ^= np.uint64((key + _GOLDEN) & _MASK64)
        keys = _mix64_array(keys)
        keys += np.uint64(_GOLDEN)
        keys ^= high
        keys = _mix64_array(keys)
        words = np.arange(1, n + 1, dtype=np.uint64)
        words *= np.uint64(_GOLDEN)
        words = _mix64_array(words + keys[:, None])
        words >>= np.uint64(11)
        u = words.astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u

    def substream(self, index: int) -> "RngStream":
        """Derived independent stream (for distinct roles inside one task)."""
        mixed = (self.stream * _SPLIT_MULT + _SPLIT_INC + index) & _MASK64
        return RngStream(self.seed, mixed)
