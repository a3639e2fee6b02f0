"""Counter-based random streams.

Every random draw in the package is a pure function of
``(seed, stream, counter)``: sample ``i`` of a Monte-Carlo loop uses the
generator at counter ``i``, so serial, chunked and parallel evaluation all
produce bit-identical statistics.

Two sources serve two needs:

* Monte-Carlo statistics draw from Philox (``generator``, ``generators``),
  whose output for a given (key, counter) does not depend on how many values
  were drawn before.  Loops over many counters walk them with
  ``RngStream.generators``, which repositions one Philox/Generator pair per
  counter instead of building a new pair (a fresh pair costs several times
  more than resetting the state of an existing one); the draws are the same
  as those of ``generator(i)``.
* The structure solve needs only a few generic coefficients per attempt, and
  their statistics hardly matter: any continuous draw avoids the degenerate
  set.  ``normals`` hashes (seed, stream, counter, index) with the SplitMix64
  finalizer (Steele, Lea & Flood, OOPSLA 2014) and applies Box-Muller, in
  plain numpy arithmetic.  Loading ``numpy.random`` costs a fresh process
  more than the whole solve, so a command that does not sample never
  imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

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
    """The same finalizer on a uint64 array; array arithmetic wraps silently."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _counter_words(counter: int) -> list[int]:
    if counter < 0:
        raise ValueError("counter must be non-negative")
    return [0, counter & _MASK64, (counter >> 64) & _MASK64, 0]


@dataclass(frozen=True)
class RngStream:
    """Immutable handle on a family of counter-indexed generators."""

    seed: int
    stream: int = 0

    def generator(self, counter: int = 0) -> np.random.Generator:
        """Generator positioned at `counter`; same arguments, same draws."""
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        ctr = np.array(_counter_words(counter), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=ctr))

    def generators(self, start: int, stop: int) -> Iterator[np.random.Generator]:
        """The generators at counters start, ..., stop - 1, in order.

        One Generator is yielded again and again, each time reset to the
        fresh state of ``generator(i)`` (counter i, empty output buffer), so
        it draws exactly what ``generator(i)`` draws.  It is only valid until
        the next one is requested.
        """
        if stop <= start:
            return
        gen = self.generator(start)
        bit_gen = gen.bit_generator
        fresh = bit_gen.state
        words = fresh["state"]["counter"]
        for i in range(start, stop):
            words[:] = _counter_words(i)
            bit_gen.state = fresh
            yield gen

    def normals(self, counter: int, n: int) -> np.ndarray:
        """n standard normals hashed from (seed, stream, counter); no numpy.random.

        Word j is the SplitMix64 finalizer of key + (j + 1) * golden, where
        the key mixes seed, stream and counter.  Words 2i and 2i + 1 become
        uniforms in (0, 1), and Box-Muller turns that pair into normals 2i
        and 2i + 1.  Normal i depends only on the key and i, so the first k
        of n draws are the draws for n = k.
        """
        key = 0
        for word in (self.seed, self.stream, *_counter_words(counter)[1:3]):
            key = _mix64(((key + _GOLDEN) & _MASK64) ^ (word & _MASK64))
        pairs = (n + 1) // 2
        index = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
        words = _mix64_array(index * np.uint64(_GOLDEN) + np.uint64(key))
        # the top 53 bits, offset by half a step: never 0, never 1
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]

    def substream(self, index: int) -> "RngStream":
        """Derived independent stream (for distinct roles inside one task)."""
        mixed = (self.stream * _SPLIT_MULT + _SPLIT_INC + index) & _MASK64
        return RngStream(self.seed, mixed)
