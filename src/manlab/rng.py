"""Counter-based random streams.

Every random draw in the package is a pure function of
``(seed, stream, counter)``: sample ``i`` of a Monte-Carlo loop uses the
generator at counter ``i``, so serial, chunked and parallel evaluation all
produce bit-identical statistics.  Philox is used because its output for a
given (key, counter) does not depend on how many values were drawn before.

Loops over many counters walk them with ``RngStream.generators``, which
repositions one Philox/Generator pair per counter instead of building a new
pair (a fresh pair costs several times more than resetting the state of an
existing one); the draws are the same as those of ``generator(i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# Multiplier/increment of the splitmix64 step, used to derive child streams.
_SPLIT_MULT = 6364136223846793005
_SPLIT_INC = 1442695040888963407


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

    def substream(self, index: int) -> "RngStream":
        """Derived independent stream (for distinct roles inside one task)."""
        mixed = (self.stream * _SPLIT_MULT + _SPLIT_INC + index) & _MASK64
        return RngStream(self.seed, mixed)
