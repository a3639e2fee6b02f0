#!/usr/bin/env python3
"""Convergence of the operational protocol estimators.

Compares both protocol simulators and the direct commutator oracle against
the closed-form MAN of a factor against an entangled-basis maximal abelian
algebra, at increasing sampling effort.

Usage:
    python scripts/protocol_accuracy.py [--seed 7]
"""

import argparse

import numpy as np

from manlab.algebras import lattice_algebra, masa_from_unitary
from manlab.errors import IllConditionedEstimatorError
from manlab.man import man_collinear
from manlab.protocols import mc_man_direct, protocol_choi, protocol_stochastic
from manlab.rng import RngStream

BELL = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex
) / np.sqrt(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = RngStream(args.seed)

    a = lattice_algebra([2, 2], {0})
    b = masa_from_unitary(BELL)
    exact = man_collinear(a, b).S
    print(f"closed form   S = {exact:.12f}")
    print(f"choi exact    S = {protocol_choi(a, b).estimate:.12f}")
    print(f"stoch exact   S = {protocol_stochastic(a, b).estimate:.12f}\n")

    print(f"{'effort':>8} {'direct oracle':>22} {'protocol 1 (shots)':>22} {'protocol 2 (states)':>22}")
    for effort in (100, 1000, 10_000):
        direct = _cell(mc_man_direct, a, b, effort, rng.substream(1))
        choi = _cell(protocol_choi, a, b, shots=effort, rng=rng.substream(2))
        stoch = _cell(protocol_stochastic, a, b, samples=effort, rng=rng.substream(3))
        print(f"{effort:>8}{direct}{choi}{stoch}")


def _cell(estimator, *args, **kwargs) -> str:
    """One table cell: estimate ± std error, or a note when the ratio is ill-conditioned."""
    try:
        result = estimator(*args, **kwargs)
    except IllConditionedEstimatorError:
        return f" {'ill-conditioned':>22}"
    return f" {result.estimate:>12.6f} ± {result.std_error:<7.5f}"


if __name__ == "__main__":
    main()
