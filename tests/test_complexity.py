"""Complexity contracts of the exact routes, independent of the host's speed.

Wall time on a shared host cannot tell a 5 % change, but the cliffs that
matter are asymptotic: a Python loop per block, or a d^3 array.  These tests
pin the orders instead:

* numpy calls: on a MASA pair (d blocks of shape (1, 1), one shape class) the
  constant routes make as many calls into numpy at d = 64 as at d = 8, so no
  route loops over blocks;
* memory: the tracemalloc peak of each route grows by at most 4.5x when d
  doubles (d^2 arrays grow 4x, a d^3 array would grow 8x).

Counts are compared across d, never against absolute values, so every numpy
version agrees.  `@` products emit no profile event; the memory contract
covers them.
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

from manlab.algebras import masa_from_unitary, structural_algebra
from manlab.linalg import haar_unitary
from manlab.man import a_otoc, entropy_decomposition_man, man_omega, man_projection, self_man
from manlab.rng import RngStream

NUMPY_DIR = os.path.dirname(np.__file__)
MEMORY_RATIO = 4.5


def _in_numpy(frame) -> bool:
    return frame is not None and frame.f_code.co_filename.startswith(NUMPY_DIR)


def _numpy_calls(fn, *args) -> int:
    """Calls from outside numpy into it while fn runs: C functions whose __module__ is
    numpy's, and entries into numpy's Python functions."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and not _in_numpy(frame):
            module = getattr(arg, "__module__", None) or ""
            count += module == "numpy" or module.startswith("numpy.")
        elif event == "call" and _in_numpy(frame) and not _in_numpy(frame.f_back):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def _masa_pair(d):
    return (masa_from_unitary(haar_unitary(d, RngStream(1))),
            masa_from_unitary(haar_unitary(d, RngStream(2))))


def _shapes(name, d):
    return {
        "struct": [(2, d // 4), (1, d // 2)],
        "high-n": [(d // 4, 2), (d // 2, 1)],
        "masa": [(1, 1)] * d,
    }[name]


def _pair(name, d):
    return tuple(structural_algebra(_shapes(name, d), haar_unitary(d, RngStream(seed)))
                 for seed in (1, 2))


ROUTES = {
    "man_omega": lambda a, b, u: man_omega(a, b),
    "man_projection": lambda a, b, u: man_projection(a, b),
    "entropy_decomposition_man": lambda a, b, u: entropy_decomposition_man(a, b),
    "a_otoc": lambda a, b, u: a_otoc(a, u),
    "self_man": lambda a, b, u: self_man(a),
}


@pytest.mark.parametrize("route", ["man_omega", "entropy_decomposition_man", "a_otoc"])
def test_constant_routes_make_a_fixed_number_of_numpy_calls(route):
    counts = []
    for d in (8, 64):
        a, b = _masa_pair(d)
        counts.append(_numpy_calls(ROUTES[route], a, b, haar_unitary(d, RngStream(3))))
    assert counts[0] == counts[1] > 0, (route, counts)


def _peak_bytes(fn, *args) -> int:
    """The tracemalloc peak of fn above what was allocated when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pair", ["struct", "high-n", "masa"])
def test_route_memory_grows_as_d_squared(pair):
    # fresh algebras per call: no route finds another's cached commutant
    over = {}
    for route, fn in ROUTES.items():
        peaks = []
        for d in (32, 64):
            a, b = _pair(pair, d)
            peaks.append(_peak_bytes(fn, a, b, haar_unitary(d, RngStream(3))))
        if peaks[1] > MEMORY_RATIO * peaks[0]:
            over[route] = peaks
    assert not over, (pair, over)
