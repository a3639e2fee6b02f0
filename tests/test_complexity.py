"""Complexity contracts of the exact routes, independent of the host's speed.

Wall time on a shared host cannot tell a 5 % change, but the cliffs that
matter are asymptotic: a Python loop per block, or a d^3 array.  These tests
pin the orders instead:

* numpy calls: on a MASA pair (d blocks of shape (1, 1), one shape class) the
  constant routes make as many calls into numpy at d = 64 as at d = 8, so no
  route loops over blocks;
* memory: the tracemalloc peak of each route grows by at most 4.5x when d
  doubles (d^2 arrays grow 4x, a d^3 array would grow 8x);
* the structure solve: one eigh of the generic element plus one stacked eigh
  per size of eigenspace that the spanning forest links, whatever the block
  count, and the same memory order for generators and dim(A n B');
* the Monte-Carlo estimators: the same memory order at a fixed sample count,
  a peak that four times the samples leaves flat (the chunk budget) and that
  four chunks leave at one chunk's, one QR per run of equal irrep size d_J in
  each Haar draw of an algebra, and as many lines of manlab's own code run
  for one sample on a MASA pair at d = 64 as at d = 8.

Counts are compared across d, never against absolute values, so every numpy
version agrees.  `@` products emit no profile event; the memory contract
and the line count cover them.
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

import manlab
from manlab.algebras import (
    _haar_algebra_unitaries,
    algebra_from_generators,
    commutant_intersection_dim,
    masa_from_unitary,
    structural_algebra,
)
from manlab.linalg import dagger, haar_unitary
from manlab.man import a_otoc, entropy_decomposition_man, man_omega, man_projection, self_man
from manlab.protocols import (
    markov_bound_check,
    mc_man_direct,
    mc_orbit_averaged_man,
    protocol_stochastic,
)
from manlab.rng import RngStream

NUMPY_DIR = os.path.dirname(np.__file__)
MANLAB_DIR = os.path.dirname(manlab.__file__)
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


def _manlab_lines(fn, *args) -> int:
    """Line events in files under manlab's package directory while fn runs.

    A Python loop per block shows here whatever its body calls, `@` products
    included, where _numpy_calls sees none of them."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(MANLAB_DIR) else None

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def _masa_pair(d):
    return (masa_from_unitary(haar_unitary(d, RngStream(1))),
            masa_from_unitary(haar_unitary(d, RngStream(2))))


def _shapes(name, d):
    return {
        "struct": [(2, d // 4), (1, d // 2)],
        "high-n": [(d // 4, 2), (d // 2, 1)],
        "masa": [(1, 1)] * d,
        "full": [(1, d)],
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


ESTIMATORS = {
    "mc_man_direct": lambda a, b, n: mc_man_direct(a, b, n, RngStream(4)),
    "mc_orbit_averaged_man": lambda a, b, n: mc_orbit_averaged_man(a, b, n, RngStream(5)),
    "markov_bound_check": lambda a, b, n: markov_bound_check(
        a, b, epsilon=0.5, samples=n, state_samples=2, rng=RngStream(6)),
    "protocol_stochastic": lambda a, b, n: protocol_stochastic(a, b, samples=n, rng=RngStream(7)),
}


def _estimator_cases():
    # sampled protocol_stochastic needs a collinear A: of the three pairs, only masa
    for pair in ("struct", "high-n", "masa"):
        for name in ESTIMATORS:
            if name != "protocol_stochastic" or pair == "masa":
                yield pair, name


@pytest.mark.parametrize("pair,estimator", list(_estimator_cases()))
def test_estimator_memory_grows_as_d_squared(pair, estimator):
    # two samples fit one chunk at both d, so no chunk-sized floor hides a d^3 array
    peaks = [_peak_bytes(ESTIMATORS[estimator], *_pair(pair, d), 2) for d in (32, 64)]
    assert peaks[1] <= MEMORY_RATIO * peaks[0], peaks


@pytest.mark.parametrize("pair,estimator", list(_estimator_cases()))
def test_estimator_memory_is_flat_in_samples(pair, estimator):
    # chunks hold a fixed number of entries; 16 samples at d = 32 already fill two
    # chunks, since one chunk's arrays are still held while the next is drawn
    peaks = [_peak_bytes(ESTIMATORS[estimator], *_pair(pair, 32), n) for n in (16, 64)]
    assert abs(peaks[1] / peaks[0] - 1) < 0.1, peaks


@pytest.mark.parametrize("shapes,runs", [
    ([(1, 1)] * 64, 1),
    ([(1, 2), (1, 2), (2, 2)], 1),
    ([(2, 8), (1, 16)], 2),
])
def test_haar_draw_makes_one_qr_per_irrep_size(shapes, runs, monkeypatch):
    d = sum(n * dj for n, dj in shapes)
    dec = structural_algebra(shapes, haar_unitary(d, RngStream(1))).decomposition()
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda z: calls.append(z.shape) or qr(z))
    _haar_algebra_unitaries(dec, RngStream(2), 0, 4)
    assert len(calls) == runs, calls


@pytest.mark.parametrize("pair,estimator", list(_estimator_cases()))
def test_estimator_peak_is_one_chunk(pair, estimator):
    # at d = 32 one chunk is 8 samples (Markov with 2 states per sample: 4); each
    # chunk's arrays are released before the next is drawn, so four chunks peak as one
    one = 4 if estimator == "markov_bound_check" else 8
    peaks = [_peak_bytes(ESTIMATORS[estimator], *_pair(pair, 32), n) for n in (one, 4 * one)]
    assert peaks[1] <= 1.05 * peaks[0], peaks


LINE_ESTIMATORS = {
    "mc_man_direct": lambda a, b: mc_man_direct(a, b, 1, RngStream(4)),
    "markov_bound_check": lambda a, b: markov_bound_check(
        a, b, epsilon=0.5, samples=1, state_samples=1, rng=RngStream(6)),
    "mc_orbit_averaged_man": lambda a, b: mc_orbit_averaged_man(a, b, 1, RngStream(5)),
}


@pytest.mark.parametrize("estimator", list(LINE_ESTIMATORS))
def test_estimators_run_no_python_loop_per_block(estimator):
    # one sample is one chunk at every d; the decompositions' lazy reads are done
    # first, so only the estimator's own lines are counted
    counts = []
    for d in (8, 64):
        a, b = _masa_pair(d)
        for dec in (a.decomposition(), b.decomposition()):
            dec.classes, dec.blocks, dec.summary
        counts.append(_manlab_lines(LINE_ESTIMATORS[estimator], a, b))
    assert counts[0] == counts[1] > 0, (estimator, counts)


def _generators(name, d, count=2):
    """count elements of the named algebra in a Haar basis, a Haar unitary core on
    each block: one has distinct eigenvalues on a masa, and two generate the algebra."""
    dec = structural_algebra(_shapes(name, d), haar_unitary(d, RngStream(1))).decomposition()
    gens = []
    for seed in range(count):
        x = np.zeros((d, d), dtype=complex)
        for j, b in enumerate(dec.blocks):
            core = np.kron(np.eye(b.n), haar_unitary(b.d, RngStream(10 + seed), counter=j))
            x += b.isometry @ core @ dagger(b.isometry)
        gens.append(x)
    return gens


@pytest.mark.parametrize("name,count,eighs", [
    ("masa", 1, 1),    # d eigenspaces of dimension 1 and no link between them
    ("full", 2, 2),    # d - 1 links between eigenspaces of dimension 1
    ("struct", 2, 3),  # links between eigenspaces of dimension 2, and of dimension 1
    ("high-n", 2, 2),  # one link between two eigenspaces of dimension d/4
])
def test_structure_solve_makes_one_eigh_per_cluster_size(name, count, eighs, monkeypatch):
    d = 64
    gens = _generators(name, d, count)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    alg = algebra_from_generators(gens, d)
    # a retried draw would count twice
    assert sorted(alg.decomposition().shapes) == sorted(_shapes(name, d))
    assert len(calls) == eighs, calls


@pytest.mark.parametrize("pair", ["struct", "high-n", "masa"])
def test_structure_solve_memory_grows_as_d_squared(pair):
    peaks = {"algebra_from_generators": [], "commutant_intersection_dim": []}
    for d in (32, 64):
        gens = _generators(pair, d)
        peaks["algebra_from_generators"].append(_peak_bytes(algebra_from_generators, gens, d))
        # fresh algebras: the commutant frame is built inside the call at both d
        peaks["commutant_intersection_dim"].append(
            _peak_bytes(commutant_intersection_dim, *_pair(pair, d)))
    over = {route: p for route, p in peaks.items() if p[1] > MEMORY_RATIO * p[0]}
    assert not over, (pair, peaks)
