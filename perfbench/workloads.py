"""Seeded inputs, reference values and correctness checks for the three workloads.

Block structures and sample counts are fixed per workload, so every seed asks
for the same amount of work; the seed only draws the Haar bases, the random
generator elements, the lattice regions and the Monte-Carlo seeds.

Reference values never come from manlab.  S(A:B) is evaluated from the block
data with the block-overlap identity: for blocks J of A (isometry V_J, sizes
n_J, d_J) and K of B (W_K, n_K, d_K), with M = W_K^dag V_J read as
(n_K, d_K, n_J, d_J) and N = M.transpose(0, 3, 1, 2) reshaped to
(n_K d_J, d_K n_J),

    S = 1 - (1/d) sum_{J,K} ||N^dag N||_F^2 / (d_J d_K).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

EXACT_TOL = 1e-9
MC_SIGMAS = 5.0

# A check returns None when the report is correct, else the reason it is not.
Check = Callable[[dict], Optional[str]]


@dataclass(frozen=True)
class Command:
    """One manlab invocation: CLI arguments after `manlab`, and its check."""

    name: str
    argv: tuple[str, ...]
    check: Check
    # The known failure of the structure solver (see build_structure_solve):
    # an exit caused by running out of memory is recorded, not an error.
    probe: bool = False


@dataclass(frozen=True)
class Blocks:
    """Block data [(n_J, d_J), ...] placed in the basis given by `unitary`."""

    dims: tuple[tuple[int, int], ...]
    unitary: np.ndarray

    @property
    def d(self) -> int:
        return self.unitary.shape[0]

    def isometries(self) -> list[tuple[int, int, np.ndarray]]:
        out, offset = [], 0
        for n, dj in self.dims:
            out.append((n, dj, self.unitary[:, offset: offset + n * dj]))
            offset += n * dj
        return out

    def commutant_image(self, u: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
        """Blocks of U A' U^dag: A' reads M_n (x) 1_d, so the two factors swap."""
        out = []
        for n, dj, v in self.isometries():
            w = (u @ v).reshape(self.d, n, dj).transpose(0, 2, 1).reshape(self.d, n * dj)
            out.append((dj, n, w))
        return out


# -- reference values ----------------------------------------------------------


def man_reference(blocks_a, blocks_b, d: int) -> float:
    total = 0.0
    for n_j, d_j, v in blocks_a:
        for n_k, d_k, w in blocks_b:
            m = (w.conj().T @ v).reshape(n_k, d_k, n_j, d_j)
            nm = m.transpose(0, 3, 1, 2).reshape(n_k * d_j, d_k * n_j)
            total += np.linalg.norm(nm.conj().T @ nm) ** 2 / (d_j * d_k)
    return 1.0 - total / d


def pair_reference(a: Blocks, b: Blocks) -> float:
    return man_reference(a.isometries(), b.isometries(), a.d)


def self_reference(a: Blocks) -> float:
    return 1.0 - sum(n / dj for n, dj in a.dims) / a.d


def orbit_reference(a: Blocks, b: Blocks) -> float:
    d2 = a.d ** 2
    s_al = 1.0 - sum(n * n for n, _ in a.dims) / d2
    s_bl = 1.0 - sum(n * n for n, _ in b.dims) / d2
    return s_al * s_bl / (1.0 - 1.0 / d2)


def masa_reference(u1: np.ndarray, u2: np.ndarray) -> tuple[float, float]:
    """(S, Q) of two maximal abelian algebras given by their basis unitaries."""
    d = u1.shape[0]
    x = np.abs(u1.conj().T @ u2) ** 2
    s = 1.0 - float(np.sum(x ** 2)) / d
    q = float(np.linalg.eigvalsh(np.eye(d) - x.T @ x)[-1]) / d
    return s, q


# -- checks --------------------------------------------------------------------


def _close(label: str, got, want: float, tol: float = EXACT_TOL) -> Optional[str]:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return f"{label} = {got!r}, expected {want!r} (tol {tol:g})"
    return None


def _within_errors(label: str, est: dict, want: float) -> Optional[str]:
    value, se = est.get("estimate"), est.get("std_error")
    if not isinstance(value, float) or not isinstance(se, float) or not se > 0.0:
        return f"{label}: estimate {value!r} with std_error {se!r}"
    if abs(value - want) > MC_SIGMAS * se:
        return f"{label} = {value!r} +- {se!r}, more than {MC_SIGMAS:g} std errors from {want!r}"
    return None


def check_s(want: float) -> Check:
    return lambda rep: _close("S", rep["result"].get("S"), want)


def check_bounds(want: float) -> Check:
    def check(rep):
        res = rep["result"]
        over = [k for k in ("commutant_bound", "weak_bound", "intersection_bound")
                if k in res and res["S"] > res[k] + EXACT_TOL]
        return _close("S", res.get("S"), want) or (f"S exceeds {over}" if over else None)
    return check


def check_quantumness(s_want: float, q_want: float) -> Check:
    def check(rep):
        res = rep["result"]
        if not (res.get("lower_holds") and res.get("upper_holds")):
            return "Q <= S <= dQ does not hold"
        return _close("Q", res.get("Q"), q_want) or _close("S", res.get("S"), s_want)
    return check


def check_estimate(want: float) -> Check:
    return lambda rep: _within_errors("estimate", rep["result"], want)


def check_orbit(want: float) -> Check:
    def check(rep):
        res = rep["result"]
        value = res.get("value")
        return _close("value", value, want) or _within_errors(
            "mc_estimate", res.get("mc_estimate", {}), value
        )
    return check


def check_markov(want: float) -> Check:
    def check(rep):
        res = rep["result"]
        if res.get("violated") is not False:
            return f"tail bound reported violated={res.get('violated')!r}"
        if not 0.0 <= res.get("probability", -1.0) <= 1.0:
            return f"probability {res.get('probability')!r} outside [0, 1]"
        return _close("S", res.get("S"), want)
    return check


def check_analyze(blocks: Blocks) -> Check:
    want = sorted(blocks.dims)

    def check(rep):
        res = rep["result"]
        got = sorted(zip(res.get("n", []), res.get("d_blocks", [])))
        if got != want:
            return f"(n, d_blocks) = {got}, generated {want}"
        if res.get("d_alg") != sum(dj * dj for _, dj in want):
            return f"d_alg = {res.get('d_alg')!r} does not match the block data"
        return None
    return check


# -- input files ---------------------------------------------------------------


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _matrix(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


class InputDir:
    """Writes the spec and unitary files the program reads."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, payload: dict) -> str:
        path = self.root / name
        path.write_text(json.dumps(payload))
        return str(path)

    def structural(self, name: str, blocks: Blocks) -> str:
        return self.write(name, {"dim": blocks.d, "kind": "structural",
                                 "blocks": [list(b) for b in blocks.dims],
                                 "basis_change": _matrix(blocks.unitary)})

    def generators(self, name: str, blocks: Blocks, gen: np.random.Generator) -> str:
        """Two random elements of the structural algebra; generically they generate it."""
        mats = []
        for _ in range(2):
            x = np.zeros((blocks.d, blocks.d), dtype=complex)
            for n, dj, v in blocks.isometries():
                core = gen.standard_normal((dj, dj)) + 1j * gen.standard_normal((dj, dj))
                x += v @ np.kron(np.eye(n), core) @ v.conj().T
            mats.append(_matrix(x))
        return self.write(name, {"dim": blocks.d, "kind": "generators", "matrices": mats})

    def masa(self, name: str, u: np.ndarray) -> str:
        return self.write(name, {"dim": u.shape[0], "kind": "masa", "unitary": _matrix(u)})

    def lattice(self, name: str, sites: int, region) -> str:
        return self.write(name, {"dim": 2 ** sites, "kind": "lattice",
                                 "site_dims": [2] * sites, "region": sorted(region)})

    def unitary(self, name: str, u: np.ndarray) -> str:
        return self.write(name, {"dim": u.shape[0], "matrix": _matrix(u)})


def _blocks(dims, gen) -> Blocks:
    d = sum(n * dj for n, dj in dims)
    return Blocks(tuple(dims), haar_unitary(d, gen))


def _lattice_pair(files: InputDir, sites: int, gen) -> tuple[str, str, float]:
    """Two random regions of ceil(sites/2) qubits; S = 1 - 2^(-2|S1 n S2|)."""
    size = (sites + 1) // 2
    r1 = set(gen.choice(sites, size, replace=False).tolist())
    r2 = set(gen.choice(sites, size, replace=False).tolist())
    a = files.lattice(f"lat{sites}a.json", sites, r1)
    b = files.lattice(f"lat{sites}b.json", sites, r2)
    return a, b, 1.0 - 2.0 ** (-2 * len(r1 & r2))


def cli_start_command(files: InputDir) -> Command:
    """The cheapest command there is: two one-qubit lattice specs, closed form."""
    a = files.lattice("tiny_a.json", 1, [0])
    b = files.lattice("tiny_b.json", 1, [])
    return Command("cli_start", ("lattice", a, b), check_s(0.0))


# -- workloads -----------------------------------------------------------------

# exact_ladder: structural pairs in Haar-random bases, where the structure is
# known at construction.  Time goes to basis conjugation while building the
# algebras and to the d^4 closed-form objects (omega); the commutant solver and
# Monte-Carlo do no work.  The d = 64 pair is left out: its one `man` command
# alone runs for about 45 s, longer than a whole run may take.
LADDER = (
    (((2, 2),), ((1, 2), (2, 1))),
    (((1, 2), (3, 2)), ((2, 2), (4, 1))),
    (((2, 4), (4, 2)), ((4, 4),)),
    (((4, 4), (2, 8)), ((8, 2), (2, 8))),
)
LATTICE_SITES = (2, 3, 4, 5, 6)
OMEGA_LATTICE_SITES = (4, 5)


def build_exact_ladder(files: InputDir, gen: np.random.Generator) -> list[Command]:
    cmds = []
    for dims_a, dims_b in LADDER:
        a, b = _blocks(dims_a, gen), _blocks(dims_b, gen)
        d = a.d
        pa, pb = files.structural(f"a{d}.json", a), files.structural(f"b{d}.json", b)
        s = pair_reference(a, b)
        u = haar_unitary(d, gen)
        pu = files.unitary(f"u{d}.json", u)
        s_otoc = man_reference(a.isometries(), a.commutant_image(u), d)
        cmds += [
            Command(f"man:d{d}", ("man", pa, pb), check_s(s)),
            Command(f"projection:d{d}", ("man", pa, pb, "--method", "projection"), check_s(s)),
            Command(f"entropy:d{d}", ("man", pa, pb, "--method", "entropy"), check_s(s)),
            Command(f"bounds:d{d}", ("bounds", pa, pb), check_bounds(s)),
            Command(f"selfman:d{d}", ("selfman", pa), check_s(self_reference(a))),
            Command(f"aotoc:d{d}", ("aotoc", pa, "--unitary", pu), check_s(s_otoc)),
        ]
        u1, u2 = haar_unitary(d, gen), haar_unitary(d, gen)
        m1, m2 = files.masa(f"masa{d}a.json", u1), files.masa(f"masa{d}b.json", u2)
        s_masa, q = masa_reference(u1, u2)
        cmds += [
            Command(f"masa:d{d}", ("masa", m1, m2), check_s(s_masa)),
            Command(f"quantumness:d{d}", ("quantumness", m1, m2), check_quantumness(s_masa, q)),
        ]
    for sites in LATTICE_SITES:
        la, lb, s = _lattice_pair(files, sites, gen)
        cmds.append(Command(f"lattice:q{sites}", ("lattice", la, lb), check_s(s)))
        if sites in OMEGA_LATTICE_SITES:
            cmds.append(Command(f"man:lattice:d{2 ** sites}", ("man", la, lb), check_s(s)))
    return cmds


# mc_oracle: fixed-sample Monte-Carlo commands at d <= 16, where the closed
# forms cost nothing and the Python per-sample loops (Philox generator set-up,
# Haar QR draws, small matmuls) dominate.  Batched sampling shows here only.
MC_PAIRS = {
    4: (((2, 2),), ((1, 2), (2, 1))),
    8: (((2, 2), (2, 2)), ((1, 2), (3, 2))),
    16: (((2, 4), (4, 2)), ((4, 4),)),
}
MC_DIRECT_SAMPLES = {4: 4000, 8: 3000, 16: 2000}
ORBIT_SAMPLES = 3000
STOCHASTIC_SAMPLES = 3000
STOCHASTIC_SHOTS = 2000
CHOI_SHOTS = 200_000
MARKOV_SAMPLES = 200
MARKOV_STATES = 8
MARKOV_EPSILON = "0.5"


def build_mc_oracle(files: InputDir, gen: np.random.Generator) -> list[Command]:
    cmds = []
    pairs = {}
    for d, (dims_a, dims_b) in MC_PAIRS.items():
        a, b = _blocks(dims_a, gen), _blocks(dims_b, gen)
        pairs[d] = (files.structural(f"a{d}.json", a), files.structural(f"b{d}.json", b),
                    a, b, pair_reference(a, b))

    def seed() -> str:
        return str(int(gen.integers(2 ** 31)))

    for d, samples in MC_DIRECT_SAMPLES.items():
        pa, pb, _, _, s = pairs[d]
        cmds.append(Command(f"mc:d{d}", ("man", pa, pb, "--method", "mc", "--samples",
                                         str(samples), "--seed", seed()), check_estimate(s)))
    pa, pb, a, b, s = pairs[8]
    cmds += [
        Command("orbit:d8", ("orbit-avg", pa, pb, "--samples", str(ORBIT_SAMPLES),
                             "--seed", seed()), check_orbit(orbit_reference(a, b))),
        Command("stochastic:d8", ("protocol", "stochastic", pa, pb, "--samples",
                                  str(STOCHASTIC_SAMPLES), "--seed", seed()),
                check_estimate(s)),
        Command("stochastic_shots:d8", ("protocol", "stochastic", pa, pb, "--samples",
                                        str(STOCHASTIC_SAMPLES), "--shots",
                                        str(STOCHASTIC_SHOTS), "--seed", seed()),
                check_estimate(s)),
        Command("choi_shots:d8", ("protocol", "choi", pa, pb, "--shots", str(CHOI_SHOTS),
                                  "--seed", seed()), check_estimate(s)),
    ]
    pa, pb, _, _, s = pairs[4]
    cmds.append(Command("markov:d4", ("markov-check", pa, pb, "--epsilon", MARKOV_EPSILON,
                                      "--samples", str(MARKOV_SAMPLES), "--state-samples",
                                      str(MARKOV_STATES), "--seed", seed()),
                        check_markov(s)))
    return cmds


# structure_solve: generators specs, so nothing about the structure is known
# up front.  Time and memory go to product closure, the commutant (a full SVD
# of a dim*d^2 x d^2 stack), the center and decompose.  Algebra dimensions stay
# small enough for three in-process passes to fit in one run; the commutant
# still takes most of the time.  The structure solver's work shows here and
# not on exact_ladder.
STRUCTURE_PAIRS = (
    (((1, 2), (2, 3)), ((2, 2), (1, 4))),          # d = 8, dims 13 and 20
    (((2, 2), (2, 2), (4, 1)), ((3, 2), (6, 1))),  # d = 12, dims 9 and 5
    (((8, 2),), ((4, 2), (8, 1))),                 # d = 16, dims 4 and 5
)
# The known failure: a generic d = 16 algebra of dimension 80.  Its commutant
# SVD asks for a 20480^2 complex matrix (6.25 GiB), so under the address-space
# cap the command exits with a MemoryError.  It is kept, neither resized nor
# dropped, so a fix of the structure solver shows as a higher ok_frac.
OOM_PROBE = ((1, 8), (2, 4))


def build_structure_solve(files: InputDir, gen: np.random.Generator) -> list[Command]:
    cmds = []
    for dims_a, dims_b in STRUCTURE_PAIRS:
        a, b = _blocks(dims_a, gen), _blocks(dims_b, gen)
        d = a.d
        ga = files.generators(f"ga{d}.json", a, gen)
        gb = files.generators(f"gb{d}.json", b, gen)
        s = pair_reference(a, b)
        cmds += [
            Command(f"analyze:d{d}", ("analyze", ga), check_analyze(a)),
            Command(f"selfman:d{d}", ("selfman", ga), check_s(self_reference(a))),
            Command(f"projection:d{d}", ("man", ga, gb, "--method", "projection"), check_s(s)),
            Command(f"man:d{d}", ("man", ga, gb), check_s(s)),
        ]
    probe = _blocks(OOM_PROBE, gen)
    cmds.append(Command("analyze:d16:dim80", ("analyze", files.generators("probe.json", probe, gen)),
                        check_analyze(probe), probe=True))
    return cmds


WORKLOADS = {
    "exact_ladder": build_exact_ladder,
    "mc_oracle": build_mc_oracle,
    "structure_solve": build_structure_solve,
}
