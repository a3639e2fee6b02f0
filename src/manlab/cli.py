"""Command-line front door.

Every subcommand prints one JSON run report to stdout; every number in it is
produced by exactly one engine operation, named in the ``method`` tag next to
it.  ``--csv`` additionally appends one tabular row per case.

The Monte-Carlo and protocol simulators (``protocols``, and through them
``numpy.random``) are imported only by the commands that sample, so the exact
commands do not pay for loading them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import man as man_engine
from .algebras import OperatorAlgebra
from .errors import ManlabError, SpecFileError
from .man import StructuralSummary
from .rng import RngStream
from .specio import AlgebraSpec, parse_matrix_file, parse_spec, spec_from_dict

CSV_COLUMNS = [
    "case", "method", "S", "S2",
    "commutant_bound", "weak_bound", "intersection_bound",
    "std_error", "samples", "seed",
]


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MANLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ManlabError(f"MANLAB_SEED={env!r} is not an integer")
    return 0


def _log_base(args) -> float:
    return 2.0 if args.log_base == "2" else math.e


def _input_entry(path: str, spec: AlgebraSpec, alg: Optional[OperatorAlgebra]) -> dict:
    entry = {"path": path, "label": spec.label(), "dim": spec.dim, "kind": spec.kind}
    if alg is not None:
        entry.update(StructuralSummary.from_algebra(alg).to_dict())
    return entry


def _load(args, *paths: str) -> tuple[list[OperatorAlgebra], list[dict], str]:
    """The algebras of the spec files, their input entries and the "A|B" case label."""
    algs, inputs, labels = [], [], []
    for path in paths:
        spec = parse_spec(path, allow_large=args.allow_large)
        alg = spec.to_algebra()
        algs.append(alg)
        inputs.append(_input_entry(path, spec, alg))
        labels.append(spec.label())
    return algs, inputs, "|".join(labels)


def _csv_row(case: str, result: dict, seed: int) -> dict:
    bounds = result.get("bounds", {})
    return {
        "case": case,
        "method": result.get("method", ""),
        "S": result.get("S", result.get("estimate", "")),
        "S2": result.get("S2", ""),
        "commutant_bound": bounds.get("commutant_bound", ""),
        "weak_bound": bounds.get("weak_bound", ""),
        "intersection_bound": bounds.get("intersection_bound", ""),
        "std_error": result.get("std_error", ""),
        "samples": result.get("samples", ""),
        "seed": seed,
    }


def emit_csv(rows: list[dict], path: str) -> None:
    """Write tabular output: fixed header plus one row per case."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(_sanitize(row))
    except OSError as exc:
        raise ManlabError(f"cannot write CSV to {path}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default: $MANLAB_SEED or 0)")
    common.add_argument("--samples", type=int, default=None, help="Monte-Carlo sample count")
    common.add_argument("--shots", type=int, default=None, help="swap-test shots per expectation")
    common.add_argument("--epsilon", type=float, default=None, help="distance threshold")
    common.add_argument("--state-samples", type=int, default=32, help="initial states per (U, V) draw")
    common.add_argument("--csv", default=None, metavar="PATH", help="also write a CSV row per case")
    common.add_argument("--log-base", choices=["2", "e"], default="2")
    common.add_argument("--quiet", action="store_true", help="suppress structural summaries")
    common.add_argument("--allow-large", action="store_true",
                        help="lift the ambient-dimension guardrail (64)")

    parser = argparse.ArgumentParser(
        prog="manlab",
        description="Mutual averaged non-commutativity of operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="structural decomposition of one algebra")
    p.add_argument("spec")

    p = sub.add_parser("man", parents=[common], help="MAN of an algebra pair")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--method", choices=["omega", "projection", "collinear", "entropy", "mc"],
                   default="omega")

    p = sub.add_parser("selfman", parents=[common], help="self-MAN of one algebra")
    p.add_argument("spec")

    p = sub.add_parser("bounds", parents=[common], help="upper bounds for a pair")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("orbit-avg", parents=[common], help="unitary-orbit average of MAN")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("lattice", parents=[common], help="closed-form MAN of two lattice regions")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("masa", parents=[common], help="MAN of two maximal abelian algebras")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("quantumness", parents=[common],
                       help="relative quantumness of two bases and its MAN bounds")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("aotoc", parents=[common], help="algebraic OTOC of an algebra under a unitary")
    p.add_argument("spec")
    p.add_argument("--unitary", required=True, metavar="PATH",
                   help="JSON file {\"dim\": d, \"matrix\": [[[re,im],...],...]}")

    p = sub.add_parser("protocol", parents=[common], help="operational protocol simulators")
    p.add_argument("variant", choices=["choi", "stochastic"])
    p.add_argument("spec_a")
    p.add_argument("spec_b", nargs="?", default=None, help="omit for the self-MAN variant")

    p = sub.add_parser("markov-check", parents=[common],
                       help="information-transmission tail bound check")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("sweep", parents=[common], help="parameter grids, CSV-oriented")
    p.add_argument("grid", choices=["lattice", "selfman"])
    p.add_argument("--site-dim", type=int, default=2)
    p.add_argument("--sites", type=int, default=3)
    p.add_argument("--pairs", action="store_true", help="lattice: all region pairs, not just overlaps")
    p.add_argument("--dims", type=int, nargs="*", default=[1, 2, 3, 4],
                   help="selfman: irrep dimensions for single-block algebras")

    return parser


def _is_sampling(args) -> bool:
    """Whether the command runs a Monte-Carlo or protocol simulator."""
    return (args.command in ("protocol", "markov-check")
            or (args.command == "man" and args.method == "mc")
            or (args.command == "orbit-avg" and args.samples is not None))


def _dispatch(args, seed: int, base: float) -> tuple[dict, list[dict], list[dict]]:
    """Returns (result payload, input entries, csv rows)."""
    rng = RngStream(seed)
    cmd = args.command

    if cmd == "analyze":
        (alg,), inputs, _ = _load(args, args.spec)
        summary = StructuralSummary.from_algebra(alg)
        result = {
            "method": "algebra.analyze",
            **summary.to_dict(),
            "blocks": [{"n": b.n, "d": b.d} for b in alg.decomposition().blocks],
        }
        return result, inputs, []

    if cmd == "man":
        (a, b), inputs, case = _load(args, args.spec_a, args.spec_b)
        if args.method == "mc":
            from . import protocols

            est = protocols.mc_man_direct(
                a, b, 10_000 if args.samples is None else args.samples, rng
            )
            result = est.to_dict()
        else:
            fn = {
                "omega": man_engine.man_omega,
                "projection": man_engine.man_projection,
                "collinear": man_engine.man_collinear,
                "entropy": man_engine.entropy_decomposition_man,
            }[args.method]
            result = fn(a, b, base).to_dict()
        return result, inputs, [_csv_row(case, result, seed)]

    if cmd == "selfman":
        (alg,), inputs, case = _load(args, args.spec)
        result = man_engine.self_man(alg, base).to_dict()
        return result, inputs, [_csv_row(case, result, seed)]

    if cmd == "bounds":
        (a, b), inputs, case = _load(args, args.spec_a, args.spec_b)
        record = man_engine.man_bounds(a, b, base)
        result = {"method": "man.bounds", **record}
        row = _csv_row(case, {"method": "man.bounds", "S": record["S"], "S2": record["S2"],
                              "bounds": record}, seed)
        return result, inputs, [row]

    if cmd == "orbit-avg":
        (a, b), inputs, case = _load(args, args.spec_a, args.spec_b)
        value = man_engine.orbit_averaged_man(a, b)
        result = {"method": "man.orbit", "value": value}
        if args.samples is not None:
            from . import protocols

            result["mc_estimate"] = protocols.mc_orbit_averaged_man(
                a, b, args.samples, rng
            ).to_dict()
        return result, inputs, [_csv_row(case, {"method": "man.orbit", "S": value}, seed)]

    if cmd == "lattice":
        spec_a = parse_spec(args.spec_a, allow_large=args.allow_large)
        spec_b = parse_spec(args.spec_b, allow_large=args.allow_large)
        for spec, path in ((spec_a, args.spec_a), (spec_b, args.spec_b)):
            if spec.kind != "lattice":
                raise SpecFileError("lattice subcommand needs kind=lattice specs", path, "kind")
        if spec_a.site_dims != spec_b.site_dims:
            raise SpecFileError("the two lattice specs must share site_dims", args.spec_b)
        result = man_engine.lattice_man(
            list(spec_a.site_dims), list(spec_a.region), list(spec_b.region), base
        ).to_dict()
        inputs = [_input_entry(args.spec_a, spec_a, None), _input_entry(args.spec_b, spec_b, None)]
        case = f"{spec_a.label()}|{spec_b.label()}"
        return result, inputs, [_csv_row(case, result, seed)]

    if cmd in ("masa", "quantumness"):
        spec_a = parse_spec(args.spec_a, allow_large=args.allow_large)
        spec_b = parse_spec(args.spec_b, allow_large=args.allow_large)
        for spec, path in ((spec_a, args.spec_a), (spec_b, args.spec_b)):
            if spec.kind != "masa":
                raise SpecFileError(f"{cmd} subcommand needs kind=masa specs", path, "kind")
        u1 = spec_a.unitary_matrix()
        u2 = spec_b.unitary_matrix()
        if cmd == "masa":
            result = man_engine.masa_man(u1, u2, base).to_dict()
        else:
            result = {"method": "man.quantumness", **man_engine.quantumness(u1, u2).to_dict()}
        inputs = [_input_entry(args.spec_a, spec_a, None), _input_entry(args.spec_b, spec_b, None)]
        case = f"{spec_a.label()}|{spec_b.label()}"
        return result, inputs, [_csv_row(case, result, seed)]

    if cmd == "aotoc":
        (alg,), inputs, case = _load(args, args.spec)
        u = parse_matrix_file(args.unitary, expected_dim=alg.d)
        result = man_engine.a_otoc(alg, u, base).to_dict()
        return result, inputs, [_csv_row(case, result, seed)]

    if cmd == "protocol":
        algs, inputs, case = _load(args, *[p for p in (args.spec_a, args.spec_b) if p])
        a, b = (algs + [None])[:2]
        from . import protocols

        if args.variant == "choi":
            est = protocols.protocol_choi(a, b, shots=args.shots, rng=rng, log_base=base)
        else:
            est = protocols.protocol_stochastic(
                a, b, samples=args.samples, shots=args.shots, rng=rng
            )
        result = est.to_dict()
        return result, inputs, [_csv_row(case, result, seed)]

    if cmd == "markov-check":
        (a, b), inputs, _ = _load(args, args.spec_a, args.spec_b)
        if args.epsilon is None:
            raise ManlabError("markov-check requires --epsilon")
        from . import protocols

        report = protocols.markov_bound_check(
            a, b, args.epsilon,
            samples=1000 if args.samples is None else args.samples,
            state_samples=args.state_samples,
            rng=rng,
        )
        result = {"method": "protocol.markov_check", **report.to_dict()}
        return result, inputs, []

    if cmd == "sweep":
        return _sweep(args, seed, base)

    raise ManlabError(f"unknown command {args.command!r}")


def _sweep(args, seed: int, base: float) -> tuple[dict, list[dict], list[dict]]:
    cases = []
    rows = []
    if args.grid == "lattice":
        sites = list(range(args.sites))
        site_dims = [args.site_dim] * args.sites
        if args.pairs:
            subsets = [tuple(s for s in sites if (mask >> s) & 1) for mask in range(2**args.sites)]
            pair_list = [(s1, s2) for s1 in subsets for s2 in subsets]
        else:
            pair_list = [(tuple(sites[:k]), tuple(sites[:k])) for k in range(args.sites + 1)]
        for s1, s2 in pair_list:
            report = man_engine.lattice_man(site_dims, s1, s2, base).to_dict()
            case = f"S1={list(s1)}|S2={list(s2)}"
            cases.append({"case": case, **report})
            rows.append(_csv_row(case, report, seed))
    else:
        for dj in args.dims:
            spec = spec_from_dict({"dim": dj, "kind": "structural", "blocks": [[1, dj]]},
                                  allow_large=args.allow_large)
            report = man_engine.self_man(spec.to_algebra(), base).to_dict()
            case = spec.label()
            cases.append({"case": case, **report})
            rows.append(_csv_row(case, report, seed))
    result = {"method": "sweep." + args.grid, "cases": cases}
    return result, [], rows


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, execute, print the run report; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if _is_sampling(args):
        # loading modules is start-up: like every other import it stays off
        # the report's clock, and only the sampling branches use this one
        from . import protocols  # noqa: F401
    t0 = time.perf_counter()
    try:
        seed = _resolve_seed(args)
        result, inputs, rows = _dispatch(args, seed, _log_base(args))
    except SpecFileError as exc:
        print(f"manlab: {exc}", file=sys.stderr)
        return 2
    except (ManlabError, ValueError, MemoryError) as exc:
        print(f"manlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    if args.quiet:
        result.pop("inputs", None)
    report = {
        "command": args.command,
        "argv": argv,
        "seed": seed,
        "log_base": args.log_base,
    }
    if not args.quiet:
        report["inputs"] = inputs
    report["result"] = _sanitize(result)
    report["wall_time_s"] = wall
    print(json.dumps(report, indent=2))
    if args.csv is not None:
        try:
            emit_csv(rows, args.csv)
        except ManlabError as exc:
            print(f"manlab: {exc}", file=sys.stderr)
            return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
