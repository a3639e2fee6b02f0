"""Command-line front door.

Every subcommand prints one JSON run report to stdout; every number in it is
produced by exactly one engine operation, named in the ``method`` tag next to
it.  A command loads its inputs once: every spec file is parsed, the two
specs of a pair are checked to share ``dim`` (exit 2, the second file and
field ``dim`` named), and only then is anything built.  ``lattice``,
``masa`` and ``quantumness`` read their two specs (``_load_specs``), every
other command builds the algebras of its spec files (``_load``).

``--csv`` also writes a CSV file: a fixed header, then one row per case
(``_csv_row``).  ``analyze`` and ``markov-check`` write the header only, a
sweep writes a row per grid point, and every other command writes one row.
The S column holds the result's S, else its Monte-Carlo estimate, else the
exact orbit value of ``orbit-avg``.

A command imports only the modules it computes with (``_modules``), before
the report's clock starts.  ``lattice`` and ``sweep lattice`` answer from
``manlab.report`` and never load numpy; ``masa`` and ``quantumness`` load
numpy and ``manlab.masa`` but not the structure solve; every other command
loads ``algebras`` and ``man``, and the commands that sample, with every
``protocol`` variant, load the Monte-Carlo and protocol simulators
(``protocols``).  No command imports ``numpy.random``: every draw, the
``--shots`` noise included, comes from the counter hash in ``rng``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Optional

from .errors import ManlabError, SpecFileError
from .report import lattice_man
from .specio import MAX_AMBIENT_DIM, AlgebraSpec, parse_matrix_file, parse_spec, spec_from_dict

if TYPE_CHECKING:
    from .algebras import OperatorAlgebra

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
    # a numpy scalar exists only once a command has loaded numpy
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.floating, np.integer)):
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
        entry.update(alg.decomposition().summary.to_dict())
    return entry


def _check_pair_dims(paths, specs: list[AlgebraSpec]) -> None:
    """The two specs of a pair must share `dim`; checked before anything is built,
    so a mismatch costs no structure solve, and the second file is named."""
    if len(specs) == 2 and specs[0].dim != specs[1].dim:
        raise SpecFileError(f"dim {specs[1].dim} does not match dim {specs[0].dim} of {paths[0]}",
                            paths[1], "dim")


def _load(args, *paths: str) -> tuple[list[OperatorAlgebra], list[dict], str]:
    """The algebras of the spec files, their input entries and the "A|B" case label.

    A path given twice is parsed and built once, and both places get the
    same algebra object.
    """
    specs = {path: parse_spec(path, allow_large=args.allow_large) for path in dict.fromkeys(paths)}
    _check_pair_dims(paths, [specs[path] for path in paths])
    loaded = {}
    for path, spec in specs.items():
        alg = spec.to_algebra()
        loaded[path] = (alg, _input_entry(path, spec, alg), spec.label())
    algs, inputs, labels = zip(*(loaded[path] for path in paths))
    return list(algs), list(inputs), "|".join(labels)


def _load_specs(args, kind: str) -> tuple[list[AlgebraSpec], list[dict], str]:
    """The two specs of a closed-form command, checked to be of `kind` and of one
    `dim`, with their input entries and the "A|B" case label; no algebra is built."""
    paths = (args.spec_a, args.spec_b)
    specs = [parse_spec(path, allow_large=args.allow_large) for path in paths]
    for spec, path in zip(specs, paths):
        if spec.kind != kind:
            raise SpecFileError(f"{args.command} subcommand needs kind={kind} specs", path, "kind")
    _check_pair_dims(paths, specs)
    inputs = [_input_entry(path, spec, None) for path, spec in zip(paths, specs)]
    return specs, inputs, "|".join(spec.label() for spec in specs)


def _csv_row(case: str, result: dict, seed: int) -> dict:
    """One CSV row of a result: S is its S, else its estimate, else its (orbit) value;
    the bounds come from its "bounds" entry, or from the result itself when flat."""
    bounds = result.get("bounds", result)
    return {
        "case": case,
        "method": result.get("method", ""),
        "S": result.get("S", result.get("estimate", result.get("value", ""))),
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
    common.add_argument("--state-samples", type=int, default=None, help="initial states per (U, V) draw")
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

    for name, text in (("bounds", "upper bounds for a pair"),
                       ("orbit-avg", "unitary-orbit average of MAN"),
                       ("lattice", "closed-form MAN of two lattice regions"),
                       ("masa", "MAN of two maximal abelian algebras"),
                       ("quantumness", "relative quantumness of two bases and its MAN bounds"),
                       ("markov-check", "information-transmission tail bound check")):
        p = sub.add_parser(name, parents=[common], help=text)
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


def _modules(args) -> tuple[str, ...]:
    """The manlab modules the command computes with, in the order it imports them.

    The engine's algebras come before man: compiled from source, algebras'
    parse memory is freed before numpy loads, which reuses it instead of
    growing the heap.
    """
    if args.command == "lattice" or (args.command == "sweep" and args.grid == "lattice"):
        return ()
    if args.command in ("masa", "quantumness"):
        return ("masa",)
    return ("algebras", "man", "protocols") if _is_sampling(args) else ("algebras", "man")


def _dispatch(args, seed: int, base: float) -> tuple[dict, list[dict], list[dict]]:
    """Returns (result payload, input entries, csv rows)."""
    cmd = args.command
    if cmd == "sweep":
        return _sweep(args, seed, base)
    if cmd in ("lattice", "masa", "quantumness"):
        kind = "lattice" if cmd == "lattice" else "masa"
        (spec_a, spec_b), inputs, case = _load_specs(args, kind)
    else:
        from . import man as man_engine
        from .rng import RngStream

        rng = RngStream(seed)
        paths = [getattr(args, name, None) for name in ("spec", "spec_a", "spec_b")]
        algs, inputs, case = _load(args, *[p for p in paths if p is not None])
        a, b = (algs + [None])[:2]

    if cmd == "analyze":
        result = {
            "method": "algebra.analyze",
            **a.decomposition().summary.to_dict(),
            "blocks": [{"n": n, "d": dj} for n, dj in a.decomposition().shapes],
        }
    elif cmd == "man" and args.method == "mc":
        from . import protocols

        samples = 10_000 if args.samples is None else args.samples
        result = protocols.mc_man_direct(a, b, samples, rng).to_dict()
    elif cmd == "man":
        fn = {
            "omega": man_engine.man_omega,
            "projection": man_engine.man_projection,
            "collinear": man_engine.man_collinear,
            "entropy": man_engine.entropy_decomposition_man,
        }[args.method]
        result = fn(a, b, base).to_dict()
    elif cmd == "selfman":
        result = man_engine.self_man(a, base).to_dict()
    elif cmd == "bounds":
        result = {"method": "man.bounds", **man_engine.man_bounds(a, b, base)}
    elif cmd == "orbit-avg":
        result = {"method": "man.orbit", "value": man_engine.orbit_averaged_man(a, b)}
        if args.samples is not None:
            from . import protocols

            result["mc_estimate"] = protocols.mc_orbit_averaged_man(
                a, b, args.samples, rng
            ).to_dict()
    elif cmd == "lattice":
        if spec_a.site_dims != spec_b.site_dims:
            raise SpecFileError("the two lattice specs must share site_dims", args.spec_b)
        result = lattice_man(
            list(spec_a.site_dims), list(spec_a.region), list(spec_b.region), base
        ).to_dict()
    elif cmd in ("masa", "quantumness"):
        from .masa import masa_man, quantumness

        u1, u2 = spec_a.unitary.array, spec_b.unitary.array
        if cmd == "masa":
            result = masa_man(u1, u2, base).to_dict()
        else:
            result = {"method": "man.quantumness", **quantumness(u1, u2).to_dict()}
    elif cmd == "aotoc":
        u = parse_matrix_file(args.unitary, expected_dim=a.d)
        result = man_engine.a_otoc(a, u, base).to_dict()
    elif cmd == "protocol":
        from . import protocols

        if args.variant == "choi":
            est = protocols.protocol_choi(a, b, shots=args.shots, rng=rng, log_base=base)
        else:
            est = protocols.protocol_stochastic(
                a, b, samples=args.samples, shots=args.shots, rng=rng
            )
        result = est.to_dict()
    elif cmd == "markov-check":
        if args.epsilon is None:
            raise ManlabError("markov-check requires --epsilon")
        from . import protocols

        given = {"samples": args.samples, "state_samples": args.state_samples}
        report = protocols.markov_bound_check(
            a, b, args.epsilon, rng=rng, **{k: v for k, v in given.items() if v is not None}
        )
        result = {"method": "protocol.markov_check", **report.to_dict()}
    else:
        raise ManlabError(f"unknown command {cmd!r}")
    rows = [] if cmd in ("analyze", "markov-check") else [_csv_row(case, result, seed)]
    return result, inputs, rows


def _sweep(args, seed: int, base: float) -> tuple[dict, list[dict], list[dict]]:
    cases = []
    rows = []
    if args.grid == "lattice":
        for flag, value in (("--sites", args.sites), ("--site-dim", args.site_dim)):
            if value < 1:
                raise SpecFileError(f"must be >= 1, got {value}", field=flag)
        # the ambient dimension and the case count (4^sites region pairs, else
        # sites + 1), in Python ints before any grid is built; 2^64 and 4^64 pass
        # both bounds, so capping the exponents keeps the checks exact
        count = 4 ** min(args.sites, 64) if args.pairs else args.sites + 1
        if not args.allow_large and (args.site_dim ** min(args.sites, 64) > MAX_AMBIENT_DIM
                                     or count > MAX_AMBIENT_DIM**2):
            raise SpecFileError(f"{args.sites} sites of dimension {args.site_dim} exceed the "
                                f"guardrail ({MAX_AMBIENT_DIM} dimensions, {MAX_AMBIENT_DIM**2} "
                                "cases; pass --allow-large)", field="--sites")
        sites = list(range(args.sites))
        site_dims = [args.site_dim] * args.sites
        if args.pairs:
            subsets = [tuple(s for s in sites if (mask >> s) & 1) for mask in range(2**args.sites)]
            pair_list = [(s1, s2) for s1 in subsets for s2 in subsets]
        else:
            pair_list = [(tuple(sites[:k]), tuple(sites[:k])) for k in range(args.sites + 1)]
        for s1, s2 in pair_list:
            report = lattice_man(site_dims, s1, s2, base).to_dict()
            case = f"S1={list(s1)}|S2={list(s2)}"
            cases.append({"case": case, **report})
            rows.append(_csv_row(case, report, seed))
    else:
        from . import man as man_engine

        for dj in args.dims:
            spec = spec_from_dict({"dim": dj, "kind": "structural", "blocks": [[1, dj]]},
                                  allow_large=args.allow_large)
            report = man_engine.self_man(spec.to_algebra(), base).to_dict()
            case = spec.label()
            cases.append({"case": case, **report})
            rows.append(_csv_row(case, report, seed))
    result = {"method": "sweep." + args.grid, "cases": cases}
    return result, [], rows


def _parse(argv: list[str]):
    """The parsed arguments, with the modules their command computes with imported.

    Loading modules is start-up: like every other import it stays off the
    report's clock.  --help and a bad flag raise SystemExit, as argparse does.
    """
    args = _build_parser().parse_args(argv)
    for name in _modules(args):
        # the import statement's own path, which `python -X importtime` lists
        # (importlib.import_module's is not listed)
        __import__(f"{__package__}.{name}")
    return args


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, execute, print the run report; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _execute(args, argv)


def _execute(args, argv: list[str]) -> int:
    """Run the parsed command and print its report; returns the exit code."""
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
    argv = sys.argv[1:]
    args = _parse(argv)
    # What start-up allocated (the modules, numpy) lives until exit.  Frozen, the
    # collector no longer rescans it, so a collection during the command costs
    # the command's own objects, whatever the size of the modules.  The freeze
    # follows _parse: objects allocated after it would stay in the collector's
    # generations.
    gc.freeze()
    sys.exit(_execute(args, argv))


if __name__ == "__main__":
    main()
