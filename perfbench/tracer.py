"""In-process replay of a workload's commands with spans around manlab's layers.

Run as ``python3 perfbench/tracer.py PLAN OUT`` with manlab importable (the
runner sets PYTHONPATH to the checkout's src).  PLAN is a JSON file written by
run.py: {"deadline_s": float, "memory_spans": [span names],
"commands": [{"name": str, "argv": [...]}]}.
Each command goes through ``manlab.cli.run`` in this process, exactly as the
CLI would run it.  Spans are recorded from here, by swapping the public
functions of manlab's modules for timing wrappers; the program itself is not
changed.

Passes: one with tracemalloc running inside the memory spans only (peak bytes
per span, kept apart so allocation tracking does not skew the times), then
pairs of one untraced pass (the reference for trace overhead) and one traced
pass (self times, call and sample counts), repeated while another pair fits
before the deadline.  OUT receives per pass and per command the report, the
error if any, and the span totals, plus every span of the last traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
import tracemalloc
from pathlib import Path

import manlab
from manlab import algebras, cli, linalg, man, protocols, rng, specio

# Spans named linalg.* are kernels inside the algebra layer: they are reported
# on their own but not subtracted from the self time of the span that called
# them, so algebras.commutant keeps the SVD it exists to run.
KERNEL_PREFIX = "linalg."


def _samples(bound) -> int:
    return bound.arguments.get("samples") or 0


def _markov_draws(bound) -> int:
    args = bound.arguments
    return args.get("samples", 1000) * args.get("state_samples", 32)


# (span name, function name, modules or classes holding a reference to it,
# units of work per call).  Every module that imported a function by name
# holds its own reference, so each one is patched.
TARGETS = [
    ("specio.parse", "parse_spec", (specio, cli), None),
    ("specio.parse", "parse_matrix_file", (specio, cli), None),
    ("algebras.construct", "to_algebra", (specio.AlgebraSpec,), None),
    ("algebras.decompose", "decomposition", (algebras.OperatorAlgebra,), None),
    ("algebras.commutant", "compute_commutant", (algebras,), None),
    ("algebras.center", "center", (algebras, protocols), None),
    ("algebras.intersection", "algebra_intersection", (algebras, man), None),
    ("algebras.haar_unitary", "haar_algebra_unitary", (algebras, protocols), None),
    ("rng.generator", "generator", (rng.RngStream,), None),
    ("linalg.nullspace", "nullspace", (linalg, algebras), None),
    ("linalg.orthonormalize", "orthonormalize_hs", (linalg, algebras), None),
    ("man.omega", "man_omega", (man, protocols), None),
    ("man.projection", "man_projection", (man,), None),
    ("man.entropy", "entropy_decomposition_man", (man,), None),
    ("man.bounds", "man_bounds", (man,), None),
    ("man.aotoc", "a_otoc", (man,), None),
    ("man.selfman", "self_man", (man,), None),
    ("man.closed_form", "lattice_man", (man,), None),
    ("man.closed_form", "masa_man", (man,), None),
    ("man.closed_form", "quantumness", (man,), None),
    ("man.closed_form", "orbit_averaged_man", (man,), None),
    ("protocols.mc_direct", "mc_man_direct", (protocols,), _samples),
    ("protocols.mc_orbit", "mc_orbit_averaged_man", (protocols,), _samples),
    ("protocols.stochastic", "protocol_stochastic", (protocols,), _samples),
    ("protocols.choi", "protocol_choi", (protocols,), None),
    ("protocols.markov", "markov_bound_check", (protocols,), _markov_draws),
]


class Tracer:
    """Span stack for one pass; totals are kept per command and span name."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.command = None
        self.stack: list[dict] = []
        # Every finished span: (id, parent id or -1, command, name, start_s, end_s).
        self.spans: list[tuple] = []
        # command -> span name -> [self_s, inclusive_s, calls, units, peak_bytes]
        self.totals: dict[str, dict[str, list]] = {}
        # command -> summed duration of the spans opened with nothing above them
        self.root_s: dict[str, float] = {}
        self._next_id = 0

    def wrap(self, name: str, fn, units):
        sig = inspect.signature(fn) if units else None
        kernel = name.startswith(KERNEL_PREFIX)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # An intersection computed for decompose() or center() is the center.
            if name == "algebras.intersection" and self.stack and self.stack[-1]["name"] in (
                "algebras.decompose", "algebras.center"
            ):
                span_name = "algebras.center"
            else:
                span_name = name
            n_units = units(sig.bind(*args, **kwargs)) if units else 0
            frame = self._enter(span_name, kernel)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, n_units)

        return wrapper

    def _enter(self, name: str, kernel: bool) -> dict:
        frame = {"name": name, "kernel": kernel, "child_s": 0.0, "id": self._next_id,
                 "parent": self.stack[-1]["id"] if self.stack else -1}
        self._next_id += 1
        if self.memory:
            # Allocation tracking runs only inside the outermost traced span, so
            # code outside the spans of interest keeps its normal speed.
            frame["owner"] = not tracemalloc.is_tracing()
            if frame["owner"]:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.stack[-1]
                parent["peak"] = max(parent["peak"], peak)
            tracemalloc.reset_peak()
            frame["base"] = frame["peak"] = current
        self.stack.append(frame)
        frame["start"] = time.perf_counter()
        return frame

    def _exit(self, frame: dict, n_units: int) -> None:
        end = time.perf_counter()
        duration = end - frame["start"]
        self.stack.pop()
        self.spans.append((frame["id"], frame["parent"], self.command, frame["name"],
                           frame["start"], end))
        peak = 0
        if self.memory:
            peak = max(frame["peak"], tracemalloc.get_traced_memory()[1])
            if self.stack:
                self.stack[-1]["peak"] = max(self.stack[-1]["peak"], peak)
            tracemalloc.reset_peak()
            peak -= frame["base"]
            if frame["owner"]:
                tracemalloc.stop()
        outer = [f for f in self.stack if not f["kernel"]]
        if not frame["kernel"]:
            if outer:
                outer[-1]["child_s"] += duration
            else:
                self.root_s[self.command] = self.root_s.get(self.command, 0.0) + duration
        row = self.totals.setdefault(self.command, {}).setdefault(
            frame["name"], [0.0, 0.0, 0, 0, 0]
        )
        row[0] += duration - frame["child_s"]
        row[1] += duration
        row[2] += 1
        row[3] += n_units
        row[4] = max(row[4], peak)


@contextlib.contextmanager
def installed(tracer: Tracer, spans=None):
    """Swap the targets (those named in `spans`, default all) for traced wrappers.

    The originals are restored on exit.
    """
    saved = []
    try:
        for span, attr, holders, units in TARGETS:
            if spans is not None and span not in spans:
                continue
            original = getattr(holders[0], attr)
            wrapper = tracer.wrap(span, original, units)
            for holder in holders:
                saved.append((holder, attr, holder.__dict__[attr]))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def run_pass(commands: list[dict], tracer: Tracer | None) -> dict:
    out = {}
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd["name"]
        stdout, stderr = io.StringIO(), io.StringIO()
        record = {"report": None, "error": None}
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(list(cmd["argv"]))
            if code == 0:
                record["report"] = json.loads(stdout.getvalue())
            else:
                record["error"] = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
        except Exception as exc:  # the replay must go on to the next command
            record["error"] = f"{type(exc).__name__}: {exc}"[:300]
        if tracer is not None:
            record["spans"] = tracer.totals.get(cmd["name"], {})
            record["root_s"] = tracer.root_s.get(cmd["name"], 0.0)
        out[cmd["name"]] = record
    return out


def main(plan_path: str, out_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    start = time.perf_counter()
    commands = plan["commands"]
    result = {"manlab": manlab.__file__, "untraced": [], "traced": [], "memory": None,
              "pass_s": []}

    # The tracemalloc pass goes first: it also warms the allocator and LAPACK,
    # so the untraced and traced passes after it start from the same state.
    with installed(Tracer(memory=True), plan["memory_spans"]) as tracer:
        result["memory"] = run_pass(commands, tracer)
    result["pass_s"].append(time.perf_counter() - start)
    while True:
        t0 = time.perf_counter()
        result["untraced"].append(run_pass(commands, None))
        with installed(Tracer(memory=False)) as tracer:
            result["traced"].append(run_pass(commands, tracer))
        result["spans"] = tracer.spans
        now = time.perf_counter()
        result["pass_s"].append(now - t0)
        if now - start + (now - t0) > plan["deadline_s"]:
            break
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
