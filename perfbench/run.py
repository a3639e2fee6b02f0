"""Benchmark of the manlab CLI: seeded workloads, checked answers, end-to-end and per-layer metrics.

Run from the root of a manlab checkout:

    python3 perfbench/run.py --workload exact_ladder --seed 1 --seconds 40 --trace 0

Workloads (why each exists is noted where it is built, in workloads.py):
exact_ladder, mc_oracle, structure_solve.

Load is a closed loop from this one process: each command is spawned as one
``python3 -m manlab.cli`` child, one at a time, with PYTHONPATH pointing at the
checkout's src.  Children run with BLAS pinned to one thread and under an
address-space cap (RLIMIT_AS) and a CPU-time cap, both set on the child only.
The command list is cycled through, longest commands first after the first
pass, while the next command fits in ``--seconds`` (the first pass always
runs in full); a command's figures are its medians over its executions.

--trace 0 prints the end-to-end metrics:
  wall_s       sum over the commands of spawn-to-exit time, what a CLI user waits
  engine_s     sum of the reports' wall_time_s: parse + construct + engine,
               without interpreter start or JSON printing
  peak_rss_mb  largest peak RSS of one command, from the child's rusage
  setup_s      median time to generate the inputs and reference values; the
               generation is repeated between commands all through the run
  ok_frac      share of the workload's commands whose every execution exited 0
               with a correct answer

The three times are read on a host-speed scale: between commands the runner
times the fixed gauge of hostspeed.py, and divides each execution's times by
the mean of the gauge times just before and just after it, over the gauge's
nominal time; repeated set-ups are divided by the run's median gauge time
over the nominal time.  The unscaled sums are printed on the line before the
result.

--trace 1 times a trivial command as cli.start_s (the fixed floor under every
small command), then replays the workload's commands in one capped child
process through manlab.cli.run (tracer.py) and prints the per-layer metrics.
cli.start_s is kept out of the end-to-end set: on a shared host the start-up
time of a 0.3 s command follows host load more than any other figure, too
much for a bound.  Time metrics (*_s) are self times: a span's duration less its child spans, except that
linalg.* kernels stay inside their callers.  Per-unit metrics (*_us*) are
inclusive.  *_peak_mb are tracemalloc peaks above the span's starting level,
inclusive of child spans; they see numpy arrays but not LAPACK's internal
workspace.

Every answer is checked (see workloads.py).  `failed` counts commands that
crashed, timed out or answered wrongly.  The one documented known failure,
the structure_solve memory probe running out of memory, lowers ok_frac but is
not counted in `failed`.

Tier-1 test-suite time is left out as a metric on purpose: the suite grows
with every change, so its time would count new tests as regressions.
"""

from __future__ import annotations

import os

# Read by numpy and BLAS at import: pin this process as its children are pinned.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from workloads import WORKLOADS, Command, InputDir, cli_start_command  # noqa: E402

AS_CAP_BYTES = 3 << 30
COMMAND_CPU_CAP_S = 30
TRACE_CPU_CAP_S = 150
# No command is started after this point, so the run ends within 180 s.
RUN_BUDGET_S = 140.0
# One more timed set-up after every this many commands.
SETUP_EVERY = 2
CLI_START_REPS = 9
WORK_DIR = ".perfbench_work"
MIB = float(1 << 20)


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def _limit_child(cpu_s: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
    return apply


def spawn(argv: list[str], env: dict, work: Path, cpu_s: int) -> Outcome:
    """Run one capped child to completion; times spawn to exit, reads its rusage."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work,
                                preexec_fn=_limit_child(cpu_s))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                   out_path.read_text(), err_path.read_text())


def judge(cmd: Command, report: Optional[dict], error: Optional[str]) -> tuple[str, str]:
    """("ok" | "known" | "failed", reason) for one execution of a command."""
    if report is None:
        if cmd.probe and error and "MemoryError" in error:
            return "known", "ran out of memory under the address-space cap"
        return "failed", error or "no report"
    try:
        reason = cmd.check(report)
    except (KeyError, TypeError) as exc:
        reason = f"malformed report: {exc!r}"
    return ("failed", reason) if reason else ("ok", "")


def parse_report(outcome: Outcome) -> tuple[Optional[dict], Optional[str]]:
    if outcome.code != 0:
        return None, f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}"
    try:
        return json.loads(outcome.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not a JSON report: {exc}"


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.commands: set[str] = set()
        # command -> why its last execution that was not ok was not ok
        self.reasons: dict[str, str] = {}

    def add(self, cmd: Command, verdict: str, reason: str) -> None:
        self.attempted += 1
        self.failed += verdict == "failed"
        self.commands.add(cmd.name)
        if verdict != "ok":
            self.reasons[cmd.name] = f"{verdict}: {reason}"

    def ok_frac(self) -> float:
        """Share of distinct commands whose every execution was ok.

        Counted per command, not per execution, so it does not depend on how
        many times the run cycled through the list.
        """
        return 1.0 - len(self.reasons) / len(self.commands)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- end to end ------------------------------------------------------------------


def execute(cmd: Command, env, work, tally) -> tuple[Outcome, Optional[dict]]:
    """Spawn one manlab command, judge its output and count it."""
    argv = [sys.executable, "-m", "manlab.cli", *cmd.argv]
    outcome = spawn(argv, env, work, COMMAND_CPU_CAP_S)
    report, error = parse_report(outcome)
    tally.add(cmd, *judge(cmd, report, error))
    return outcome, report


def run_cli(commands, trivial, env, work, t_start, seconds, tally, repeat_setup):
    """Cycle through the commands; returns per-command figures and the gauge times.

    Each execution's time is also read on the host-speed scale (hostspeed.py):
    divided by the mean of the gauge times taken just before and just after it.
    """
    walls = {c.name: [] for c in commands}
    rss = {c.name: [] for c in commands}
    executions = []  # (command name, wall time, engine time or None)
    gauges = []  # gauges[k] is taken just before executions[k]; one more at the end
    # Untimed warm-up: compiles manlab's bytecode and loads numpy into the page
    # cache; the gauge's first call loads LAPACK's code paths.
    spawn([sys.executable, "-m", "manlab.cli", *trivial.argv], env, work, COMMAND_CPU_CAP_S)
    hostspeed.gauge()
    # The first pass always runs in full; after it the list is cycled through
    # while the next command, at its longest measured time, still fits.  Later
    # passes run the longest commands first: they carry most of each sum, so
    # they get the executions the run has left.
    order = list(commands)
    for i in itertools.count():
        if i == len(commands):
            order.sort(key=lambda c: -max(walls[c.name], default=0.0))
        cmd = order[i % len(order)]
        elapsed = time.perf_counter() - t_start
        if i >= len(commands) and elapsed + max(walls[cmd.name], default=seconds) > seconds:
            break
        if elapsed > RUN_BUDGET_S:
            tally.add(cmd, "failed", "not started: run budget exhausted")
            continue
        if i % SETUP_EVERY == 0:
            repeat_setup()
        gauges.append(hostspeed.gauge())
        outcome, report = execute(cmd, env, work, tally)
        walls[cmd.name].append(outcome.wall_s)
        rss[cmd.name].append(outcome.rss_mb)
        executions.append((cmd.name, outcome.wall_s,
                           report["wall_time_s"] if report is not None else None))
    gauges.append(hostspeed.gauge())

    # command -> [walls, engines, scaled walls, scaled engines]
    times = {c.name: ([], [], [], []) for c in commands}
    for (name, wall, engine), before, after in zip(executions, gauges, gauges[1:]):
        speed = (before + after) / 2.0 / hostspeed.NOMINAL_S
        row = times[name]
        row[0].append(wall)
        row[2].append(wall / speed)
        if engine is not None:
            row[1].append(engine)
            row[3].append(engine / speed)
    med = statistics.median
    per_cmd = {
        name: tuple(med(v) if v else 0.0 for v in (*row, rss[name])) + (len(row[0]),)
        for name, row in times.items()
    }
    return per_cmd, gauges


# -- per layer -------------------------------------------------------------------

# What each layer metric should move, and on which workload:
#   specio.parse_s                 wall_s everywhere; a small share, so a control
#   algebras.construct_s, _peak_mb engine_s and wall_s on exact_ladder (basis
#                                  conjugation); on structure_solve it is the
#                                  generator closure
#   algebras.commutant_s, center_s, decompose_s, their _peak_mb, linalg.*
#                                  engine_s, peak_rss_mb and ok_frac on
#                                  structure_solve; 0 on exact_ladder, where the
#                                  structure is cached at construction
#   man.*_s, man.omega_peak_mb     engine_s and peak_rss_mb on exact_ladder;
#                                  small on structure_solve (d <= 16)
#   protocols.*_us_per_*, algebras.haar_unitary_us, rng.generator_us
#                                  engine_s on mc_oracle, nothing elsewhere
#   cli.unattributed_s             engine_s everywhere (report assembly)
#   cli.start_s                    wall_s everywhere, most on exact_ladder
SELF_TIME_SPANS = (
    "specio.parse", "algebras.construct", "algebras.commutant", "algebras.center",
    "algebras.intersection", "algebras.decompose", "linalg.nullspace",
    "linalg.orthonormalize", "man.omega", "man.projection", "man.entropy", "man.bounds",
    "man.aotoc", "man.selfman", "man.closed_form", "protocols.choi",
)
PER_UNIT_SPANS = {  # metric name -> (span, divide by "units" or "calls")
    "protocols.mc_direct_us_per_sample": ("protocols.mc_direct", "units"),
    "protocols.mc_orbit_us_per_sample": ("protocols.mc_orbit", "units"),
    "protocols.stochastic_us_per_sample": ("protocols.stochastic", "units"),
    "protocols.markov_us_per_draw": ("protocols.markov", "units"),
    "algebras.haar_unitary_us": ("algebras.haar_unitary", "calls"),
    "rng.generator_us": ("rng.generator", "calls"),
}
CALL_SPANS = SELF_TIME_SPANS + (
    "algebras.haar_unitary", "rng.generator", "protocols.mc_direct", "protocols.mc_orbit",
    "protocols.stochastic", "protocols.markov",
)
PEAK_SPANS = ("algebras.construct", "algebras.commutant", "algebras.decompose", "man.omega")
# ROADMAP baseline: man_omega on lattice pairs and the direct oracle at d = 4.
BASELINE_SPANS = {
    "baseline.man_omega_lattice_d16_s": ("man:lattice:d16", "man.omega"),
    "baseline.man_omega_lattice_d32_s": ("man:lattice:d32", "man.omega"),
}
BASELINE_PER_SAMPLE = {"baseline.mc_direct_d4_us_per_sample": ("mc:d4", "protocols.mc_direct")}
PROBE_METRIC = "baseline.structure_probe_oom"


def _span_totals(pass_records: dict) -> dict[str, list]:
    totals: dict[str, list] = {}
    for record in pass_records.values():
        for name, row in record.get("spans", {}).items():
            acc = totals.setdefault(name, [0.0, 0.0, 0, 0])
            for i in range(4):
                acc[i] += row[i]
    return totals


def _engine_total(pass_records: dict) -> float:
    return sum(r["report"]["wall_time_s"] for r in pass_records.values() if r["report"])


def layer_metrics(trace: dict, commands: list[Command]) -> dict:
    med = statistics.median
    rounds = [_span_totals(p) for p in trace["traced"]]

    def over_rounds(fn) -> float:
        return med(fn(r) for r in rounds)

    def row(totals, span, i):
        return totals.get(span, [0.0, 0.0, 0, 0])[i]

    def per_unit(totals, span, by):
        count = row(totals, span, 3 if by == "units" else 2)
        return row(totals, span, 1) / count * 1e6 if count else 0.0

    out = {}
    for span in SELF_TIME_SPANS:
        out[f"{span}_s"] = metric(over_rounds(lambda t: row(t, span, 0)), "s")
    for name, (span, by) in PER_UNIT_SPANS.items():
        out[name] = metric(over_rounds(lambda t: per_unit(t, span, by)), "us")
    for span in CALL_SPANS:
        out[f"{span}.calls"] = metric(over_rounds(lambda t: row(t, span, 2)), "count")
    for span in PEAK_SPANS:
        peak = max((r.get("spans", {}).get(span, [0] * 5)[4] for r in trace["memory"].values()),
                   default=0)
        out[f"{span}_peak_mb"] = metric(peak / MIB, "MiB")
    out["cli.unattributed_s"] = metric(med(
        sum(r["report"]["wall_time_s"] - r["root_s"] for r in p.values() if r["report"])
        for p in trace["traced"]
    ), "s")
    untraced = med(_engine_total(p) for p in trace["untraced"])
    traced = med(_engine_total(p) for p in trace["traced"])
    out["trace_overhead_frac"] = metric(traced / untraced - 1.0 if untraced else 0.0, "ratio")
    for name, (cmd, span) in BASELINE_SPANS.items():
        out[name] = metric(med(
            p.get(cmd, {}).get("spans", {}).get(span, [0.0])[0] for p in trace["traced"]
        ), "s")
    for name, (cmd, span) in BASELINE_PER_SAMPLE.items():
        out[name] = metric(med(
            per_unit(p[cmd]["spans"], span, "units") if cmd in p else 0.0
            for p in trace["traced"]
        ), "us")
    probes = [c.name for c in commands if c.probe]
    out[PROBE_METRIC] = metric(float(sum(
        "MemoryError" in (trace["traced"][0][name]["error"] or "") for name in probes
    )), "count")
    return out


def run_trace(commands, trivial, env, work, root, t_start, seconds, tally):
    starts = [execute(trivial, env, work, tally)[0].wall_s for _ in range(CLI_START_REPS)]
    plan = work / "plan.json"
    result = work / "trace.json"
    plan.write_text(json.dumps({
        "deadline_s": max(0.0, seconds - (time.perf_counter() - t_start)),
        "memory_spans": PEAK_SPANS,
        "commands": [{"name": c.name, "argv": list(c.argv)} for c in commands],
    }))
    tracer = Path(__file__).resolve().parent / "tracer.py"
    outcome = spawn([sys.executable, str(tracer), str(plan), str(result)], env, work,
                    TRACE_CPU_CAP_S)
    if outcome.code != 0 or not result.is_file():
        for cmd in commands:
            tally.add(cmd, "failed", f"traced replay exited {outcome.code}: "
                                     f"{outcome.stderr.strip()[-300:]}")
        return None
    trace = json.loads(result.read_text())
    print(json.dumps({"trace_pass_s": trace["pass_s"], "spans_recorded": len(trace["spans"])}))
    if not Path(trace["manlab"]).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"perfbench: traced replay imported manlab from {trace['manlab']}")
    for records in trace["untraced"] + trace["traced"] + [trace["memory"]]:
        for cmd in commands:
            rec = records[cmd.name]
            tally.add(cmd, *judge(cmd, rec["report"], rec["error"]))
    return {"cli.start_s": metric(statistics.median(starts), "s"),
            **layer_metrics(trace, commands)}


# -- main ------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "rlimit_as_bytes": AS_CAP_BYTES, "command_cpu_cap_s": COMMAND_CPU_CAP_S,
        "blas_threads": 1, "nproc": os.cpu_count(), "cpu_model": cpu,
        "numpy": np.__version__, "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    root = Path.cwd().resolve()
    if not (root / "src" / "manlab" / "cli.py").is_file():
        print(f"perfbench: no manlab source at {root / 'src' / 'manlab'}; "
              "run from the root of a manlab checkout", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("MANLAB_SEED", None)

    def set_up(directory: Path):
        """Write the seed's input files and compute the reference values into `directory`."""
        shutil.rmtree(directory, ignore_errors=True)
        t0 = time.perf_counter()
        files = InputDir(directory)
        commands = WORKLOADS[args.workload](files, np.random.default_rng(args.seed))
        trivial = cli_start_command(files)
        return time.perf_counter() - t0, commands, trivial

    try:
        first_s, commands, trivial = set_up(work / "inputs")
        setup = [first_s]
        tally = Tally()
        if args.trace:
            metrics = run_trace(commands, trivial, env, work, root, t_start, args.seconds,
                                tally) or {}
            per_cmd = {}
        else:
            per_cmd, gauges = run_cli(
                commands, trivial, env, work, t_start, args.seconds, tally,
                # Later repetitions write to a directory of their own, so the
                # files the commands read stay untouched.
                lambda: setup.append(set_up(work / "setup")[0]),
            )
            sums = [sum(v[k] for v in per_cmd.values()) for k in range(4)]
            # Set-up is repeated between commands, so it is scaled by the run's
            # median gauge time.
            setup_scale = statistics.median(gauges) / hostspeed.NOMINAL_S
            metrics = {
                "wall_s": metric(sums[2], "s"),
                "engine_s": metric(sums[3], "s"),
                "peak_rss_mb": metric(max(v[4] for v in per_cmd.values()), "MiB"),
                "setup_s": metric(statistics.median(setup) / setup_scale, "s"),
                "ok_frac": metric(tally.ok_frac(), "ratio"),
            }
            print(json.dumps({
                "host_speed": {"gauge_median_s": statistics.median(gauges),
                               "gauges": len(gauges), "nominal_s": hostspeed.NOMINAL_S},
                "unscaled": {"wall_s": sums[0], "engine_s": sums[1],
                             "setup_s": statistics.median(setup)},
            }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    print(json.dumps({"env": environment()}))
    for name, (wall, engine, _, _, rss, n) in per_cmd.items():
        print(f"  {name:24s} wall {wall:8.3f} s  engine {engine:8.3f} s  rss {rss:7.1f} MiB"
              f"  runs {n}  (unscaled)")
    for name, reason in tally.reasons.items():
        print(f"  {name}: {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
