"""Cold-CLI benchmark for noncross.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client, closed loop: the
benchmark spawns one ``noncross`` process, waits for it to exit, checks its
stdout, then spawns the next, so every command pays interpreter start,
``import noncross.cli`` and whatever tables it builds.  The workload's
command list repeats until S seconds have passed (the first pass always
completes); each time metric takes the per-command median over repetitions
and sums it over the list.  Children get the caller's environment minus the
variables in ``SCRUBBED``, so the program runs with its default caps and
BLAS threading.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
command untraced and then under ``traced.py``, checks that both print the
same bytes, and reports the per-layer metrics.  ``--workload all`` runs every
workload and prints a table that also shows the failure ratio.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from jsonschema.validators import validator_for

from traced import TRACE_MARKER
from workloads import WORKLOADS, CheckFailed, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "noncross" / "schemas"
WORK = Path(__file__).resolve().parent / ".work"
TRACED = Path(__file__).resolve().parent / "traced.py"
LAUNCH = "import sys; from noncross.cli import main; sys.exit(main())"  # the console script

SCRUBBED = ("NONCROSS_CAP", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
COMMAND_TIMEOUT_S = 90.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.render_s": "s",
    "partitions.enum_s": "s",
    "partitions.enumerated": "count",
    "partitions.kreweras_s": "s",
    "partitions.kreweras_calls": "count",
    "partitions.mobius_s": "s",
    "partitions.refine_le_calls": "count",
    "complexes.self_s": "s",
    "complexes.chains": "count",
    "freeprob.self_s": "s",
    "freeprob.calls": "count",
    "series.self_s": "s",
    "series.compose_calls": "count",
    "series.inverse_calls": "count",
    "coxeter.context_s": "s",
    "coxeter.group_elements": "count",
    "coxeter.nc_fraction": "1",
    "coxeter.query_s": "s",
    "coxeter.abs_le_calls": "count",
    "coxeter.factorizations": "count",
    "randmat.estimate_s": "s",
    "randmat.sample_s": "s",
    "randmat.trials": "count",
    "randmat.trials_per_s.t1": "1/s",
    "randmat.trials_per_s.t2": "1/s",
    "randmat.thread_speedup": "1",
    "randmat.target_s": "s",
    **{f"{layer}.errors": "count" for layer in ("cli", "partitions", "complexes", "freeprob", "series", "coxeter", "randmat")},
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """One finished child process."""

    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns children one at a time and checks what they print."""

    def __init__(self, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
        self.env["PYTHONPATH"] = str(SRC)
        self.workdir = workdir
        self.validators = {}
        for path in SCHEMAS.glob("*.json"):
            schema = json.loads(path.read_text())
            self.validators[path.stem] = validator_for(schema)(schema)
        self.attempted = 0
        self.failures: list[str] = []
        self.payloads: dict[str, dict] = {}

    def spawn(self, argv: list[str]) -> Run:
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Run(
                wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out.read(), err.read()
            )

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def help(self) -> Run:
        self.attempted += 1
        run = self.spawn([sys.executable, "-c", LAUNCH, "--help"])
        if run.code != 0 or not run.stdout.startswith(b"usage: noncross"):
            self.fail(f"--help exited {run.code}")
        return run

    def command(self, cmd: Command) -> Run:
        self.attempted += 1
        run = self.spawn([sys.executable, "-c", LAUNCH, *cmd.argv])
        problem = self.check(cmd, run)
        if problem:
            self.fail(f"{' '.join(cmd.argv)}: {problem}")
        return run

    def traced(self, cmd: Command, command_id: str, plain: Run) -> tuple[Run, dict | None]:
        self.attempted += 1
        run = self.spawn([sys.executable, str(TRACED), command_id, *cmd.argv])
        last = run.stderr.decode(errors="replace").rstrip("\n").rpartition("\n")[2]
        trace = json.loads(last[len(TRACE_MARKER):]) if last.startswith(TRACE_MARKER) else None
        if trace is None or run.code != plain.code:
            self.fail(f"traced {' '.join(cmd.argv)}: exit {run.code}, trace {'found' if trace else 'missing'}")
        elif run.stdout != plain.stdout:
            self.fail(f"traced {' '.join(cmd.argv)}: stdout differs from the untraced run")
        return run, trace

    def check(self, cmd: Command, run: Run) -> str | None:
        if run.code != 0:
            return f"exit {run.code}: {run.stderr[-300:]!r}"
        try:
            payload = json.loads(run.stdout)
            validator = self.validators[payload["kind"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable payload ({exc!r})"
        errors = [e.message for e in validator.iter_errors(payload)]
        if errors:
            return f"schema {payload['kind']}: {errors[0]}"
        try:
            cmd.check(payload)
            if cmd.agrees_with:
                label, keys = cmd.agrees_with
                other = self.payloads.get(label)
                if other is None or any(payload[k] != other[k] for k in keys):
                    raise CheckFailed(f"{keys} differ from command {label}")
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        if cmd.label:
            self.payloads[cmd.label] = payload
        return None


def median_sum(per_command: list[list[float]]) -> float:
    return sum(statistics.median(xs) for xs in per_command)


def layer_quantities(trace: dict, traced_wall: float) -> dict[str, float]:
    """Additive per-command quantities read off one trace."""
    nodes = trace["nodes"]

    def over(test, field: str) -> float:
        return sum(n[field] for n in nodes if test(n["name"]))

    def named(name: str, field: str) -> float:
        return over(lambda x: x == name, field)

    def layer(prefix: str, field: str) -> float:
        return over(lambda x: x.startswith(prefix + "."), field)

    counters = trace["counters"]
    q = {
        "cli.import_s": trace["import_s"],
        "cli.render_s": named("cli.render", "total"),
        "partitions.enum_s": named("partitions.iter_nc", "total"),
        "partitions.enumerated": named("partitions.iter_nc", "yields"),
        "partitions.kreweras_s": named("partitions.kreweras", "total"),
        "partitions.kreweras_calls": named("partitions.kreweras", "calls"),
        "partitions.mobius_s": named("partitions.mobius_nc", "total"),
        "partitions.refine_le_calls": named("partitions.refine_le", "calls"),
        "complexes.self_s": layer("complexes", "self"),
        "complexes.chains": counters.get("complexes.chains", 0),
        "freeprob.self_s": layer("freeprob", "self"),
        "freeprob.calls": layer("freeprob", "calls"),
        "series.self_s": layer("series", "self"),
        "series.compose_calls": named("series.RationalSeries.compose", "calls"),
        "series.inverse_calls": named("series.RationalSeries.compositional_inverse", "calls"),
        "coxeter.context_s": named("coxeter.CoxeterContext.__init__", "total"),
        "coxeter.group_elements": counters.get("coxeter.group_elements", 0),
        "coxeter.nc_elements": counters.get("coxeter.nc_elements", 0),
        "coxeter.nc_group_elements": counters.get("coxeter.nc_group_elements", 0),
        "coxeter.abs_le_calls": named("coxeter.abs_le", "calls"),
        "coxeter.factorizations": counters.get("coxeter.factorizations", 0),
        "randmat.estimate_s": named("randmat.estimate_moments", "total"),
        "randmat.sample_s": named("randmat.sample_ginibre", "total"),
        "randmat.trials": named("randmat.trial_rng", "calls"),
        "randmat.target_s": sum(
            n["total"]
            for n in nodes
            if n["name"] == "freeprob.free_bessel_moments" and n["parent_name"].startswith("randmat.")
        ),
        "cli.errors": named("cli.render", "errors"),
        "traced_wall": traced_wall,
    }
    # Group queries: coxeter self time outside the group build (the build
    # calls nothing outside coxeter, so its total is all coxeter self time).
    q["coxeter.query_s"] = layer("coxeter", "self") - q["coxeter.context_s"]
    for name in ("partitions", "complexes", "freeprob", "series", "coxeter", "randmat"):
        q[f"{name}.errors"] = layer(name, "errors")
    sampling = q["randmat.estimate_s"] - q["randmat.target_s"]
    q["trials_per_s"] = q["randmat.trials"] / sampling if sampling > 0 else 0.0
    return q


def layer_metrics(workload: Workload, quantities: list[list[dict]], plain_walls: list[list[float]]) -> dict:
    """Per-command medians over traced repetitions, summed over the command list."""
    medians = [
        {key: statistics.median(q[key] for q in qs) for key in qs[0]} for qs in quantities
    ]
    total = {key: sum(m[key] for m in medians) for key in medians[0]}
    rate = {cmd.label: m["trials_per_s"] for cmd, m in zip(workload.commands, medians) if cmd.label}
    t1, t2 = rate.get("rmt.t1", 0.0), rate.get("rmt.t2", 0.0)
    nc_group = total["coxeter.nc_group_elements"]
    metrics = {key: total[key] for key in LAYER_UNITS if key in total}
    metrics.update(
        {
            "coxeter.nc_fraction": total["coxeter.nc_elements"] / nc_group if nc_group else 0.0,
            "randmat.trials_per_s.t1": t1,
            "randmat.trials_per_s.t2": t2,
            "randmat.thread_speedup": t2 / t1 if t1 else 0.0,
            "trace.overhead_s": total["traced_wall"] - median_sum(plain_walls),
        }
    )
    return metrics


def measure(runner: Runner, workload: Workload, seconds: float, trace: bool) -> dict:
    n = len(workload.commands)
    walls: list[list[float]] = [[] for _ in range(n)]
    cpus: list[list[float]] = [[] for _ in range(n)]
    rss_kb = 0
    quantities: list[list[dict]] = [[] for _ in range(n)]
    setup = []
    runner.help()  # fills the bytecode cache of a fresh checkout
    for _ in range(SETUP_RUNS):
        run = runner.help()
        setup.append(run.wall)
        rss_kb = max(rss_kb, run.rss_kb)
    # Cycle through the list until the budget is spent, stopping only between
    # commands, after at least one whole pass.
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        k = i % n
        cmd = workload.commands[k]
        run = runner.command(cmd)
        walls[k].append(run.wall)
        cpus[k].append(run.cpu)
        rss_kb = max(rss_kb, run.rss_kb)
        if trace:
            traced_run, record = runner.traced(cmd, f"{workload.name}.{k}.{i // n}", run)
            if record is not None:
                quantities[k].append(layer_quantities(record, traced_run.wall))
        i += 1
    print(f"{workload.name}: {i} runs of {n} commands; walls {json.dumps(walls)}", file=sys.stderr)
    if trace:
        if any(not q for q in quantities):
            return {}
        return layer_metrics(workload, quantities, walls)
    return {
        "wall_s": median_sum(walls),
        "cpu_s": median_sum(cpus),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup),
    }


def environment() -> dict:
    """What the figures depend on besides the code."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    probe = (
        "import json, numpy; c = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps([numpy.__version__, c.get('name'), c.get('version')]))"
    )
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    found = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    numpy_version, blas, blas_version = json.loads(found.stdout) if found.returncode == 0 else (None, None, None)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "scrubbed": [k for k in SCRUBBED if k in os.environ],
    }


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    metrics = measure(runner, workload, seconds, trace)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not runner.failures and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units if key in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noncross" / "cli.py").is_file() or not SCHEMAS.is_dir():
        print(f"no noncross source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("environment " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        runner = Runner(WORK)
        results[name] = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = results[name]
            print(f"{name}: correct={result['correct']}")
            for key, metric in result["metrics"].items():
                print(f"  {key:28s} {metric['value']:14.6g} {metric['unit']}")
            print(f"  {'fail_ratio':28s} {result['failed'] / result['attempted']:14.6g} 1")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
