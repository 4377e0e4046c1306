"""Benchmark of the hens CLI: time to a correct result, per workload.

    python3 bench/run.py --workload ohmic-pipeline --seed 12345 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.  A
pass drives ``hens.cli.main(argv)`` in this process through the workload's
fixed list of CLI calls.  Set-up writes the workload's input files and runs
one warm-up pass, whose outputs are checked against the workload's oracles and
whose sha256 digests every later pass must reproduce byte for byte.  Timed
passes then repeat while the next one is expected to end within ``--seconds``.
A call fails if it exits with an unexpected code, raises, misses its oracle or
changes an output byte.

With ``--trace 0`` the last line reports the end-to-end metrics: the median
pass, peak memory, and set-up (this process's own first ``import hens.cli``,
the input writes and the warm-up pass).  With ``--trace 1`` traced and
untraced passes alternate and the last line reports per-layer metrics from the
traced ones.  The line before it holds the environment, the per-subcommand
times, fresh-interpreter import times taken between passes, the failure share
and, when traced, every span total; ``.bench_work/<workload>/`` keeps that
record and the spans.

BLAS runs single-threaded and HENS_THREADS is unset: this is the plain
single-threaded baseline.  Every CLI user starts a fresh process, so state
that outlives one ``main`` call speeds up later passes without helping users.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

DEFAULT_SEED = 12345  # the CLI's own default seed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
GENERATE_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.write_s": "s", "cli.rows_written": "count",
    "cli.bytes_written": "bytes", "dephasing.self_s": "s", "dephasing.series_points": "count",
    "inversion.gram_calls": "count", "inversion.witness_best_at_frac": "ratio",
    "inversion.landscape_columns": "count", "ensemble.draws": "count",
    "ensemble.joint_evolve_calls": "count", "ensemble.dephase_qubit_calls": "count",
    "qdyn.unitary_at_calls": "count", "qdyn.partial_trace_calls": "count",
    "qdyn.trace_distance_calls": "count", "trace.overhead_s": "s",
}


def digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def run_pass(workload, out: Path, main, tracer=None):
    """One pass over the workload's calls; returns (wall, [(call, rc, seconds, stderr)])."""
    shutil.rmtree(out, ignore_errors=True)
    results = []
    start = time.perf_counter()
    for call in workload.calls:
        argv = call.argv + ["--output-dir", str(out / call.name)]
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err):
                rc = tracer.span("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a raising call is a failed operation
            rc = f"raised {exc!r}"
        results.append((call, rc, time.perf_counter() - t0, err.getvalue()))
    return time.perf_counter() - start, results


class Ledger:
    """Attempted and failed calls, and the warm-up pass's output digests."""

    def __init__(self, out: Path, oracle_miss):
        self.out = out
        self.oracle_miss = oracle_miss
        self.attempted = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    def judge(self, results, label: str, oracle: bool = False) -> None:
        for call, rc, _, err in results:
            self.attempted += 1
            out = self.out / call.name
            problem = None
            if rc != call.expect_rc:
                problem = f"exit {rc}, expected {call.expect_rc}: {err.strip()[-300:]}"
            elif "Traceback" in err:
                problem = "printed a traceback"
            elif oracle:
                try:
                    call.check(out)
                except self.oracle_miss as exc:
                    problem = f"oracle: {exc}"
                self.reference[call.name] = digests(out)
            elif digests(out) != self.reference.get(call.name):
                problem = "output bytes differ from the warm-up pass"
            if problem:
                self.problems.append(f"{label} {call.name}: {problem}")


def import_seconds() -> float:
    """`import hens.cli` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import hens.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build record is optional across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in (*THREAD_VARS, "HENS_THREADS")},
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "timing": "pass and stage times follow a warm-up pass; lazy set-up is in "
                  "setup_s and import_s",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path("src").resolve()
    if not (src / "hens" / "cli.py").is_file():
        print("bench: run from the repository root (src/hens/cli.py not found)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HENS_THREADS", None)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import hens.cli
    import_own = time.perf_counter() - t0
    from spans import Tracer
    from workloads import WORKLOADS, OracleMiss

    if Path(hens.cli.__file__).resolve().parent != src / "hens":
        print(f"bench: imported hens from {hens.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = Path(".bench_work") / args.workload
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, inputs)

    # set-up: input files (median of a few writes) and one warm-up pass
    gen_times = []
    for _ in range(GENERATE_REPEATS):
        t0 = time.perf_counter()
        workload.generate()
        gen_times.append(time.perf_counter() - t0)
    warm_wall, warm = run_pass(workload, out, hens.cli.main)
    ledger = Ledger(out, OracleMiss)
    ledger.judge(warm, "warm-up", oracle=True)

    tracer = Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    stage_times: list[dict[str, float]] = []
    imports: list[float] = []
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        traced = tracer is not None and k % 2 == 1
        if traced:
            with tracer.installed(k):
                wall, results = run_pass(workload, out, hens.cli.main, tracer)
        else:
            wall, results = run_pass(workload, out, hens.cli.main)
            stages: dict[str, float] = {}
            for call, _, seconds, _ in results:
                stages[call.stage + "_s"] = stages.get(call.stage + "_s", 0.0) + seconds
            stage_times.append(stages)
        walls[traced].append(wall)
        ledger.judge(results, f"pass {k}{' traced' if traced else ''}")
        # spread the import samples over the run, so a slow spell skews only some
        while not tracer and len(imports) < IMPORT_SAMPLES * min(
                1.0, (time.perf_counter() - start) / args.seconds):
            imports.append(import_seconds())
        # stop before a pass that would end past --seconds, once each kind ran
        next_end = time.perf_counter() - start + statistics.mean(walls[False] + walls[True])
        if walls[False] and (walls[True] or not tracer) and next_end > args.seconds:
            break
    while not tracer and len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())
    shutil.rmtree(out, ignore_errors=True)

    failed = len(ledger.problems)
    record = {
        "workload": args.workload,
        "env": environment(args.seed),
        "setup_s": {"import": import_own, "generate": gen_times, "warm_up": warm_wall},
        "walls_s": {"untraced": walls[False], "traced": walls[True]},
        "import_s": {"median": statistics.median(imports) if imports else None,
                     "samples": imports},
        "stages_s": {s: statistics.median(d[s] for d in stage_times) for s in stage_times[0]},
        "failed_frac": failed / ledger.attempted,
        "failures": ledger.problems,
        "digests": ledger.reference,
    }
    if tracer:
        per_pass = [tracer.pass_metrics(i) for i in range(1, k + 1, 2)]
        layers = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        record["layers"] = layers
        values = layers
        units = PER_LAYER_UNITS
        with open(work / f"spans-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": tracer.spans}, fh)
    else:
        values = {
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_own + statistics.median(gen_times) + warm_wall,
        }
        units = END_TO_END_UNITS
    with open(work / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for p in ledger.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({key: v for key, v in record.items() if key != "digests"}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
