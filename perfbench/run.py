"""The partbij benchmark.

    python3 perfbench/run.py --workload suite-quick|closed-form|bijections|all
        --seed N --seconds S --trace 0|1

Run from the repository root. Every workload runs in fresh single-threaded
processes that import partbij from src/ (see README.md beside this file).
With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics, and the
spans of the last traced round go to .perfbench/ under the root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import calibrate, mean_layers

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("suite-quick", "closed-form", "bijections")
SETUP_SAMPLES = 7
# Seconds the calibration takes when this machine runs at full speed. Every
# time below is reported at that speed: a time t measured while the
# calibration took c seconds is reported as t * CAL_NOMINAL / c.
CAL_NOMINAL = 0.0027
CHILD_TIMEOUT = 150
SETUP_CODE = (
    "import time, partbij\n"
    "t = time.perf_counter()\n"
    "import json, os, sys, numpy\n"
    "print(json.dumps({'t': t, 'nproc': os.cpu_count(), 'python': sys.version.split()[0],"
    " 'numpy': numpy.__version__, 'numba_loaded': 'numba' in sys.modules}))\n"
)


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # a user's imports read a bytecode cache; keep it inside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench" / "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(argv):
    """Run one fresh interpreter to its end; return its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:2]} did not finish in {CHILD_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def setup_times(n):
    """(seconds, calibration) pairs from starting a fresh interpreter until
    `import partbij` returns, n times after one untimed start that writes
    the bytecode cache."""
    facts = _child(["-c", SETUP_CODE])
    samples = []
    for _ in range(n):
        before = calibrate()
        start = time.perf_counter()
        took = _child(["-c", SETUP_CODE])["t"] - start
        samples.append((took, (before + calibrate()) / 2))
    del facts["t"]
    return samples, facts


def _worker(mode, args, trace, dump=None, seconds=None):
    argv = [str(WORKER), mode, "--seed", str(args.seed), "--trace", str(trace),
            "--seconds", str(args.seconds if seconds is None else seconds)]
    if dump:
        argv += ["--dump", str(dump)]
    return _child(argv)


def _dump_path(args):
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    return out / f"trace-{args.workload}-seed{args.seed}.json"


def run_processes(args):
    """(untraced, traced) results of the workload's worker processes.

    suite-quick starts one process per quick suite, and starts the next
    while it is expected to end inside the run; with trace on, untraced
    and traced processes alternate. The other workloads loop inside one
    process, which alternates untraced and traced rounds itself.
    """
    if args.workload != "suite-quick":
        run = _worker(args.workload, args, args.trace,
                      _dump_path(args) if args.trace else None)
        return ([], [run]) if args.trace else ([run], [])
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(_worker("suite", args, 0))
        if args.trace:
            traced.append(_worker("suite", args, 1, _dump_path(args)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > args.seconds:
            return plain, traced


def end_to_end(runs, setup, scale):
    """The end-to-end metrics; scale(cal) is 1 for the times as measured and
    CAL_NOMINAL / cal for the times at full speed."""
    rounds = [x for r in runs for x in r["rounds"]]
    return {
        "setup_s": statistics.median(t * scale(c) for t, c in setup),
        "work_per_s": statistics.median(x["work"] / (x["seconds"] * scale(x["cal"]))
                                        for x in rounds),
        "cli_call_ms": statistics.median(ms * scale(x["cal"])
                                         for x in rounds for ms in x["cli_ms"]),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }


def per_layer(plain, traced):
    if not plain:
        return traced[0]["layers"]
    layers = mean_layers([r["layers"] for r in traced])
    layers["trace.overhead_s"] = (
        statistics.fmean(r["rounds"][0]["seconds"] for r in traced)
        - statistics.fmean(r["rounds"][0]["seconds"] for r in plain))
    return layers


def _totals(runs):
    failures = {}
    for r in runs:
        for name, n in r["failures"].items():
            failures[name] = failures.get(name, 0) + n
    problems = [p for r in runs for p in r["problems"]]
    return {
        "correct": all(r["problem_count"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": failures,
        "problems": problems[:20],
    }


UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "cli_call_ms": "ms",
    "peak_rss_mb": "MB",
    "trace.overhead_s": "s",
}
# the figure each workload is known by: (name, unit, value from the metrics)
ALIAS = {
    "suite-quick": ("suite_s", "s", lambda m: m["cli_call_ms"] / 1000.0),
    "closed-form": ("coeffs_per_s", "coefficients/s", lambda m: m["work_per_s"]),
    "bijections": ("maps_per_s", "maps/s", lambda m: m["work_per_s"]),
}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("ms") else "count"


def run_workload(args):
    if not args.trace:
        setup, facts = setup_times(SETUP_SAMPLES)
        print(f"machine: {json.dumps(facts)}")
    plain, traced = run_processes(args)
    result = _totals(plain + traced)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setup, lambda cal: CAL_NOMINAL / cal)
        measured = end_to_end(plain, setup, lambda cal: 1.0)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for name in sorted(metrics):
        line = f"  {name} = {metrics[name]:.6g} {_unit(name)}"
        if not args.trace and name != "peak_rss_mb":
            line += f" at full speed, {measured[name]:.6g} as measured"
        print(line)
    if not args.trace:
        alias, unit, value = ALIAS[args.workload]
        print(f"  {alias} = {value(metrics):.6g} {unit} at full speed")
        rounds = [x for r in plain for x in r["rounds"]]
        cals = [x["cal"] for x in rounds] + [c for _, c in setup]
        print(f"  {len(rounds)} rounds; calibration took {min(cals) * 1e3:.3f} to "
              f"{max(cals) * 1e3:.3f} ms against {CAL_NOMINAL * 1e3:.3f} ms at full speed")
    print(f"  attempted {result['attempted']}, failed {result['failed']} "
          f"{json.dumps(result['failures'])}")
    for p in result["problems"]:
        print(f"  WRONG: {p}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "partbij" / "__init__.py").is_file():
        print(f"error: no partbij sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            out = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print(json.dumps(out), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
