"""One workload process of the benchmark; run.py starts it with partbij on
PYTHONPATH and reads the JSON line it prints last.

    python3 perfbench/worker.py suite|closed-form|bijections
        --seed N --seconds S --trace 0|1 [--dump PATH]

`suite` runs one quick suite and exits, so that every suite runs in a
fresh process. `closed-form` and `bijections` run whole rounds of their
operations until S seconds have passed. With --trace 1 untraced and
traced rounds alternate; the traced ones give the per-layer metrics and
the difference gives the tracing overhead.
"""

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

now = time.perf_counter

_CAL_BOX = reference.Box(["q", "z"], [12, 12])
PROBE_PERIOD = 0.1


def _calibration():
    sum(len(p) for p in reference.partitions(20))
    reference.closed_form("thm8.1", {"t": 2, "r": 2}, _CAL_BOX)


def calibrate(reps=5):
    """Mean seconds of the calibration, a fixed pure-Python computation of
    the benchmark's own (a partition enumeration and a big-int series
    division). The collector is off while it runs, so that the size of
    the caller's heap does not enter."""
    was_on = gc.isenabled()
    gc.disable()
    times = []
    try:
        for _ in range(reps):
            start = now()
            _calibration()
            times.append(now() - start)
    finally:
        if was_on:
            gc.enable()
    return statistics.fmean(times)


class SpeedProbe:
    """Samples how fast the machine runs while the workload runs.

    This machine's speed changes by up to half, for a fraction of a second
    to minutes at a time, and the program's speed with it. Every
    PROBE_PERIOD seconds SIGALRM interrupts the program and times one run
    of the calibration; run.py scales each round's times by the mean
    calibration taken during the round, since a round's time adds up the
    fast and the slow spells it ran through. clock() leaves out the time
    spent in the interruptions.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = now()
        self.samples.append(calibrate(1))
        self.spent += now() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self):
        return now() - self.spent

    def speed_since(self, mark):
        """Mean calibration seconds sampled since len(samples) was mark."""
        recent = self.samples[mark:] or self.samples[-1:]
        return statistics.fmean(recent) if recent else calibrate()


def _import_partbij():
    import partbij
    import partbij.cli  # noqa: F401

    src = (HERE.parent / "src").resolve()
    if Path(partbij.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported partbij from {partbij.__file__}, not {src}")
    return partbij


class Totals:
    """Operations attempted and failed (by exception type), and the first
    problems the checks found."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.problems = []
        self.problem_count = 0

    def fail(self, exc):
        name = type(exc).__name__
        self.failures[name] = self.failures.get(name, 0) + 1
        self.failed += 1

    def check(self, problems):
        self.problem_count += len(problems)
        self.problems += problems[:self.KEEP - len(self.problems)]

    def as_dict(self):
        return dict(vars(self))


def _cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _loop(seconds, trace, do_round, probe, dump):
    """Run whole rounds until `seconds` have passed.

    do_round() returns (busy seconds, per-round stats). With trace on,
    rounds alternate untraced and traced, starting untraced, and end on a
    traced one; the speed probe runs only with trace off.
    """
    plain, traced, layers = [], [], []
    tracer = Tracer()
    deadline = now() + seconds
    if not trace:
        probe.start()
    while True:
        mark = len(probe.samples)
        busy, stats = do_round()
        stats["cal"] = probe.speed_since(mark)
        plain.append((busy, stats))
        if trace:
            tracer.reset()
            tracer.install()
            try:
                busy, stats = do_round()
            finally:
                tracer.uninstall()
            traced.append((busy, stats))
            layers.append(tracer.summary())
        if now() >= deadline:
            break
    probe.stop()
    result = {"rounds": [s for _, s in plain]}
    if trace:
        result["layers"] = mean_layers(layers)
        result["layers"]["trace.overhead_s"] = (
            sum(b for b, _ in traced) / len(traced) - sum(b for b, _ in plain) / len(plain))
        if dump:
            tracer.dump(dump)
    return result


def mean_layers(layers):
    """Per-metric mean over traced rounds; counts of identical rounds stay
    whole numbers."""
    out = {}
    for k in layers[0]:
        values = [d[k] for d in layers]
        same_count = isinstance(values[0], int) and len(set(values)) == 1
        out[k] = values[0] if same_count else sum(values) / len(values)
    return out


# ---------------------------------------------------------------------------
# suite-quick
# ---------------------------------------------------------------------------

SUITE_ARGV = ["suite", "--level", "quick", "--json", "--threads", "1"]


def run_suite(args):
    partbij = _import_partbij()
    tracer = Tracer()
    probe = SpeedProbe()
    if args.trace:
        tracer.install()
    else:
        probe.start()
    start = probe.clock()
    rc, out, err = _cli(partbij.cli, SUITE_ARGV)
    suite_s = probe.clock() - start
    probe.stop()
    if args.trace:
        tracer.uninstall()
    cal = probe.speed_since(0)
    totals = Totals()
    problems, totals.attempted = checks.suite(rc, out, partbij.THEOREM_IDS)
    if err:
        problems.append(f"suite wrote to stderr: {err[:200]!r}")
    totals.check(problems)
    result = {"rounds": [{"work": totals.attempted, "seconds": suite_s,
                          "cli_ms": [suite_s * 1000.0], "cal": cal}],
              **totals.as_dict()}
    if args.trace:
        result["layers"] = tracer.summary()
        if args.dump:
            tracer.dump(args.dump)
    return result


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

def closed_form_cases():
    """(kind, ident or n, params, box) for every expansion in one round.

    Boxes are larger than the quick suite's. Pochhammer quotients and
    general products are both present, so a rewrite that helps one kind
    and hurts the other shows in the rate.
    """
    cases = [
        ("rhs", "thm3.1", {}, {"q": 18, "z": 36}),
        ("rhs", "thm3.2", {}, {"q": 18, "z": 18}),
        ("rhs", "thm5.1", {}, {"q": 18, "z": 18}),
        ("rhs", "thm5.1", {}, {"q": 30, "z": 30}),
        ("rhs", "thm5.2", {}, {"q": 18, "z": 18}),
        ("rhs", "thm4.1", {}, {"q": 18, "z": 18}),
        ("rhs", "thm4.1", {}, {"q": 22, "z": 22}),
        ("rhs", "thm4.2", {}, {"q": 18, "z": 18}),
        ("rhs", "thm4.2", {}, {"q": 24, "z": 24}),
    ]
    for t in (1, 2, 3, 4):
        for r in (1, 2, 3, 4):
            cases.append(("rhs", "thm8.1", {"t": t, "r": r}, {"q": 15, "z": 15}))
    for t in (2, 3):
        for r in (1, 2, 3):
            cases.append(("rhs", "cor10", {"t": t, "r": r}, {"q": 12, "z": 12}))
    for n in range(7):
        cases.append(("rhs", "eq14", {"n": n}, {"q": 15, "z": 15}))
    for t in (1, 2, 3):
        box = {"q": 12}
        box.update({f"z{i}": 6 for i in range(1, t + 1)})
        cases.append(("rhs", "thm8.2", {"t": t}, box))
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            cases.append(("rhs", "thm9", {"t": t, "r": r}, {"q": 12, "z": 12, "s": 12}))
    cases.append(("rhs", "thm9", {"t": 2, "r": 1}, {"q": 16, "z": 16, "s": 16}))
    for n, t in ((9, 2), (6, 3), (4, 4)):
        cases.append(("f_recurrence", n, {"t": t}, {"q": 12, "s": 18}))
    return cases


# `partbij series --json` calls; five, so that the median call is one of them
SERIES_CLI = (
    ("thm3.1", {}, {"q": 18, "z": 36}),
    ("thm5.2", {}, {"q": 18, "z": 18}),
    ("thm8.1", {"t": 3, "r": 2}, {"q": 15, "z": 15}),
    ("thm9", {"t": 3, "r": 1}, {"q": 12, "z": 12, "s": 12}),
    ("eq14", {"n": 6}, {"q": 15, "z": 15}),
)


def _reference_for(case):
    kind, ident, params, box = case
    rbox = reference.Box(list(box), list(box.values()))
    if kind == "rhs":
        return rbox, reference.closed_form(ident, params, rbox)
    return rbox, reference.largest_part_series(ident, params["t"], rbox)


def _series_argv(ident, params, box):
    argv = ["series", ident, "--json"]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]
    for k, v in box.items():
        argv += [f"--max-{k}", str(v)]
    return argv


def _dense(rbox, terms):
    """Coefficients of `partbij series --json` terms in the reference's order."""
    c = [0] * rbox.volume
    for exps, coeff in terms:
        e = rbox.exps(exps)
        if e is None or set(exps) - set(rbox.names):
            return None
        c[rbox.flat(e)] += coeff
    return c


def run_closed_form(args):
    partbij = _import_partbij()
    probe = SpeedProbe()
    clock = probe.clock
    import numpy as np

    verify, series = partbij.verify, partbij.series
    cases = closed_form_cases()
    refs = [_reference_for(c) for c in cases]
    calls = [(_series_argv(*c), _reference_for(("rhs",) + c)) for c in SERIES_CLI]
    rng = random.Random(args.seed)
    totals = Totals()

    def do_round():
        order = list(range(len(cases)))
        rng.shuffle(order)
        results = {}
        busy = ok_s = 0.0
        coeffs = 0
        for i in order:
            kind, ident, params, box = cases[i]
            start = clock()
            try:
                if kind == "rhs":
                    f = verify.rhs_series(ident, params, box)
                else:
                    f = verify.f_recurrence(ident, params["t"], box)
            except series.CoefficientOverflow as exc:
                dt = clock() - start
                totals.fail(exc)
            else:
                dt = clock() - start
                results[i] = f
                ok_s += dt
                coeffs += refs[i][0].volume
            busy += dt
            totals.attempted += 1
        for i, f in results.items():
            rbox, want = refs[i]
            perm = [f.variables.index(v) for v in rbox.names]
            got = np.transpose(f.coeffs, perm).ravel().tolist()
            totals.check(checks.coefficients(" ".join(map(str, cases[i])), got, want))

        cli_ms = []
        for argv, (rbox, want) in calls:
            start = clock()
            rc, out, err = _cli(partbij.cli, argv)
            dt = clock() - start
            busy += dt
            cli_ms.append(dt * 1000.0)
            try:
                got = _dense(rbox, json.loads(out)["terms"])
            except (ValueError, KeyError, TypeError):
                got = None
            if rc != 0 or err or got is None:
                totals.check([f"partbij {' '.join(argv)}: exit {rc}, "
                              f"stderr {err[:200]!r}, stdout {out[:200]!r}"])
            else:
                totals.check(checks.coefficients("partbij " + " ".join(argv), got, want))
        totals.attempted += len(calls)
        return busy, {"work": coeffs, "seconds": ok_s, "cli_ms": cli_ms}

    result = _loop(args.seconds, args.trace, do_round, probe, args.dump)
    result.update(totals.as_dict())
    return result


# ---------------------------------------------------------------------------
# bijections
# ---------------------------------------------------------------------------

SMALL_MAX = 20      # every partition of size <= SMALL_MAX
LARGE_SIZE = 300    # plus LARGE_COUNT uniform random partitions of this size
LARGE_COUNT = 200
CLI_SIZE = 40       # random partitions fed to the CLI calls
COLOR_TR = ((1, 1), (2, 1), (3, 2), (4, 3))
HOOK_M = (2, 3, 5)

# bad inputs that must give exit 2 and one `error:` line
CLI_BAD = (
    ["bijection", "hook-map", "--input", '{"m":3,"rows":[[1]]}'],
    ["bijection", "hook-map", "--input", '{"m":"x","rows":[]}'],
    ["bijection", "color-conjugate", "--r", "0", "--input", "[3,2]"],
    ["table", "bessenrodt", "--n", "-1"],
)


def bijection_inputs(seed):
    """Every partition up to SMALL_MAX, then the seed's random large ones."""
    small = [p for n in range(SMALL_MAX + 1) for p in reference.partitions(n)]
    rng = random.Random(seed)
    sampler = reference.PartitionSampler(LARGE_SIZE)
    large = [sampler.draw(rng) for _ in range(LARGE_COUNT)]
    cli_sampler = reference.PartitionSampler(CLI_SIZE)
    cli_parts = [cli_sampler.draw(rng) for _ in range(4)]
    return small + large, cli_parts


def cli_calls(partbij, parts):
    """(argv, expected stdout) pairs, the expectation taken from the library."""
    b, ver = partbij.bijections, partbij.verify
    P = partbij.Partition
    dumps = json.dumps
    l1, l2, l3, l4 = (P(p) for p in parts)
    omega = P(2 * p - 1 for p in l2)
    delta = b.bessenrodt(omega)
    nu, mu = b.color_conjugate(l3, 3, 2)
    pair = {"nu": list(nu), "mu": [[p, c] for p, c in mu.entries]}
    image = b.generalized_hook_map(partbij.to_modular(l4, 3))
    diagram = partbij.to_modular(l4, 4)
    image4 = b.generalized_hook_map(diagram)
    rows = ver.table_bessenrodt(12)
    table_text = "".join(f"{w}  {dumps(list(d))}  {dumps(list(o))}\n" for w, d, o in rows)
    table_json = dumps([[w, list(d), list(o)] for w, d, o in rows]) + "\n"

    def hook(img):
        return dumps({"parts": list(img.parts), "is_partition": img.is_partition}) + "\n"

    return [
        (["bijection", "mork", "--input", dumps(list(l1))], dumps(list(b.mork(l1))) + "\n"),
        (["bijection", "mork", "--inverse", "--input", dumps(list(b.mork(l1)))],
         dumps(list(l1)) + "\n"),
        (["bijection", "modular-fill", "--input", dumps(list(l2))], dumps(list(omega)) + "\n"),
        (["bijection", "modular-fill", "--inverse", "--input", dumps(list(omega))],
         dumps(list(l2)) + "\n"),
        (["bijection", "bessenrodt", "--input", dumps(list(omega))], dumps(list(delta)) + "\n"),
        (["bijection", "bessenrodt", "--inverse", "--input", dumps(list(delta))],
         dumps(list(omega)) + "\n"),
        (["bijection", "color-conjugate", "--t", "3", "--r", "2", "--input", dumps(list(l3))],
         dumps(pair) + "\n"),
        (["bijection", "color-conjugate", "--t", "3", "--r", "2", "--inverse",
          "--input", dumps(pair)], dumps(list(l3)) + "\n"),
        (["bijection", "hook-map", "--m", "3", "--input", dumps(list(l4))], hook(image)),
        (["bijection", "hook-map", "--input",
          dumps({"m": 4, "rows": [list(r) for r in diagram.rows]})], hook(image4)),
        (["table", "bessenrodt", "--n", "12"], table_text),
        (["table", "bessenrodt", "--n", "12", "--json"], table_json),
    ]


def run_bijections(args):
    partbij = _import_partbij()
    probe = SpeedProbe()
    clock = probe.clock
    P = partbij.Partition
    raw, cli_parts = bijection_inputs(args.seed)
    lams = [P(p) for p in raw]
    omegas = [P(2 * p - 1 for p in lam) for lam in raw]
    calls = cli_calls(partbij, cli_parts)
    totals = Totals()

    def timed(fn, items):
        start = clock()
        out = [fn(*x) for x in items]
        return out, clock() - start

    def do_round():
        b, parts, cli = partbij.bijections, partbij.partitions, partbij.cli
        busy = 0.0
        maps = 0
        check = totals.check
        single = [(x,) for x in lams]

        delta, dt1 = timed(b.mork, single)
        back, dt2 = timed(b.mork_inverse, [(d,) for d in delta])
        busy += dt1 + dt2
        for lam, d, k in zip(lams, delta, back):
            check(checks.mork(lam, d, k))

        delta, dt1 = timed(b.bessenrodt, [(w,) for w in omegas])
        back, dt2 = timed(b.bessenrodt_inverse, [(d,) for d in delta])
        busy += dt1 + dt2
        for w, d, k in zip(omegas, delta, back):
            check(checks.bessenrodt(w, d, k))
        maps += 4 * len(lams)

        for t, r in COLOR_TR:
            pairs, dt1 = timed(b.color_conjugate, [(x, t, r) for x in lams])
            back, dt2 = timed(b.color_conjugate_inverse, [(nu, mu, t, r) for nu, mu in pairs])
            busy += dt1 + dt2
            maps += 2 * len(lams)
            for lam, (nu, mu), k in zip(lams, pairs, back):
                check(checks.color_conjugate(lam, t, r, nu, mu.entries, k))

        for m in HOOK_M:
            images, dt = timed(lambda x: b.generalized_hook_map(parts.to_modular(x, m)), single)
            busy += dt
            maps += len(lams)
            for lam, img in zip(lams, images):
                check(checks.hook_map(lam, m, img.parts))

        totals.attempted += len(lams) * (2 + len(COLOR_TR) + len(HOOK_M))
        map_s = busy
        cli_ms = []

        for argv, expected in calls:
            start = clock()
            rc, out, err = _cli(cli, argv)
            dt = clock() - start
            busy += dt
            cli_ms.append(dt * 1000.0)
            check(checks.cli_call(argv, rc, out, err, expected))
        totals.attempted += len(calls)

        for argv in CLI_BAD:
            start = clock()
            try:
                rc, out, err = _cli(cli, argv)
            except Exception as exc:  # a traceback is the fault being counted
                totals.fail(exc)
            else:
                check(checks.cli_usage_error(argv, rc, out, err))
            busy += clock() - start
        totals.attempted += len(CLI_BAD)
        return busy, {"work": maps, "seconds": map_s, "cli_ms": cli_ms}

    result = _loop(args.seconds, args.trace, do_round, probe, args.dump)
    result.update(totals.as_dict())
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("suite", "closed-form", "bijections"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", default=None)
    args = parser.parse_args()
    run = {"suite": run_suite, "closed-form": run_closed_form,
           "bijections": run_bijections}[args.mode]
    result = run(args)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
