"""Command-line front end: apply bijections, run verifications,
reproduce the bessenrodt table, and print catalog series.

Partitions travel as JSON arrays, colored partitions as arrays of
[part, color] pairs, modular diagrams as {"m": ..., "rows": [[cells,
remainder], ...]}. Exit codes: 0 success or pass, 1 verification
failure, 2 usage or bad input.
"""

import argparse
import json
import sys

from . import bijections as bij
from . import verify as ver
from ._accel import HistogramOverflow, UnboundedBox
from .bijections import (
    color_conjugate,
    color_conjugate_inverse,
    generalized_hook_map,
)
from .colored import ColoredPartition, ColoredPartitionError
from .partitions import (
    ModularDiagram,
    Partition,
    PartitionError,
    from_modular,
    to_modular,
)
from .series import SeriesError
from .verify import IDENTITY_IDS, THEOREM_IDS, VerifyError

BIJECTION_NAMES = (
    "mork",
    "modular-fill",
    "bessenrodt",
    "color-conjugate",
    "hook-map",
)


class UsageError(ValueError):
    """Bad input or flags for an otherwise well-formed command line."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one `error:` line, like any
    other usage error, instead of printing the usage text."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_input(raw):
    text = sys.stdin.read() if raw == "-" else raw
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"input is not valid JSON: {exc}") from exc


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_pairs(data):
    return isinstance(data, list) and all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
        for e in data
    )


def _as_partition(data):
    if not isinstance(data, list) or not all(map(_is_int, data)):
        raise UsageError("expected a JSON array of integers")
    return Partition(data)


def _as_colored(data, t):
    if not _is_int_pairs(data):
        raise UsageError("expected a JSON array of [part, color] pairs")
    return ColoredPartition(map(tuple, data), t)


def _as_diagram(data, m):
    if isinstance(data, dict):
        if (set(data) != {"m", "rows"} or not _is_int(data["m"])
                or not _is_int_pairs(data["rows"])):
            raise UsageError('expected {"m": ..., "rows": [[cells, remainder], ...]}')
        diagram = ModularDiagram(data["m"], tuple(map(tuple, data["rows"])))
        from_modular(diagram)  # raises InvalidDiagram on a malformed diagram
        return diagram
    base = 2 if m is None else m
    if base < 2:
        raise UsageError(f"--m must be >= 2, got {base}")
    return to_modular(_as_partition(data), base)


def _box_from_flags(args, names=("q", "z", "s")):
    box = {}
    for name in names:
        value = getattr(args, f"max_{name}", None)
        if value is not None:
            box[name] = value
    return box or None


# the bijections from partitions to partitions: the names of the forward
# and inverse maps in bijections, looked up at call time so that a map
# rebound there (as perfbench's tracer does) is the one called
_PARTITION_MAPS = {
    "mork": ("mork", "mork_inverse"),
    "modular-fill": ("modular_fill", "modular_fill_inverse"),
    "bessenrodt": ("bessenrodt", "bessenrodt_inverse"),
}


def _cmd_bijection(args):
    data = _load_input(args.input)
    name = args.name

    if name in _PARTITION_MAPS:
        forward, inverse = _PARTITION_MAPS[name]
        out = getattr(bij, inverse if args.inverse else forward)(
            _as_partition(data))
        print(json.dumps(list(out)))
        return 0

    if name == "color-conjugate":
        t = 2 if args.t is None else args.t
        r = 1 if args.r is None else args.r
        if t < 1 or r < 1:
            raise UsageError(f"color-conjugate needs t >= 1 and r >= 1, got t={t} r={r}")
        if args.inverse:
            if not isinstance(data, dict) or set(data) != {"nu", "mu"}:
                raise UsageError('expected {"nu": [...], "mu": [[part, color], ...]}')
            lam = color_conjugate_inverse(
                _as_partition(data["nu"]), _as_colored(data["mu"], t), t, r
            )
            print(json.dumps(list(lam)))
        else:
            nu, mu = color_conjugate(_as_partition(data), t, r)
            print(json.dumps({
                "nu": list(nu),
                "mu": [[p, c] for p, c in mu.entries],
            }))
        return 0

    if name == "hook-map":
        if args.inverse:
            raise UsageError("hook-map is not injective and has no inverse")
        image = generalized_hook_map(_as_diagram(data, args.m))
        print(json.dumps({
            "parts": list(image.parts),
            "is_partition": image.is_partition,
        }))
        return 0

    raise UsageError(f"unknown bijection: {name}")


def _json_report(report):
    # stdout JSON must be byte-identical across runs, so the timing field
    # stays library-only
    data = report.to_json()
    data.pop("elapsed_ms", None)
    return data


def _report_line(report):
    extras = " ".join(f"{k}={v}" for k, v in report.params.items())
    where = " ".join(f"{k}<={v}" for k, v in report.box.items())
    bits = [report.id]
    if extras:
        bits.append(extras)
    if where:
        bits.append(where)
    head = " ".join(bits)
    line = (f"{head}: {report.status} "
            f"({report.coefficients_checked} checked, "
            f"{report.elapsed_ms:.1f} ms)")
    if report.first_mismatch is not None:
        line += f" first mismatch {json.dumps(report.first_mismatch)}"
    return line


def _cmd_verify(args):
    report = ver.run_verifier(
        args.id, t=args.t, r=args.r, n=args.n, k=args.k,
        box=_box_from_flags(args), m=args.m,
    )
    if args.json:
        print(json.dumps(_json_report(report)))
    else:
        print(_report_line(report))
    return 0 if report.passed else 1


def _cmd_table(args):
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    rows = ver.table_bessenrodt(args.n)
    if args.json:
        print(json.dumps([[w, list(d), list(o)] for w, d, o in rows]))
    else:
        for w, d, o in rows:
            print(f"{w}  {json.dumps(list(d))}  {json.dumps(list(o))}")
    return 0


def _cmd_series(args):
    params, box = ver.resolve_arguments(
        args.id, _box_from_flags(args), t=args.t, r=args.r, n=args.n
    )
    f = ver.rhs_series(args.id, params, box)
    if args.json:
        print(json.dumps(f.to_json()))
    else:
        print(f.text())
    return 0


def _cmd_suite(args):
    suite = ver.run_suite(args.level)
    if args.json:
        print(json.dumps({
            "level": suite.level,
            "passed": suite.passed,
            "reports": [_json_report(r) for r in suite.reports],
        }))
    else:
        for report in suite.reports:
            print(_report_line(report))
        verdict = "all passed" if suite.passed else \
            f"{len(suite.failures())} FAILED"
        print(f"{suite.level} suite: {len(suite.reports)} checks, {verdict}")
    return 0 if suite.passed else 1


def _build_parser():
    parser = _Parser(
        prog="partbij",
        description="Partition bijections, truncated q-series, and "
                    "identity verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    b = sub.add_parser("bijection", help="apply a named bijection")
    b.add_argument("name", choices=BIJECTION_NAMES)
    b.add_argument("--input", required=True,
                   help="JSON input; '-' reads stdin")
    b.add_argument("--inverse", action="store_true")
    b.add_argument("--t", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--m", type=int)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bijection)

    v = sub.add_parser("verify", help="run one catalog check")
    v.add_argument("id", choices=THEOREM_IDS)
    v.add_argument("--t", type=int)
    v.add_argument("--r", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--m", type=int)
    v.add_argument("--max-q", type=int, dest="max_q")
    v.add_argument("--max-z", type=int, dest="max_z")
    v.add_argument("--max-s", type=int, dest="max_s")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("table", help="print reference table rows")
    t.add_argument("name", choices=("bessenrodt",))
    t.add_argument("--n", type=int, default=7)
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=_cmd_table)

    s = sub.add_parser("series", help="print an identity's closed form")
    s.add_argument("id", choices=IDENTITY_IDS)
    s.add_argument("--t", type=int)
    s.add_argument("--r", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--max-q", type=int, dest="max_q")
    s.add_argument("--max-z", type=int, dest="max_z")
    s.add_argument("--max-s", type=int, dest="max_s")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_series)

    u = sub.add_parser("suite", help="run every catalog check")
    u.add_argument("--level", choices=("quick", "full"), default="quick")
    # accepted for old command lines and ignored: the checks run in turn
    u.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    u.add_argument("--json", action="store_true")
    u.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help; every other parse error is a UsageError
        return 0
    except (UsageError, PartitionError, ColoredPartitionError, SeriesError,
            VerifyError, HistogramOverflow, UnboundedBox) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
