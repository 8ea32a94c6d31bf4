"""Command-line front end: apply bijections, run verifications,
reproduce the bessenrodt table, and print catalog series.

Partitions travel as JSON arrays, colored partitions as arrays of
[part, color] pairs, modular diagrams as {"m": ..., "rows": [[cells,
remainder], ...]}. Exit codes: 0 success or pass, 1 verification
failure, 2 usage or bad input.
"""

import argparse
import functools
import json
import sys

from . import bijections as bij
from . import verify as ver
from ._accel import CoefficientOverflow, UnboundedBox
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
from .verify import CATALOG, VerifyError

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


# the largest size of a partition a bijection takes, or for hook-map and
# color-conjugate --inverse decodes or rebuilds: the maps' time and their
# outputs' length grow with the size (mork lists a partition's columns,
# and a part of 10^12 + 1 at base 10^12 has a hook-map image of 10^12
# parts); at this size each map takes at most about 4 ms (2 cores,
# Python 3.11)
BIJECTION_MAX_SIZE = 10_000


def _check_size(size):
    if size > BIJECTION_MAX_SIZE:
        raise UsageError(f"bijections take partitions of size at most "
                         f"{BIJECTION_MAX_SIZE}, got {size}")


def _as_partition(data):
    if not isinstance(data, list) or not all(map(_is_int, data)):
        raise UsageError("expected a JSON array of integers")
    lam = Partition(data)
    _check_size(lam.size())
    return lam


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
        _check_size(from_modular(diagram).size())  # InvalidDiagram if malformed
    else:
        base = 2 if m is None else m
        if base < 2:
            raise UsageError(f"--m must be >= 2, got {base}")
        diagram = to_modular(_as_partition(data), base)
    return diagram


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
            nu, mu = _as_partition(data["nu"]), _as_colored(data["mu"], t)
            # the size of the partition the pair rebuilds
            _check_size(nu.size() + (r - 1) * mu.length() + sum(
                (part - 1) * t + color for part, color in mu.entries))
            lam = color_conjugate_inverse(nu, mu, t, r)
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


def _flag_values(args):
    """The catalog flags of a verify or series command line, by flag."""
    return {flag: getattr(args, flag) for flag in args.flags}


def _cmd_verify(args):
    report = ver.run_verifier(args.id, _box_from_flags(args),
                              **_flag_values(args))
    if args.json:
        print(json.dumps(_json_report(report)))
    else:
        print(_report_line(report))
    return 0 if report.passed else 1


def _cmd_table(args):
    # table1's check of n: at least 0, at most its cap
    params, _ = ver.resolve_arguments("table1", n=args.n)
    rows = ver.table_bessenrodt(params["n"])
    if args.json:
        print(json.dumps([[w, list(d), list(o)] for w, d, o in rows]))
    else:
        for w, d, o in rows:
            print(f"{w}  {json.dumps(list(d))}  {json.dumps(list(o))}")
    return 0


def _cmd_series(args):
    params, box = ver.resolve_arguments(args.id, _box_from_flags(args),
                                        **_flag_values(args))
    f = ver.rhs_series(args.id, params, box)
    if args.json:
        print(f.json_text())
    else:
        print(f.text())
    return 0


def _cmd_suite(args):
    suite = ver.run_suite(args.level)
    if args.json:
        data = suite.to_json()
        data["reports"] = [_json_report(report) for report in suite.reports]
        print(json.dumps(data))
    else:
        for report in suite.reports:
            print(_report_line(report))
        verdict = "all passed" if suite.passed else \
            f"{len(suite.failures())} FAILED"
        print(f"{suite.level} suite: {len(suite.reports)} checks, {verdict}")
    return 0 if suite.passed else 1


def _add_check_parser(sub, name, entries, func, help):
    """A verify or series parser over entries: an id, the flags the entries
    take, each once in catalog order, the box bounds and --json."""
    p = sub.add_parser(name, help=help)
    p.add_argument("id", choices=[entry.id for entry in entries])
    flags = tuple(dict.fromkeys(f for entry in entries for f in entry.flags))
    for flag in flags:
        p.add_argument(f"--{flag}", type=int)
    for var in ("q", "z", "s"):
        p.add_argument(f"--max-{var}", type=int, dest=f"max_{var}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=func, flags=flags)


# built on the first main() call, not at import, and reused by every later
# call in the process: a parse keeps its state in the namespace it returns
@functools.cache
def _build_parser():
    parser = _Parser(
        prog="partbij",
        description="Partition bijections, truncated q-series, and "
                    "identity verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # main() hands a command line that starts with a subcommand straight to
    # that subcommand's parser, looked up here
    parser.subcommands = sub.choices

    b = sub.add_parser("bijection", help="apply a named bijection")
    b.add_argument("name", choices=BIJECTION_NAMES)
    b.add_argument("--input", required=True,
                   help="JSON input; '-' reads stdin")
    b.add_argument("--inverse", action="store_true")
    b.add_argument("--t", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--m", type=int)
    b.set_defaults(func=_cmd_bijection)

    _add_check_parser(sub, "verify", CATALOG, _cmd_verify,
                      "run one catalog check")

    t = sub.add_parser("table", help="print reference table rows")
    t.add_argument("name", choices=("bessenrodt",))
    t.add_argument("--n", type=int, default=ver._entry("table1").params["n"])
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=_cmd_table)

    _add_check_parser(sub, "series",
                      [entry for entry in CATALOG if entry.series],
                      _cmd_series, "print an identity's closed form")

    u = sub.add_parser("suite", help="run every catalog check")
    u.add_argument("--level", choices=("quick", "full"), default="quick")
    # accepted for old command lines and ignored: the checks run in turn
    u.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    u.add_argument("--json", action="store_true")
    u.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    """Run one command line (sys.argv[1:] if argv is None) and return its
    exit code.

    A line whose first token names a subcommand takes one argparse pass,
    at that subcommand's parser, and any token it leaves over is the
    top-level parser's "unrecognized arguments" error. The top-level
    parser parses only a line that starts with anything else: nothing,
    an option such as --help, or an unknown name. Either way the exit
    code, stdout and stderr are those of a full top-level parse.
    """
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        sub = parser.subcommands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, extras = sub.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except SystemExit:  # --help; every other parse error is a UsageError
        return 0
    except (UsageError, PartitionError, ColoredPartitionError, SeriesError,
            VerifyError, CoefficientOverflow, UnboundedBox,
            MemoryError) as exc:
        # a MemoryError may carry no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
