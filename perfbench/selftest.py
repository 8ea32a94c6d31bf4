"""Shows that every check of the benchmark rejects a planted wrong answer
and accepts the right one.

    python3 perfbench/selftest.py      (from the repository root)

Prints one line per check and exits 1 if any check accepts a wrong answer
or rejects a right one.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from partbij import Partition, bijections, cli, partitions, verify  # noqa: E402


def _flat(f, names):
    return np.transpose(f.coeffs, [f.variables.index(v) for v in names]).ravel().tolist()


def closed_form():
    box = {"q": 12, "z": 12}
    f = verify.rhs_series("thm8.1", {"t": 2, "r": 2}, box)
    want = reference.closed_form("thm8.1", {"t": 2, "r": 2}, reference.Box(["q", "z"], [12, 12]))
    bumped = f.copy()
    bumped.coeffs[3, 5] += 1
    return (checks.coefficients("thm8.1", _flat(f, ["q", "z"]), want),
            checks.coefficients("thm8.1 bumped", _flat(bumped, ["q", "z"]), want))


def round_trip():
    lam = Partition((6, 4, 4, 2, 1))
    near = Partition((6, 4, 3, 3, 1))  # one cell moved to the next row
    delta = bijections.mork(lam)
    nu, mu = bijections.color_conjugate(lam, 3, 2)
    omega = Partition(2 * p - 1 for p in lam)
    image = bijections.generalized_hook_map(partitions.to_modular(lam, 3))
    good = (checks.mork(lam, delta, bijections.mork_inverse(delta))
            + checks.color_conjugate(lam, 3, 2, nu, mu.entries,
                                     bijections.color_conjugate_inverse(nu, mu, 3, 2))
            + checks.bessenrodt(omega, bijections.bessenrodt(omega),
                                bijections.bessenrodt_inverse(bijections.bessenrodt(omega)))
            + checks.hook_map(lam, 3, image.parts))
    bad = [checks.mork(lam, delta, near),
           checks.color_conjugate(lam, 3, 2, nu, mu.entries, near),
           checks.bessenrodt(omega, bijections.bessenrodt(omega), Partition((11, 7, 5, 5, 1))),
           checks.hook_map(lam, 3, image.parts[:-1])]
    if not all(bad):
        return good, []
    return good, [b[0] for b in bad]


def suite_report():
    ok = [verify.verify_identity("thm5.1", box={"q": 6, "z": 6}).to_json()]
    ok += [{"id": i, "params": {}, "status": "pass"} for i in checks.CATALOG if i != "thm5.1"]
    failing = verify.verify_identity("thm5.1", box={"q": 6, "z": 6}, perturb={"q": 2, "z": 4})
    bad = [failing.to_json()] + ok[1:]
    good, _ = checks.suite(0, json.dumps({"passed": True, "reports": ok}))
    # the planted run claims success; only its one failing report gives it away
    wrong, _ = checks.suite(0, json.dumps({"passed": True, "reports": bad}))
    return good, wrong


def cli_exit_one():
    argv = ["verify", "thm3.2", "--max-q", "6", "--max-z", "6", "--json"]
    original = verify.rhs_series

    def planted(ident, params, box):
        f = original(ident, params, box)
        f.coeffs[1, 1] += 1
        return f

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    expected = out.getvalue()
    good = checks.cli_call(argv, rc, expected, "", expected)
    verify.rhs_series = planted
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        verify.rhs_series = original
    return good, checks.cli_call(argv, rc, out.getvalue(), "", expected)


def main():
    ok = True
    for name, fn in (("closed-form coefficient +1", closed_form),
                     ("round trip to a neighbouring partition", round_trip),
                     ("suite report with one fail", suite_report),
                     ("CLI call that exits 1", cli_exit_one)):
        good, bad = fn()
        right = not good and bool(bad)
        ok &= right
        print(f"{'ok  ' if right else 'FAIL'} {name}: right answer "
              f"{'accepted' if not good else 'REJECTED ' + str(good)}; planted one "
              f"{'rejected: ' + bad[0] if bad else 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
