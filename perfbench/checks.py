"""Checks the benchmark applies to partbij's outputs.

Each check returns a list of problems; an empty list means correct. The
expected values come from the benchmark's own computations (reference.py)
or from properties the method must have, never from stored output.
"""

import json

# the paper's catalog as the suite must cover it
CATALOG = (
    "schmidt", "prop1", "cor2", "thm3.1", "thm3.2", "eq3", "thm4.1",
    "thm4.2", "thm5.1", "thm5.2", "thm6", "thm7", "thm8.1", "thm8.2",
    "thm9", "cor10", "cor11", "eq14", "eq20", "eq24", "table1",
    "furtherwork",
)


def suite(rc, stdout, program_ids=()):
    """A `partbij suite --json` run: exit 0, passed, every report a pass,
    every catalog id present. Returns (problems, number of reports)."""
    problems = []
    if rc != 0:
        problems.append(f"suite exited {rc}")
    try:
        data = json.loads(stdout)
    except ValueError:
        return problems + ["suite stdout is not one JSON document"], 0
    reports = data.get("reports", [])
    if data.get("passed") is not True:
        problems.append("suite report is not passed")
    for r in reports:
        if r.get("status") != "pass":
            problems.append(f"{r.get('id')} {r.get('params')}: {r.get('status')}")
    seen = {r.get("id") for r in reports}
    for ident in CATALOG + tuple(program_ids):
        if ident not in seen:
            problems.append(f"{ident} missing from the suite report")
    return problems, len(reports)


def coefficients(label, got, want):
    """Two flat coefficient lists in the same variable order must agree."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} coefficients, expected {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: coefficient {i} is {a}, expected {b}"]
    return []


def _strictly_decreasing(parts):
    return all(a > b for a, b in zip(parts, parts[1:]))


def mork(lam, delta, back):
    """Round trip; distinct parts; odd-index parts sum to the input size."""
    out = []
    if tuple(back) != tuple(lam):
        out.append(f"mork round trip of {list(lam)} gave {list(back)}")
    if not _strictly_decreasing(tuple(delta)):
        out.append(f"mork({list(lam)}) = {list(delta)} has repeated parts")
    if sum(tuple(delta)[0::2]) != sum(lam):
        out.append(f"mork({list(lam)}) = {list(delta)}: odd-index sum is not {sum(lam)}")
    return out


def bessenrodt(omega, delta, back):
    """Round trip; distinct parts; size preserved."""
    out = []
    if tuple(back) != tuple(omega):
        out.append(f"bessenrodt round trip of {list(omega)} gave {list(back)}")
    if not _strictly_decreasing(tuple(delta)) or sum(delta) != sum(omega):
        out.append(f"bessenrodt({list(omega)}) = {list(delta)} is not a distinct "
                   f"partition of {sum(omega)}")
    return out


def color_conjugate(lam, t, r, nu, entries, back):
    """Round trip; mu has lam_r parts of total size the row-(t, r) weight;
    nu has at most r-1 parts and starts with lam_1 - lam_r."""
    lam = tuple(lam)
    first = lam[0] if lam else 0
    row_r = lam[r - 1] if r <= len(lam) else 0
    want = [list(lam), row_r, first - row_r, sum(lam[r - 1::t]), True]
    got = [list(back), len(entries), nu[0] if nu else 0,
           sum(p for p, _ in entries), len(nu) <= r - 1]
    if got != want:
        return [f"color_conjugate({list(lam)}, t={t}, r={r}): got "
                f"[back, #mu, nu_1, |mu|, short nu] = {got}, expected {want}"]
    return []


def hook_map(lam, m, parts):
    """The hook-map image of lam's m-modular diagram sums to the size."""
    if sum(parts) != sum(lam):
        return [f"hook map of {list(lam)} at m={m} sums to {sum(parts)}, not {sum(lam)}"]
    return []


def cli_call(argv, rc, stdout, stderr, expected_stdout):
    """A CLI call that should succeed: exit 0, stdout equal to the library
    result, nothing on stderr."""
    if rc != 0 or stdout != expected_stdout or stderr:
        return [f"partbij {' '.join(argv)}: exit {rc}, stdout {stdout!r}, "
                f"stderr {stderr!r}; expected exit 0 and {expected_stdout!r}"]
    return []


def cli_usage_error(argv, rc, stdout, stderr):
    """A CLI call with bad input: exit 2, no stdout, one `error:` line."""
    lines = stderr.splitlines()
    if rc != 2 or stdout or len(lines) != 1 or not lines[0].startswith("error:"):
        return [f"partbij {' '.join(argv)}: exit {rc}, stdout {stdout!r}, "
                f"stderr {stderr!r}; expected exit 2 and one error: line"]
    return []
