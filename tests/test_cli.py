import dataclasses
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from partbij import cli
from partbij.cli import BIJECTION_NAMES, main
from partbij.verify import (
    CATALOG,
    IDENTITY_IDS,
    THEOREM_IDS,
    VerifyError,
    _LOWEST,
    resolve_arguments,
    rhs_series,
    verify_identity,
)
from reference import graded_terms

# stdout of `partbij suite --level quick|full --json`, byte for byte
DATA = Path(__file__).parent / "data"


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mork_forward(capsys):
    code, out, err = run(capsys, "bijection", "mork",
                         "--input", "[7, 5, 4, 4, 2, 1]")
    assert code == 0
    assert json.loads(out) == [12, 10, 7, 5, 3, 2, 1]
    assert err == ""


def test_mork_pipe_roundtrip(capsys, monkeypatch):
    code, out, _ = run(capsys, "bijection", "mork", "--input", "[5, 3, 2]")
    assert code == 0
    code, out, _ = run(capsys, "bijection", "mork", "--inverse",
                       "--input", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == [5, 3, 2]


def test_modular_fill_error_goes_to_stderr(capsys):
    code, out, err = run(capsys, "bijection", "modular-fill", "--inverse",
                         "--input", "[4, 2]")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_color_conjugate_forward_and_inverse(capsys):
    code, out, _ = run(capsys, "bijection", "color-conjugate",
                       "--t", "3", "--r", "4",
                       "--input", "[9, 7, 6, 5, 4, 4, 4, 4, 3, 2, 1]")
    assert code == 0
    pair = json.loads(out)
    assert pair["nu"] == [4, 2, 1]
    assert pair["mu"] == [[3, 2], [3, 1], [2, 3], [2, 2], [1, 1]]
    code, out, _ = run(capsys, "bijection", "color-conjugate", "--inverse",
                       "--t", "3", "--r", "4", "--input", json.dumps(pair))
    assert code == 0
    assert json.loads(out) == [9, 7, 6, 5, 4, 4, 4, 4, 3, 2, 1]


def test_color_conjugate_inverse_caps_the_size_it_rebuilds(capsys):
    # at t = 1 a part p of mu regrows a column of height p, and at r = 2
    # each part adds one cell more, in the row above
    argv = ["bijection", "color-conjugate", "--inverse", "--t", "1"]
    code, out, _ = run(capsys, *argv, "--r", "1",
                       "--input", '{"nu": [], "mu": [[10000, 1]]}')
    assert (code, json.loads(out)) == (0, [1] * 10000)
    code, out, err = run(capsys, *argv, "--r", "2",
                         "--input", '{"nu": [], "mu": [[10000, 1]]}')
    assert (code, out) == (2, "")
    assert err == ("error: bijections take partitions of size at most "
                   "10000, got 10001\n")
    # the empty pair rebuilds the empty partition at any r
    code, out, _ = run(capsys, *argv, "--r", str(10 ** 20),
                       "--input", '{"nu": [], "mu": []}')
    assert (code, out) == (0, "[]\n")


def test_hook_map_accepts_diagram_and_rejects_inverse(capsys):
    diagram = '{"m": 3, "rows": [[3, 2], [2, 1], [1, 1]]}'
    code, out, _ = run(capsys, "bijection", "hook-map", "--input", diagram)
    assert code == 0
    assert json.loads(out) == {"parts": [5, 4, 3, 1], "is_partition": True}
    code, _, err = run(capsys, "bijection", "hook-map", "--inverse",
                       "--input", diagram)
    assert code == 2
    assert "error:" in err


def test_hook_map_partition_input_uses_m_flag(capsys):
    code, out, _ = run(capsys, "bijection", "hook-map", "--m", "3",
                       "--input", "[8, 4, 1]")
    assert code == 0
    assert json.loads(out)["parts"] == [5, 4, 3, 1]
    # a base far above every part: the map counts only up to the values
    # the hooks hold, not up to m
    code, out, _ = run(capsys, "bijection", "hook-map", "--m", str(10 ** 12),
                       "--input", "[3, 2]")
    assert code == 0
    assert out == '{"parts": [2, 2, 1], "is_partition": true}\n'
    # the largest size accepted; one more is a usage error
    code, out, _ = run(capsys, "bijection", "hook-map", "--input", "[10000]")
    assert code == 0
    assert json.loads(out)["parts"] == [5000, 5000]


def test_bad_json_input(capsys):
    code, out, err = run(capsys, "bijection", "mork", "--input", "[3, 2")
    assert code == 2
    assert "error:" in err


def test_non_integer_parts_rejected(capsys):
    code, _, err = run(capsys, "bijection", "mork", "--input", '[3, "x"]')
    assert code == 2
    code, _, err = run(capsys, "bijection", "mork", "--input", "[3, true]")
    assert code == 2


def test_usage_errors_exit_two(capsys):
    assert main(["bijection", "nope", "--input", "[1]"]) == 2
    capsys.readouterr()
    assert main(["verify", "thm99"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_series_offers_only_the_series_identities(capsys):
    # an array-side check has no closed form to print, so series takes
    # neither its id nor its flags: the id is argparse's usage error
    code, out, err = run(capsys, "series", "schmidt")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: partbij series: argument id: invalid "
                          "choice: 'schmidt'")
    code, out, _ = run(capsys, "series", "--help")
    assert code == 0
    choices = re.search(r"^  \{(.*)\}$", out, re.MULTILINE).group(1)
    assert choices.split(",") == list(IDENTITY_IDS)
    flags = {flag for entry in CATALOG if entry.series for flag in entry.flags}
    assert set(re.findall(r"^  --(\w+) ", out, re.MULTILINE)) == flags


@pytest.mark.parametrize("argv", [
    ["bijection", "hook-map", "--input", '{"m":3,"rows":[[1]]}'],
    ["bijection", "hook-map", "--input", '{"m":"x","rows":[]}'],
    ["bijection", "hook-map", "--input", '{"m":3,"rows":[[1,5]]}'],
    ["bijection", "hook-map", "--m", "1", "--input", "[3,2]"],
    # decoded sizes past the cap: a part m + 1 has an image of m parts
    ["bijection", "hook-map", "--input", '{"m": 1000000000000, "rows": [[2, 1]]}'],
    ["bijection", "hook-map", "--input", "[10001]"],
    ["bijection", "color-conjugate", "--r", "0", "--input", "[3,2]"],
    ["bijection", "color-conjugate", "--t", "0", "--input", "[3,2]"],
    ["bijection", "color-conjugate", "--inverse",
     "--input", '{"nu":[],"mu":[["a",1]]}'],
    ["table", "bessenrodt", "--n", "-1"],
    ["verify", "schmidt", "--n", "406"],
    ["bijection", "mork", "--input", "-1e5"],  # taken for an option
    ["verify", "thm99"],
    # flags and box variables the entry does not take
    ["verify", "thm3.1", "--t", "5", "--json"],
    ["verify", "eq14", "--n", "2", "--t", "7"],
    ["verify", "schmidt", "--max-q", "5"],
    ["verify", "thm8.2", "--max-s", "3"],
    ["series", "thm5.1", "--r", "2"],
    ["verify", "cor10", "--t", "1"],
    # no base below 2
    ["verify", "furtherwork", "--m", "0"],
    ["verify", "furtherwork", "--m", "1"],
    # boxes of more than 500 TiB, which numpy refuses at once
    ["verify", "thm8.2", "--t", "8", "--max-z", "40"],
    ["series", "thm3.1", "--max-q", "10000000", "--max-z", "10000000"],
    # sizes past the cap of every bijection input, or of the partition
    # color-conjugate --inverse rebuilds
    ["bijection", "mork", "--input", "[99999999999999999999]"],
    ["bijection", "mork", "--inverse", "--input", "[99999999999999999999]"],
    ["bijection", "bessenrodt", "--input", "[99999999999999999999]"],
    ["bijection", "modular-fill", "--input", "[99999999999999999999]"],
    ["bijection", "color-conjugate", "--input", "[99999999999999999999]"],
    ["bijection", "color-conjugate", "--inverse",
     "--input", '{"nu": [], "mu": [[99999999999999999999, 1]]}'],
    ["bijection", "color-conjugate", "--inverse", "--r", "99999999999999999999",
     "--input", '{"nu": [], "mu": [[1, 1]]}'],
    # parameters past their entry's limits
    ["verify", "thm8.2", "--t", "9"],
    ["series", "thm8.2", "--t", "9"],
    ["verify", "cor11", "--r", "1"],
    # arrays of more bytes than numpy can size: the histogram's output,
    # a series, and eq3's (q, q) histogram whatever z is
    ["verify", "thm5.1", "--max-q", "10000000000", "--max-z", "10000000000"],
    ["series", "thm8.2", "--t", "3", "--max-q", "100000", "--max-z", "100000"],
    ["verify", "eq24", "--max-q", "3000000", "--max-z", "3000000",
     "--max-s", "3000000"],
    ["verify", "eq3", "--max-q", "5000000000", "--max-z", "0"],
    # and eq3's output, however far z lies past the 2q its gather reads
    ["verify", "eq3", "--max-z", str(2**62)],
    ["verify", "eq3", "--max-z", str(10**19)],
    # thm9's closed form makes its factors only after its array
    ["series", "thm9", "--max-q", "1000000000000"],
    ["series", "thm9", "--max-q", "1000000000000", "--max-s", "1000000000000"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(-3, 12) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.sampled_from(["m", "rows", "nu", "mu", "x"]), inner, max_size=3),
    max_leaves=12,
)
# now and then 10^12: an array sized from it is far past memory, and
# numpy refuses it at once; and 2^62 and 10^19, a product of which with
# a small index leaves int64, and 10^19 itself does
SMALL_INT = st.integers(-2, 6) | st.sampled_from([10**12, 2**62, 10**19])


def int_flags(draw, names):
    argv = []
    for name in names:
        value = draw(st.none() | SMALL_INT)
        if value is not None:
            argv += [f"--{name}", str(value)]
    return argv


def one_in(draw, n, tokens):
    """One of tokens, drawn about one time in n, as a list of 0 or 1."""
    return [draw(st.sampled_from(tokens))] if draw(st.integers(1, n)) == 1 else []


@st.composite
def command_lines(draw):
    """bijection, table, series or verify command lines with arbitrary
    JSON input and small int flags; now and then with a token left over
    for the top-level parser, or led by one that names no subcommand."""
    command = draw(st.sampled_from(["bijection", "table", "series", "verify"]))
    if command == "bijection":
        argv = ["bijection", draw(st.sampled_from(BIJECTION_NAMES)),
                "--input", json.dumps(draw(JSON))]
        if draw(st.booleans()):
            argv.append("--inverse")
        argv += int_flags(draw, ("t", "r", "m"))
    elif command == "table":
        argv = ["table", "bessenrodt"] + int_flags(draw, ("n",))
    elif command == "verify":
        # the entry's own flags and box bounds, each only some of the
        # time, and now and then one it may not take
        entry = draw(st.sampled_from(CATALOG))
        names = list(entry.flags) + [f"max-{var}" for var in entry.box or ()]
        names += draw(st.lists(
            st.sampled_from(["t", "r", "n", "k", "m", "max-s"]), max_size=1))
        argv = ["verify", entry.id] + int_flags(draw, names)
    else:
        argv = ["series", draw(st.sampled_from(IDENTITY_IDS))]
        argv += int_flags(draw, ("t", "r", "n", "max-q", "max-z", "max-s"))
    argv += ["--json"] if draw(st.booleans()) else []
    return (one_in(draw, 8, ["--json", "nope", "--help"]) + argv
            + one_in(draw, 8, ["--bogus", "stray"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_exit_code_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    if code == 0:
        assert err == ""
    else:
        assert code == 2, (argv, err)
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


# command lines on which main(), which hands a line that starts with a
# subcommand to that subcommand's parser, must print what a full top-level
# parse prints: first tokens that name no subcommand, a subcommand with
# nothing or -h, tokens left over, and the forms argparse reads specially
DISPATCH_LINES = [
    ([], 2),
    (["--help"], 0),
    (["-h"], 0),
    (["nope"], 2),
    (["-h", "table"], 0),
    (["--json", "table", "bessenrodt"], 2),
    (["bijection"], 2),
    (["table"], 2),
    (["verify", "-h"], 0),
    (["series", "--help"], 0),
    (["bijection", "mork", "--input", "[3, 1]", "extra"], 2),
    (["table", "bessenrodt", "more", "--n", "3"], 2),
    (["bijection", "mork", "--input", "[3, 1]", "--bogus"], 2),
    (["series", "eq14", "--json", "--bogus=1", "x"], 2),
    (["bijection", "mork", "--", "--input", "[3, 1]"], 2),
    (["bijection", "--", "mork", "--input", "[3, 1]"], 2),
    (["table", "--", "bessenrodt"], 0),
    (["table", "bessenrodt", "--n", "3", "--"], 2),
    (["bijection", "mork", "--inp", "[5, 3, 3, 1]"], 0),
    (["bijection", "mork", "--i", "[3, 1]"], 2),
    (["bijection", "mork", "--input=[5, 3, 3, 1]"], 0),
    (["table", "bessenrodt", "--n=5", "--js"], 0),
    # text suite lines carry their times, so the suite prints --json
    (["suite", "--threads", "1", "--json"], 0),
    # bijection output is JSON already, and the command takes no --json
    (["bijection", "mork", "--input", "[3, 1]", "--json"], 2),
]


@pytest.mark.parametrize("argv, code", DISPATCH_LINES)
def test_dispatch_matches_a_full_parse(capsys, monkeypatch, argv, code):
    direct = run(capsys, *argv)
    assert direct[0] == code
    # with no subcommand to look up, main() parses at the top level
    monkeypatch.setattr(cli._build_parser(), "subcommands", {})
    assert run(capsys, *argv) == direct


@pytest.mark.parametrize("argv, code", [
    (["bijection", "mork", "--input", "[3, 1]"], 0),
    (["bijection", "mork", "--input", "[3, 1]", "extra"], 2),
    ([], 2),
])
def test_main_reads_sys_argv(capsys, monkeypatch, argv, code):
    # the console script calls main() with no argv
    monkeypatch.setattr("sys.argv", ["partbij", *argv])
    got = main()
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == run(capsys, *argv)
    assert got == code


def test_degenerate_cor10_reads_alike_in_verify_and_series(capsys):
    want = "error: cor10 needs t >= 2\n"
    for command in ("verify", "series"):
        assert run(capsys, command, "cor10", "--t", "1") == (2, "", want)


def test_verify_text_and_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "thm3.1",
                         "--max-q", "6", "--max-z", "12")
    assert code == 0
    assert "thm3.1" in out and ": pass" in out
    assert "checked" in out


def test_verify_partial_box_overrides_default(capsys):
    code, out, err = run(capsys, "verify", "thm3.1", "--max-q", "5")
    assert code == 0 and err == ""
    assert "thm3.1 q<=5 z<=24: pass" in out
    code, out, _ = run(capsys, "verify", "thm9", "--max-s", "5", "--json")
    assert code == 0
    assert json.loads(out)["box"] == {"q": 10, "z": 10, "s": 5}
    code, out, _ = run(capsys, "verify", "thm8.2", "--t", "3", "--max-z", "3",
                       "--json")
    assert code == 0
    assert json.loads(out)["box"] == {"q": 8, "z1": 3, "z2": 3, "z3": 3}


def test_verify_large_box_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "thm5.1",
                         "--max-q", "30", "--max-z", "30")
    assert code == 0
    assert ": pass" in out and err == ""


@pytest.mark.parametrize("t", [2**62, 2**63, 10**19])
def test_eq24_takes_any_t(capsys, t):
    # past the s bound every substituted term with z >= 1 leaves the box,
    # so no exponent is formed from t itself
    code, out, err = run(capsys, "verify", "eq24", "--t", str(t))
    assert code == 0 and err == ""
    assert out.startswith(f"eq24 t={t} q<=6 s<=10 z<=4: pass")


def test_verify_json_is_deterministic(capsys):
    args = ("verify", "thm5.1", "--max-q", "6", "--max-z", "6", "--json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["id"] == "thm5.1"
    assert data["status"] == "pass"
    assert "elapsed_ms" not in data


def test_verify_failure_exits_one(capsys, monkeypatch):
    import partbij.cli as cli
    from partbij.verify import VerificationReport

    failing = VerificationReport(
        "thm3.1", {}, {"q": 4, "z": 8}, "fail", 45, 0.2,
        first_mismatch={"monomial": {"q": 2, "z": 4}, "lhs": 1, "rhs": 2},
    )
    monkeypatch.setattr(cli.ver, "run_verifier", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "thm3.1")
    assert code == 1
    assert ": fail" in out
    code, out, _ = run(capsys, "verify", "thm3.1", "--json")
    assert code == 1
    assert json.loads(out)["first_mismatch"]["monomial"] == {"q": 2, "z": 4}


def test_suite_failure_exits_one_and_json_drops_timing(capsys, monkeypatch):
    import partbij.cli as cli
    from partbij.verify import SuiteReport, VerificationReport

    good = VerificationReport("thm3.1", {}, {"q": 2, "z": 4}, "pass", 5, 0.1)
    bad = VerificationReport(
        "thm3.2", {}, {"q": 2, "z": 2}, "fail", 5, 0.3,
        first_mismatch={"monomial": {"q": 1}, "lhs": 0, "rhs": 1},
    )
    suite = SuiteReport("quick", [good, bad])
    monkeypatch.setattr(cli.ver, "run_suite", lambda *a, **k: suite)
    code, out, _ = run(capsys, "suite")
    assert code == 1
    assert out.strip().splitlines()[-1] == "quick suite: 2 checks, 1 FAILED"
    code, out, _ = run(capsys, "suite", "--json")
    assert code == 1
    data = json.loads(out)
    assert list(data) == ["level", "passed", "reports"]
    assert data["passed"] is False
    want = suite.to_json()["reports"]
    for report in want:
        del report["elapsed_ms"]
    assert data["reports"] == want
    # the printed dict leaves the suite's own reports untouched
    assert [r.elapsed_ms for r in suite.reports] == [0.1, 0.3]


def test_verify_counting_id_with_params(capsys):
    code, out, _ = run(capsys, "verify", "thm6", "--t", "2", "--n", "5")
    assert code == 0
    assert ": pass" in out


def test_verify_thm7_with_r_past_the_size(capsys):
    # r = 30 reads rows past the kept domain of size 5, which are all zero
    code, out, _ = run(capsys, "verify", "thm7", "--t", "2", "--r", "30",
                       "--n", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["coefficients_checked"] == 35


@pytest.mark.parametrize("argv", [["thm6", "--t", "10", "--n", "16"],
                                  ["cor11", "--n", "500", "--k", "5"]])
def test_coloured_sides_are_series_divisions(capsys, argv):
    # the coloured sides are Pochhammer quotients, so a box of many
    # colour classes costs milliseconds
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", *argv, "--json")
    assert time.perf_counter() - start < 1
    assert (code, json.loads(out)["status"]) == (0, "pass")


def test_verify_eq20_past_the_box_runs_only_what_the_box_sees(capsys):
    # f_n and the histogram slice at first part n are zero in the box
    # past min(q, s), so a huge --n costs what --n 8 costs
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "eq20", "--n", str(10 ** 12),
                       "--json")
    assert time.perf_counter() - start < 1
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    # every n up to 10^12 counts its (q 8, s 12) box of cells
    assert report["coefficients_checked"] == (10 ** 12 + 1) * 9 * 13


@pytest.mark.parametrize("ident, name, cap", [
    ("prop1", "n_max", 104), ("thm7", "size_max", 58),
    ("furtherwork", "size_max", 44)])
def test_domain_checks_cap_their_size(monkeypatch, ident, name, cap):
    assert cli.ver._entry(ident).caps[name] == cap
    # at the cap the check starts: it asks for its partitions
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(cli.ver, "_parts", started)
    with pytest.raises(Started):
        main(["verify", ident, "--n", str(cap)])


@pytest.mark.parametrize("argv", [["verify", "table1"],
                                  ["table", "bessenrodt"]])
def test_table1_caps_its_size(capsys, monkeypatch, argv):
    # the check and the table command share table1's cap
    assert cli.ver._entry("table1").caps == {"n": 92}
    code, out, err = run(capsys, *argv, "--n", "93")
    assert (code, out) == (2, "")
    assert err == "error: table1 takes n at most 92, got 93\n"

    # at the cap the table is built
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(cli.ver, "table_bessenrodt", started)
    with pytest.raises(Started):
        main([*argv, "--n", "92"])


@pytest.mark.parametrize("ident, cap, argv", [
    ("thm6", 60_000, ["--n", "1"]), ("thm7", 8, ["--n", "3"])])
def test_coloured_checks_cap_their_t(capsys, ident, cap, argv):
    # at the cap the check runs
    assert cli.ver._entry(ident).caps["t"] == cap
    code, out, err = run(capsys, "verify", ident, "--t", str(cap), *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["verify", "series"])
@pytest.mark.parametrize("name, cap", [
    pytest.param("t", 50_000, id="t-T_MAX-50000"),
    pytest.param("r", 90_000, id="r-R_MAX-90000")])
def test_thm8_1_caps_its_t_and_r(capsys, command, name, cap):
    # pins thm8.1's caps to their values; the test below checks every cap
    assert cli.ver._entry("thm8.1").caps[name] == cap
    code, out, err = run(capsys, command, "thm8.1", f"--{name}",
                         str(cap + 1), "--max-q", "1", "--max-z", "1")
    assert (code, out) == (2, "")
    assert err == f"error: thm8.1 takes {name} at most {cap}, got {cap + 1}\n"


# each entry's limits: (entry, parameter, limit, a value past it, error)
LIMITS = [
    pytest.param(entry, name, cap, cap + 1,
                 f"takes {name} at most {cap}, got {cap + 1}",
                 id=f"{entry.id}-{name}-cap")
    for entry in CATALOG for name, cap in entry.caps.items()
] + [
    pytest.param(entry, name, low, low - 1, f"needs {name} >= {low}",
                 id=f"{entry.id}-{name}-lowest")
    for entry in CATALOG for name, low in entry.lowest.items()
]


@pytest.mark.parametrize("entry, name, limit, past, error", LIMITS)
def test_each_entry_limits_its_parameters(capsys, monkeypatch, entry, name,
                                          limit, past, error):
    flag, = [f for f, p in entry.flags.items() if p == name]
    commands = ["verify"] + (["series"] if entry.series else [])
    for command in commands:
        assert run(capsys, command, entry.id, f"--{flag}", str(past)) == (
            2, "", f"error: {entry.id} {error}\n")

    # at the limit the check starts: its sides or its verifier are called
    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    if entry.verifier is not None:
        monkeypatch.setattr(cli.ver, entry.verifier, started)
    else:
        monkeypatch.setitem(cli.ver._BY_ID, entry.id, dataclasses.replace(
            entry, lhs=started, rhs=started))
    for command in commands:
        with pytest.raises(Started):
            main([command, entry.id, f"--{flag}", str(limit)])


@pytest.mark.parametrize("ident", THEOREM_IDS)
def test_verify_at_the_defaults_gives_the_quick_suite_report(capsys, ident):
    # each id's default point is one of its quick suite points
    entry = cli.ver._entry(ident)
    golden = [report for report in json.loads(_golden("quick"))["reports"]
              if report["id"] == ident and report["params"] == entry.params
              and report["box"] == (cli.ver._setup(ident)[2] or {})]
    assert len(golden) == 1
    code, out, err = run(capsys, "verify", ident, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == golden[0]


@pytest.mark.parametrize("ident, name", [
    (entry.id, name) for entry in CATALOG for name in entry.params])
def test_a_parameter_below_its_lowest_value_is_a_usage_error(
        capsys, ident, name):
    low = cli.ver._entry(ident).lowest.get(name, _LOWEST.get(name, 0))
    with pytest.raises(VerifyError, match=f"^{ident} needs {name} >= {low}$"):
        verify_identity(ident, {name: low - 1})
    flag, = [f for f, p in cli.ver._entry(ident).flags.items() if p == name]
    code, out, err = run(capsys, "verify", ident, f"--{flag}", str(low - 1))
    assert (code, out) == (2, "")
    assert err == f"error: {ident} needs {name} >= {low}\n"


@pytest.mark.parametrize("ident", [entry.id for entry in CATALOG
                                   if entry.box is not None])
def test_a_negative_box_bound_is_a_usage_error(capsys, ident):
    entry = cli.ver._entry(ident)
    for var in entry.box:
        code, out, err = run(capsys, "verify", ident, f"--max-{var}", "-1")
        assert (code, out) == (2, "")
        # a colored entry's z bound sets z1, z2, ...
        name = "z1" if entry.colored and var == "z" else var
        assert err == f"error: {ident} needs {name} >= 0\n"


@pytest.mark.parametrize("argv", [
    ["verify", "thm8.2", "--t", "70", "--max-z", "0"],
    ["series", "thm8.2", "--t", "70", "--max-z", "0"]])
def test_more_box_variables_than_numpy_allows_is_a_usage_error(capsys, argv):
    # a box of 71 variables; thm8.2's cap on t stops it before any box is
    # built (the series layer's own limit is tested with the series)
    assert run(capsys, *argv) == (
        2, "", "error: thm8.2 takes t at most 8, got 70\n")


def test_out_of_memory_is_a_usage_error_with_a_message(capsys, monkeypatch):
    # a MemoryError raised by a Python object carries no text
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli.ver, "rhs_series", out_of_memory)
    assert run(capsys, "series", "thm8.1") == (2, "", "error: out of memory\n")


def test_table_text_and_json(capsys):
    code, out, _ = run(capsys, "table", "bessenrodt", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "7  [7]  [1, 1, 1, 1, 1, 1, 1]"
    assert lines[-1] == "4  [4, 3]  [7]"
    code, out, _ = run(capsys, "table", "bessenrodt", "--n", "7", "--json")
    rows = json.loads(out)
    assert rows[0] == [7, [7], [1, 1, 1, 1, 1, 1, 1]]
    assert rows[-1] == [4, [4, 3], [7]]


def test_series_text_and_json(capsys):
    code, out, _ = run(capsys, "series", "eq14", "--n", "2",
                       "--max-q", "4", "--max-z", "4")
    assert code == 0
    assert out.strip() == (
        "1 + 2*q*z + 2*q^2*z + 3*q^2*z^2 + 4*q^3*z^2 + 4*q^3*z^3 "
        "+ 3*q^4*z^2 + 6*q^4*z^3 + 5*q^4*z^4"
    )
    args = ("series", "thm3.1", "--max-q", "5", "--max-z", "10", "--json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["box"] == {"q": 5, "z": 10}
    assert [{}, 1] in data["terms"]


@pytest.mark.parametrize("ident, flags", [(i, {}) for i in IDENTITY_IDS]
                         + [("thm8.2", {"t": 3})])
def test_series_json_matches_the_oracle(capsys, ident, flags):
    argv = ["series", ident, "--json"]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    code, out, err = run(capsys, *argv)
    f = rhs_series(ident, *resolve_arguments(ident, **flags))
    terms = [[{v: e for v, e in zip(f.variables, index) if e}, value]
             for index, value in graded_terms(f.coeffs)]
    assert (code, err) == (0, "")
    assert out == json.dumps({"box": f.box_dict(), "terms": terms}) + "\n"


# usage errors, --help and a bad --input first, then every command with
# and without the flags an earlier call set
REUSED_PARSER_CALLS = [
    ["bijection", "nope", "--input", "[1]"],
    ["verify", "thm3.1", "--t"],
    [],
    ["--help"],
    ["series", "--help"],
    ["bijection", "mork", "--input", "[x"],
    ["bijection", "color-conjugate", "--t", "3", "--r", "4",
     "--input", "[9, 7, 6, 5, 4, 4, 4, 4, 3, 2, 1]"],
    ["bijection", "color-conjugate",
     "--input", "[9, 7, 6, 5, 4, 4, 4, 4, 3, 2, 1]"],
    ["bijection", "mork", "--inverse", "--input", "[12, 10, 7, 5, 3, 2, 1]"],
    ["bijection", "mork", "--input", "[7, 5, 4, 4, 2, 1]"],
    ["bijection", "hook-map", "--m", "3", "--input", "[8, 4, 1]"],
    ["bijection", "hook-map", "--input", "[8, 4, 1]"],
    ["series", "eq14", "--n", "2", "--max-q", "4", "--max-z", "4"],
    ["series", "eq14", "--json"],
    ["series", "thm9", "--t", "2", "--r", "2", "--max-q", "5", "--json"],
    ["series", "thm9", "--json"],
    ["table", "bessenrodt", "--n", "9", "--json"],
    ["table", "bessenrodt"],
    ["verify", "thm8.1", "--t", "2", "--r", "3", "--max-q", "6", "--json"],
    ["verify", "thm8.1", "--json"],
    ["suite", "--level", "quick", "--json"],
]


def test_reused_parser_keeps_no_state(capsys):
    # one process reuses one parser; every call must print what a freshly
    # built parser prints
    assert cli._build_parser() is cli._build_parser()
    reused = [run(capsys, *argv) for argv in REUSED_PARSER_CALLS]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in REUSED_PARSER_CALLS:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [2, 2, 2, 0, 0, 2] + [0] * 15
    # a flag given to one call is not a default of the next
    assert reused[7] != reused[6] and reused[11] != reused[10]


def test_suite_quick(capsys):
    code, out, _ = run(capsys, "suite", "--level", "quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 70
    assert all(": pass" in line for line in lines[:-1])
    assert lines[-1] == "quick suite: 69 checks, all passed"


def _golden(level):
    return (DATA / f"suite_{level}.json").read_text()


def test_suite_json_identical_across_thread_counts(capsys):
    # --threads is accepted and ignored: the checks run in turn
    code, one, _ = run(capsys, "suite", "--json")
    assert code == 0
    code, two, _ = run(capsys, "suite", "--json", "--threads", "4")
    assert code == 0
    assert one == two
    assert one == _golden("quick")
    data = json.loads(one)
    assert data["passed"] is True
    assert len(data["reports"]) == 69
    assert all("elapsed_ms" not in r for r in data["reports"])


def test_full_suite_json_matches_golden_output(capsys):
    code, out, _ = run(capsys, "suite", "--level", "full", "--json")
    assert code == 0
    assert out == _golden("full")


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "partbij", "bijection", "mork",
         "--input", "[3, 1]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [4, 2]
