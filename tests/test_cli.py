import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from partbij.cli import BIJECTION_NAMES, main
from partbij.verify import CATALOG, IDENTITY_IDS

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


@pytest.mark.parametrize("argv", [
    ["bijection", "hook-map", "--input", '{"m":3,"rows":[[1]]}'],
    ["bijection", "hook-map", "--input", '{"m":"x","rows":[]}'],
    ["bijection", "hook-map", "--input", '{"m":3,"rows":[[1,5]]}'],
    ["bijection", "hook-map", "--m", "1", "--input", "[3,2]"],
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
SMALL_INT = st.integers(-2, 6)


def int_flags(draw, names):
    argv = []
    for name in names:
        value = draw(st.none() | SMALL_INT)
        if value is not None:
            argv += [f"--{name}", str(value)]
    return argv


@st.composite
def command_lines(draw):
    """bijection, table, series or verify command lines with arbitrary
    JSON input and small int flags."""
    command = draw(st.sampled_from(["bijection", "table", "series", "verify"]))
    if command == "bijection":
        argv = ["bijection", draw(st.sampled_from(BIJECTION_NAMES)),
                "--input", json.dumps(draw(JSON))]
        if draw(st.booleans()):
            argv.append("--inverse")
        return argv + int_flags(draw, ("t", "r", "m"))
    if command == "table":
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
    return argv + (["--json"] if draw(st.booleans()) else [])


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


def test_verify_counting_id_with_params(capsys):
    code, out, _ = run(capsys, "verify", "thm6", "--t", "2", "--n", "5")
    assert code == 0
    assert ": pass" in out


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
