"""Command-line surface: every payload kind validates against its shipped
schema, exit codes map errors as documented, rationals stay exact, and the
CSV renderings carry an exact column next to the decimal one."""

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from noncross import cli, randmat
from noncross.partitions import SERIES_ORDER_CAP

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")

COMMANDS = [
    ["nc", "count", "--m", "4"],
    ["nc", "list", "--m", "3"],
    ["nc", "kreweras", "--p", "1|2 6 7|3 5|4|8"],
    ["nc", "rotate", "--p", "1 2|3", "--k", "2"],
    ["nc", "meet", "--p", "1 2 3", "--q", "1|2 3"],
    ["nc", "join", "--p", "1 3|2|4", "--q", "1|2 4|3"],
    ["nc", "mobius", "--m", "4"],
    ["nc", "mobius", "--p", "1|2|3", "--q", "1 2|3"],
    ["free", "m2c", "--moments", "1,2,5,14"],
    ["free", "c2m", "--cumulants", "1,1,1"],
    ["free", "add", "--a", "0,1,0,2", "--b", "0,1,0,2"],
    ["free", "mult", "--a", "1,2,5", "--b", "1,1,1"],
    ["free", "mult", "--a", "1,2,5", "--b", "1,1,1", "--route", "stransform"],
    ["free", "law", "--name", "semicircle", "--order", "6"],
    ["free", "law", "--name", "free-poisson", "--order", "5"],
    ["free", "law", "--name", "free-bessel", "--ell", "2", "--order", "4"],
    ["free", "clt", "--base", "0,1,1", "--n", "4"],
    ["free", "clt", "--base", "0,1,1,1", "--n", "7", "--even"],
    ["cox", "ncset", "--family", "A", "--rank", "3"],
    ["cox", "nccount", "--family", "B", "--rank", "2", "--lattice"],
    ["cox", "redt", "--family", "A", "--rank", "3"],
    ["cox", "hurwitz", "--family", "B", "--rank", "2"],
    ["cox", "quasicox", "--family", "D", "--rank", "4", "--element", "[-4,-3,2,1]"],
    ["cox", "dualrel", "--family", "A", "--rank", "2"],
    ["topo", "euler", "--m", "4"],
    ["topo", "euler", "--p", "1|2|3|4", "--q", "1 2 3|4"],
    ["topo", "chains", "--m", "4"],
    ["rmt", "verify", "--ell", "1", "--k", "2", "--n", "32", "--trials", "5", "--seed", "1"],
]


def schema_for(kind: str) -> dict:
    path = resources.files("noncross").joinpath("schemas", f"{kind}.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a))
def test_every_command_validates_against_its_schema(argv):
    result = cli.run(argv)
    assert result.exit_code == 0
    Draft202012Validator(schema_for(result.payload["kind"])).validate(result.payload)


def test_rationals_are_exact_strings():
    payload = cli.run(["free", "m2c", "--moments", "1,1/2,1/3,1/4"]).payload
    assert all(RATIONAL.match(v) for v in payload["values"])
    assert payload["values"][1] == "-1/2"  # kappa_2 = m_2 - m_1^2


def test_kreweras_twice_is_a_rotation_via_the_cli():
    start = "1|2 6 7|3 5|4|8"
    once = cli.run(["nc", "kreweras", "--p", start]).payload["result"]
    twice = cli.run(["nc", "kreweras", "--p", once]).payload["result"]
    rotated = cli.run(["nc", "rotate", "--p", start, "--k", "-1"]).payload["result"]
    assert twice == rotated


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "kreweras", "--p", "1 3|2 4"],  # crossing
        ["nc", "kreweras", "--p", "1 2|bogus"],  # unparseable
        ["nc", "meet", "--p", "1 2", "--q", "1 2 3"],  # ground sets differ
        ["nc", "mobius", "--p", "1|2|3"],  # q missing
        ["nc", "mobius", "--p", "1 2|3", "--q", "1|2 3"],  # not comparable
        ["free", "add", "--a", "1,2", "--b", "1,2,3"],  # orders differ
        ["free", "law", "--name", "free-bessel", "--order", "4"],  # ell missing
        ["free", "clt", "--base", "0,1,1", "--n", "2"],  # irrational moment
        ["free", "mult", "--a", "0,1", "--b", "1,1", "--route", "stransform"],
        ["cox", "quasicox", "--family", "A", "--rank", "3", "--element", "[1,1,2]"],
        ["cox", "quasicox", "--family", "A", "--rank", "3", "--element", "nonsense"],
        ["topo", "euler", "--p", "1|2|3", "--q", "1|2|3"],  # empty open interval
    ],
    ids=lambda a: " ".join(a),
)
def test_bad_input_exits_2(argv):
    assert cli.run(argv).exit_code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "mobius", "--m", "0"],
        ["topo", "euler", "--m", "0"],
        ["topo", "chains", "--m", "0"],
        ["free", "law", "--name", "free-bessel", "--ell", "2", "--order", "0"],
        ["free", "law", "--name", "free-bessel", "--ell", "2", "--order", "-2"],
        ["rmt", "verify", "--threads", "-3"],
        ["cox", "quasicox", "--family", "B", "--rank", "3", "--element", "[0,1,2]"],
        ["cox", "quasicox", "--family", "A", "--rank", "1", "--element", "[true,2]"],
    ],
    ids=lambda a: " ".join(a),
)
def test_edge_input_exits_2_with_a_message(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.strip() and "Traceback" not in err


def test_unknown_command_exits_2(capsys):
    assert cli.run(["nc", "bogus"]).exit_code == 2
    assert cli.run([]).exit_code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "cap,m,code,count",
    [(None, -1, 2, None), ("4", 5, 3, None), (None, 0, 0, 1), ("5", 5, 0, 42)],
)
def test_nc_count_edges(monkeypatch, capsys, cap, m, code, count):
    if cap is not None:
        monkeypatch.setenv("NONCROSS_CAP", cap)
    assert cli.main(["nc", "count", "--m", str(m)]) == code
    out, err = capsys.readouterr()
    if count is None:
        assert out == "" and err.strip() and "Traceback" not in err
    else:
        assert json.loads(out)["count"] == count and err == ""


def test_resource_caps_exit_3(monkeypatch):
    monkeypatch.setenv("NONCROSS_CAP", "4")
    assert cli.run(["nc", "count", "--m", "6"]).exit_code == 3
    monkeypatch.delenv("NONCROSS_CAP")
    assert cli.run(["cox", "ncset", "--family", "A", "--rank", "8"]).exit_code == 3
    assert (
        cli.run(
            ["cox", "redt", "--family", "B", "--rank", "3", "--length-cap", "2"]
        ).exit_code
        == 3
    )


def test_interval_commands_are_bounded_by_the_enumeration_cap(monkeypatch):
    monkeypatch.setenv("NONCROSS_CAP", "4")
    assert cli.run(["nc", "mobius", "--m", "7"]).exit_code == 3
    assert cli.run(["topo", "euler", "--m", "7"]).exit_code == 3
    assert cli.run(["nc", "mobius", "--m", "4"]).exit_code == 0
    monkeypatch.delenv("NONCROSS_CAP")
    assert cli.run(["nc", "mobius", "--m", "7"]).exit_code == 0
    assert cli.run(["topo", "euler", "--p", "1|2|3|4|5|6|7|8|9|10", "--q", "1 2|3 4 5|6|7 8 9 10"]).exit_code == 0


@pytest.mark.parametrize("command", ["ncset", "nccount", "dualrel"])
def test_a_non_coxeter_element_is_rejected_where_c_must_be_coxeter(command, capsys):
    base = ["cox", command, "--family", "A", "--rank", "3"]
    assert cli.run(base + ["--element", "[2,3,4,1]"]).exit_code == 0
    assert cli.main(base + ["--element", "[2,1,3,4]"]) == 2
    out, err = capsys.readouterr()
    assert "not a Coxeter element" in err


@pytest.mark.parametrize("command", ["redt", "hurwitz", "quasicox"])
def test_any_element_is_accepted_where_w_is_arbitrary(command):
    result = cli.run(["cox", command, "--family", "A", "--rank", "3", "--element", "[2,1,3,4]"])
    assert result.exit_code == 0 and result.payload["element"] == [2, 1, 3, 4]


def test_series_order_over_the_cap_exits_3():
    over = ",".join(["1"] * (SERIES_ORDER_CAP + 1))
    assert cli.run(["free", "m2c", "--moments", over]).exit_code == 3
    assert cli.run(["free", "mult", "--a", over, "--b", over]).exit_code == 3
    order = str(SERIES_ORDER_CAP + 1)
    assert cli.run(["free", "law", "--name", "free-bessel", "--ell", "2", "--order", order]).exit_code == 3
    at_cap = ",".join(["1"] * SERIES_ORDER_CAP)
    assert cli.run(["free", "m2c", "--moments", at_cap]).exit_code == 0


@pytest.mark.parametrize(
    "flag, cap",
    [
        ("--n", randmat.N_CAP),
        ("--ell", randmat.ELL_CAP),
        ("--trials", randmat.TRIALS_CAP),
        ("--k", randmat.K_CAP),
        ("--threads", randmat.THREADS_CAP),
    ],
)
def test_rmt_inputs_over_the_caps_exit_3(flag, cap, capsys):
    # Each cap is checked before any sampling, so no thread starts here.
    assert cli.main(["rmt", "verify", flag, str(cap + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"exceeds the cap {cap}" in err


def test_importing_the_cli_does_not_load_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, noncross.cli; "
        "sys.exit('numpy' in sys.modules or 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_rmt_output_is_independent_of_worker_and_blas_threads():
    # n = 128 is large enough that a threaded BLAS level-1 reduction would
    # split its sum, so a reduction that went through one would show here.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in randmat.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "noncross.cli", "rmt", "verify", "--n", "128", "--trials", "4", "--k", "6"]
    outputs = set()
    for threads in ("1", "2"):
        for blas in ("1", "2"):
            done = subprocess.run(
                argv + ["--threads", threads],
                env={**env, "OPENBLAS_NUM_THREADS": blas},
                capture_output=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
    assert len(outputs) == 1


def test_help_exits_0(capsys):
    assert cli.run(["--help"]).exit_code == 0
    assert cli.run(["nc", "--help"]).exit_code == 0
    capsys.readouterr()


def test_main_prints_json_to_stdout(capsys):
    code = cli.main(["nc", "count", "--m", "5"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["count"] == 42 and data["catalan"] == 42


def test_main_prints_errors_to_stderr(capsys):
    code = cli.main(["nc", "kreweras", "--p", "1 3|2 4"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "crossing" in err


def test_csv_sequence_has_exact_and_decimal_columns(capsys):
    code = cli.main(["--format", "csv", "free", "m2c", "--moments", "1,1/2"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,exact,decimal"
    assert lines[1] == "1,1,1.0"
    assert lines[2] == "2,-1/2,-0.5"


def test_csv_even_clt_labels_true_orders(capsys):
    cli.main(["free", "clt", "--base", "0,1,1,1", "--n", "3", "--even", "--format", "csv"])
    out, _ = capsys.readouterr()
    rows = [line.split(",")[0] for line in out.strip().splitlines()]
    assert rows == ["n", "2", "4"]


def test_csv_fallback_renders_key_value_rows(capsys):
    cli.main(["--format", "csv", "nc", "count", "--m", "4"])
    out, _ = capsys.readouterr()
    rows = dict(
        line.split(",", 1) for line in out.strip().splitlines()[1:]
    )
    assert rows["kind"] == "nc_count"
    assert rows["count"] == "14"


def test_global_flags_work_in_both_positions():
    before = cli.run(["--format", "csv", "nc", "list", "--m", "3"])
    after = cli.run(["nc", "list", "--m", "3", "--format", "csv"])
    assert before.fmt == after.fmt == "csv"
    assert before.payload == after.payload
    threaded = cli.run(
        ["rmt", "verify", "--n", "16", "--trials", "4", "--threads", "2"]
    )
    assert threaded.exit_code == 0


def test_rmt_csv_table(capsys):
    cli.main(
        ["rmt", "verify", "--n", "16", "--trials", "4", "--seed", "3", "--format", "csv"]
    )
    out, _ = capsys.readouterr()
    header = out.strip().splitlines()[0]
    assert header == "k,estimate,stderr,target,target_decimal,z_score"


def test_cox_ncset_csv_lists_windows(capsys):
    cli.main(["cox", "ncset", "--family", "B", "--rank", "2", "--format", "csv"])
    out, _ = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0] == "index,window,length"
    assert len(lines) == 7  # header + |NC(B_2)| = 6
