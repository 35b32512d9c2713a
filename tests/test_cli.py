"""Command-line surface: every payload kind validates against its shipped
schema, exit codes map errors as documented, rationals stay exact, and the
CSV renderings carry an exact column next to the decimal one."""

import ast
import concurrent.futures
import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import noncross
from helpers import budget, code_lines, moves_covered_by_scan, nc_lattice_check
from noncross import caps, cli, coxeter, randmat
from noncross.caps import SERIES_ORDER_CAP
from noncross.errors import ResourceCapExceeded

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = ("partitions", "series", "freeprob", "coxeter", "complexes", "randmat")

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
        ["nc", "mobius", "--p", "1|2", "--q", "1 2", "--m", "2"],  # --m beside --p and --q
        ["topo", "euler", "--p", "1|2", "--q", "1 2", "--m", "2"],
        ["free", "law", "--name", "free-bessel", "--ell", "2", "--order", "0"],
        ["free", "law", "--name", "free-bessel", "--ell", "2", "--order", "-2"],
        ["free", "law", "--name", "free-poisson", "--ell", "3", "--order", "3"],  # --ell without free-bessel
        ["free", "law", "--name", "semicircle", "--ell", "1", "--order", "3"],
        ["rmt", "verify", "--threads", "-3"],
        ["cox", "quasicox", "--family", "B", "--rank", "3", "--element", "[0,1,2]"],
        ["cox", "quasicox", "--family", "A", "--rank", "1", "--element", "[true,2]"],
        pytest.param(
            ["cox", "quasicox", "--family", "B", "--rank", "3", "--element", "[" * 100_000],
            id="cox quasicox --family B --rank 3 --element [x100000",
        ),
        ["cox", "nccount", "--family", "A", "--rank", "3", "--rank-cap", "-5"],
        ["cox", "redt", "--family", "B", "--rank", "3", "--length-cap", "-1"],
        ["cox", "hurwitz", "--family", "B", "--rank", "3", "--fact-rank-cap", "-1"],
        ["free", "m2c", "--moments=1e20000"],  # exponent notation
        ["rmt", "verify", "--seed", "-1"],
        ["rmt", "verify", "--seed", str(2**128)],  # a Philox key has 128 bits
    ],
    ids=lambda a: " ".join(a),
)
def test_edge_input_exits_2_with_a_message(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.strip() and "Traceback" not in err


def test_a_long_element_is_quoted_by_a_prefix(capsys):
    argv = ["cox", "quasicox", "--family", "B", "--rank", "3", "--element"]
    assert cli.main([*argv, "[" * 100_000]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and "(100000 characters)" in err
    assert cli.main([*argv, "[" * 40]) == 2  # up to the cut, the whole text
    assert capsys.readouterr().err == (
        f"cannot parse group element {'[' * 40!r}; expected e.g. [2,-1,3]\n"
    )


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


def test_resource_caps_exit_3(monkeypatch, capsys):
    monkeypatch.setenv("NONCROSS_CAP", "4")
    assert cli.run(["nc", "count", "--m", "6"]).exit_code == 3
    monkeypatch.delenv("NONCROSS_CAP")
    assert cli.run(["cox", "ncset", "--family", "A", "--rank", "8"]).exit_code == 3
    capsys.readouterr()
    # A7's c has 262,144 reduced factorizations.  Under a raised rank cap the
    # count walk of redt stops inside a level: A12's second level counts
    # millions of chains, and the walk stops after a few of its parents;
    # dualrel refuses off the closed count n! h^n / |W| and walks nothing.
    for argv in (
        ["cox", "redt", "--family", "A", "--rank", "7"],
        ["cox", "hurwitz", "--family", "A", "--rank", "7"],
        ["cox", "dualrel", "--family", "A", "--rank", "7"],
        ["cox", "redt", "--family", "A", "--rank", "12", "--rank-cap", "12"],
        ["cox", "dualrel", "--family", "A", "--rank", "60", "--rank-cap", "60"],
    ):
        start = time.perf_counter()
        assert cli.main(argv) == 3, argv
        assert time.perf_counter() - start < 1.0, argv
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and f"capped at {caps.FACTORIZATION_COUNT_CAP} " in err


@pytest.mark.parametrize("command", ["ncset"])
def test_a_non_crossing_set_past_its_count_cap_is_refused_promptly(command, capsys):
    # NC(A14) has Cat(A14) = C_15 = 9,694,845 elements; the closed count
    # refuses it before the walk below c starts.
    argv = ["cox", command, "--family", "A", "--rank", "14", "--rank-cap", "14"]
    with budget(" ".join(argv), 0.5):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"capped at {caps.NC_SET_COUNT_CAP} elements" in err and "has 9694845" in err


def test_nc_count_past_the_set_cap_prints_the_catalan_number_promptly(capsys):
    # nccount builds no element: Cat(A60) = C_61 and the lattice flag are
    # theorems, so a raised rank cap costs only the context.
    argv = ["cox", "nccount", "--family", "A", "--rank", "60", "--rank-cap", "60", "--lattice"]
    with budget(" ".join(argv), 0.2):
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
    assert out["count"] == noncross.catalan(61) > caps.NC_SET_COUNT_CAP
    assert out["lattice_check"] is True


def test_a_rank_past_the_ceiling_is_refused_before_any_reflection_is_built(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a context past the ceiling was built")

    monkeypatch.setattr(coxeter, "_reflection", refuse)
    rank = caps.RANK_CAP_CEILING + 1
    for command in ("quasicox", "redt", "nccount"):
        argv = ["cox", command, "--family", "B", "--rank", str(rank), "--rank-cap", "2000"]
        assert cli.main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"rank {rank} exceeds the ceiling {caps.RANK_CAP_CEILING} that no rank cap raises\n"


@pytest.mark.parametrize(
    "argv, factorizations, seconds",
    [
        (["cox", "dualrel", "--family", "A", "--rank", "5"], 6**4, 2),
        (["cox", "dualrel", "--family", "B", "--rank", "5"], 5**5, 2),
        (["cox", "dualrel", "--family", "D", "--rank", "5"], 2048, 2),
        (["cox", "hurwitz", "--family", "A", "--rank", "6"], 7**5, 5),
    ],
    ids=lambda a: " ".join(a) if isinstance(a, list) else None,
)
def test_braid_moves_are_transitive_on_the_factorizations_of_c(argv, factorizations, seconds, capsys):
    # Bessis: the Hurwitz action on Red_T(c) is transitive.
    with budget(" ".join(argv), seconds):
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
    assert out["factorizations"] == factorizations
    if out["kind"] == "cox_dualrel":
        # The command prints both facts as theorems; the oracles check them.
        ctx = coxeter.CoxeterContext(out["family"], out["rank"])
        c = tuple(out["coxeter_element"])
        assert out["orbits"] == len(coxeter.hurwitz_orbits(ctx, c)) == 1
        assert out["moves_covered"] is moves_covered_by_scan(ctx, c) is True
    else:
        assert out["orbit_sizes"] == [factorizations] and out["transitive"] is True


def test_dual_braid_check_counts_red_t_without_listing_it(capsys):
    # A6's c has 7^5 = 16,807 reduced factorizations; listing them and
    # walking their braid orbits takes over a second in-process.
    argv = ["cox", "dualrel", "--family", "A", "--rank", "6"]
    with budget(" ".join(argv), 0.3):
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
    assert out["factorizations"] == 7**5 and out["orbits"] == 1 and out["moves_covered"] is True


@pytest.mark.parametrize(
    "cap, argv, message",
    [
        ("2000", ["topo", "chains", "--m", "2000"], "integer of over"),  # 2000^1998
        ("2000", ["--format", "csv", "topo", "chains", "--m", "2000"], "integer of over"),
        ("5000", ["topo", "chains", "--m", "3000"], "integer of over"),
        ("5000", ["nc", "list", "--m", "1200"], "recursion limit"),  # NC(m) nests m frames
        ("5000", ["topo", "euler", "--m", str(caps.ORDER_COMPLEX_M_CAP + 1)], "ORDER_COMPLEX_M_CAP"),
        # Refused before NC(m)'s bottom and top are built.
        ("2000000", ["topo", "euler", "--m", "1000000"], "ORDER_COMPLEX_M_CAP"),
    ],
    ids=lambda a: " ".join(a) if isinstance(a, list) else a,
)
def test_raised_cap_past_what_python_can_hold_exits_3(monkeypatch, capsys, cap, argv, message):
    monkeypatch.setenv("NONCROSS_CAP", cap)
    with budget(" ".join(argv), 0.5):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and message in err


def test_raised_cap_results_within_python_limits_exit_0(monkeypatch, capsys):
    monkeypatch.setenv("NONCROSS_CAP", "1000")
    assert cli.main(["topo", "chains", "--m", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["maximal_chains"] == 1000**998
    monkeypatch.setenv("NONCROSS_CAP", "5000")
    with budget("nc count, nc mobius and topo euler under NONCROSS_CAP=5000", 2):
        for m in (330, 1500, 3000, 5000):
            assert cli.main(["nc", "count", "--m", str(m)]) == 0
            count = noncross.catalan(m)
            expected = {"kind": "nc_count", "m": m, "count": count, "catalan": count}
            assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
        for m in (45, 330, 3000, 5000):
            assert cli.main(["nc", "mobius", "--m", str(m)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["recursive"] == out["closed_form"] == (-1) ** (m - 1) * noncross.catalan(m - 1)
            assert out["agree"] is True
        assert cli.main(["topo", "euler", "--m", "328"]) == 0
        out = json.loads(capsys.readouterr().out)
    assert out["euler_reduced"] == out["mobius"] == -noncross.catalan(327)
    assert out["agree"] is True


@pytest.mark.parametrize(
    "argv", [["nc", "count", "--m", "1000000"], ["nc", "mobius", "--m", "200000"]], ids=" ".join
)
def test_an_unprintable_catalan_is_refused_before_it_is_computed(argv):
    # C_1000000 alone takes most of a minute to compute, and mu of NC(200000)
    # needs both partitions built first; a lower bound on the digits of the
    # Catalan number refuses either cold in the time Python takes to start.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "NONCROSS_CAP": "2000000"}
    with budget(" ".join(argv) + " exits 3 cold", 0.5):
        done = subprocess.run(
            [sys.executable, "-m", "noncross.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
    limit = sys.get_int_max_str_digits()
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == f"the result has an integer of over {limit} digits\n"


def test_the_last_printable_catalan_still_prints(monkeypatch, capsys):
    # Under the default limit of 4,300 digits C_7152 is the last Catalan
    # number Python prints; C_7153 has 4,301 digits.
    assert sys.get_int_max_str_digits() == 4300
    monkeypatch.setenv("NONCROSS_CAP", "10000")
    last = noncross.catalan(7152)
    assert cli.main(["nc", "count", "--m", "7152"]) == 0
    expected = {"kind": "nc_count", "m": 7152, "count": last, "catalan": last}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    assert cli.main(["nc", "mobius", "--m", "7153"]) == 0
    top = str(noncross.NCPartition.top(7153))
    bottom = str(noncross.NCPartition.bottom(7153))
    expected = {"kind": "mobius", "p": bottom, "q": top, "recursive": last, "closed_form": last, "agree": True}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    for argv in (["nc", "count", "--m", "7153"], ["nc", "mobius", "--m", "7154"]):
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", "the result has an integer of over 4300 digits\n")
    # A limit of 0 prints every integer, so the bound refuses nothing.
    sys.set_int_max_str_digits(0)
    try:
        assert cli.main(["nc", "count", "--m", "7200"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == noncross.catalan(7200)
    finally:
        sys.set_int_max_str_digits(4300)


def test_a_huge_interval_is_refused_before_quadratic_work(monkeypatch, capsys):
    monkeypatch.delenv("NONCROSS_CAP", raising=False)
    singletons = "|".join(map(str, range(1, 20_001)))
    with budget("nc mobius on 20,000 singletons", 1):
        assert cli.main(["nc", "mobius", "--p", singletons, "--q", singletons]) == 3
        out, err = capsys.readouterr()
    assert out == "" and err.startswith("enumeration over NC(20000) exceeds the cap 12")


def test_kreweras_route_ignores_the_enumeration_cap(monkeypatch):
    rng = random.Random(13)

    def order_13() -> str:
        return ",".join(str(Fraction(rng.randint(1, 6), rng.randint(1, 4))) for _ in range(13))

    mult = ["free", "mult", "--a", order_13(), "--b", order_13(), "--route"]
    monkeypatch.setenv("NONCROSS_CAP", "4")
    kreweras = cli.run(mult + ["kreweras"])
    assert kreweras.exit_code == 0
    assert kreweras.payload["values"] == cli.run(mult + ["stransform"]).payload["values"]


def test_interval_commands_are_bounded_by_the_enumeration_cap(monkeypatch):
    monkeypatch.setenv("NONCROSS_CAP", "4")
    assert cli.run(["nc", "mobius", "--m", "7"]).exit_code == 3
    assert cli.run(["topo", "euler", "--m", "7"]).exit_code == 3
    assert cli.run(["nc", "mobius", "--m", "4"]).exit_code == 0
    monkeypatch.delenv("NONCROSS_CAP")
    assert cli.run(["nc", "mobius", "--m", "7"]).exit_code == 0
    assert cli.run(["topo", "euler", "--p", "1|2|3|4|5|6|7|8|9|10", "--q", "1 2|3 4 5|6|7 8 9 10"]).exit_code == 0



def test_interval_commands_at_the_cap_enumerate_nothing():
    with budget("topo euler and nc mobius at m=12", 2):
        euler = cli.run(["topo", "euler", "--m", "12"])
        mobius = cli.run(["nc", "mobius", "--m", "12"])
    assert euler.exit_code == mobius.exit_code == 0
    assert sum(euler.payload["f_vector"]) == 1_882_449_265_797
    assert euler.payload["euler_reduced"] == euler.payload["mobius"] == -58786
    assert mobius.payload["recursive"] == mobius.payload["closed_form"] == -58786


def test_lattice_check_at_the_rank_cap_walks_covers(capsys):
    # The command prints the flag as a theorem; the oracle decides it on the
    # 1,430 elements by walking their covers (a pairwise absolute-order test
    # takes seconds).
    with budget("cox nccount --family A --rank 7 --lattice", 1):
        assert cli.main(["cox", "nccount", "--family", "A", "--rank", "7", "--lattice"]) == 0
        out = json.loads(capsys.readouterr().out)
    ctx = coxeter.CoxeterContext("A", 7)
    assert out["count"] == 1430 and out["lattice_check"] is nc_lattice_check(ctx, coxeter.nc_set(ctx)) is True


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
        pytest.param(None, randmat.THREADS_CAP, id="estimate_moments-threads"),
    ],
)
def test_rmt_inputs_over_the_caps_exit_3(flag, cap, capsys, monkeypatch):
    # Each cap is checked before any pool is built or any trial drawn.
    def refused(*args):
        raise AssertionError("a trial pool or draw started past a cap")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
    monkeypatch.setattr(randmat, "trial_rng", refused)
    if flag is None:  # the library's threads argument, past the same cap
        spec = randmat.GinibreSpec(n=2, ell=1, kind="product", trials=2, seed=0)
        with pytest.raises(ResourceCapExceeded, match=f"exceeds the cap {cap}"):
            randmat.estimate_moments(spec, 4, threads=cap + 1)
        return
    assert cli.main(["rmt", "verify", flag, str(cap + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"exceeds the cap {cap}" in err


def test_rmt_workers_matrices_over_the_joint_cap_exit_3(monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("sampled past a cap")

    monkeypatch.setattr(randmat, "trial_rng", no_sampling)
    monkeypatch.setattr(randmat, "_nproc", lambda: 2)
    argv = ["rmt", "verify", "--n", str(randmat.N_CAP), "--threads", "33"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"threads x matrices x n^2 x 16 bytes = 33 x 4 x {randmat.N_CAP}^2 x 16" in err
    assert f"exceeds the cap {caps.RMT_MEMORY_CAP_MIB} MiB" in err


def loads(argv: list[str] | None) -> dict:
    """The layers whose bodies ran and the modules loaded by a fresh process
    that imports the CLI and, given argv, runs that command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys, types, noncross.cli\n"
        f"argv = {argv!r}\n"
        "if argv is not None: noncross.cli.main(argv)\n"
        f"layers = [l for l in {LAYERS!r}"
        " if type(sys.modules['noncross.' + l]) is types.ModuleType]\n"
        "print(json.dumps({'layers': layers, 'modules': sorted(sys.modules)}), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


def test_importing_the_cli_does_not_load_numpy():
    loaded = loads(None)
    assert loaded["layers"] == []
    for module in ("numpy", "concurrent.futures", "dataclasses", "inspect", "fractions"):
        assert module not in loaded["modules"]


def test_a_command_runs_only_the_layers_it_calls():
    assert loads(["nc", "count", "--m", "3"])["layers"] == ["partitions"]
    assert loads(["topo", "euler", "--m", "3"])["layers"] == ["partitions", "complexes"]
    rmt = ["rmt", "verify", "--n", "4", "--trials", "2", "--k", "2", "--seed", "0"]
    assert loads(rmt)["layers"] == ["series", "freeprob", "randmat"]
    for free in (
        ["free", "mult", "--a", "0,1,0,2", "--b", "1,2,5,14", "--route", "kreweras"],
        ["free", "law", "--name", "semicircle", "--order", "6"],
    ):
        assert loads(free)["layers"] == ["series", "freeprob"]
    cox = loads(["cox", "nccount", "--family", "A", "--rank", "3"])
    assert cox["layers"] == ["coxeter"]
    assert "fractions" not in cox["modules"]


def test_every_public_name_is_the_object_of_its_defining_module():
    for name in noncross.__all__:
        if name == "__version__":
            continue
        value = getattr(noncross, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(noncross.__all__) <= set(dir(noncross))
    with pytest.raises(AttributeError):
        noncross.not_a_public_name


# Code lines (helpers.code_lines) of the CLI, the Coxeter layer and the whole
# package.  A change that needs more raises the ceiling on purpose and says so
# in CHANGES.md.
CLI_CODE_LINE_CEILING = 383
COXETER_CODE_LINE_CEILING = 247
SRC_CODE_LINE_CEILING = 1386


def test_the_source_stays_within_its_code_line_ceilings():
    package = Path(noncross.__file__).resolve().parent
    counts = {path: code_lines(path.read_text()) for path in package.rglob("*.py")}
    assert counts[package / "cli.py"] <= CLI_CODE_LINE_CEILING
    assert counts[package / "coxeter.py"] <= COXETER_CODE_LINE_CEILING
    assert sum(counts.values()) <= SRC_CODE_LINE_CEILING


def test_readme_imports_work():
    lines = [ln for ln in README.read_text().splitlines() if ln.startswith("from noncross import ")]
    assert lines
    for line in lines:
        exec(line, {})


def test_readme_caps_paragraph_matches_the_caps_module():
    text = README.read_text()
    paragraph = text[text.index("Caps live in") :].split("\n\n", 1)[0]
    cited = dict(re.findall(r"`([A-Z_]+) = ([^`]+)`", paragraph))
    numeric = {k for k, v in vars(caps).items() if k.isupper() and isinstance(v, (int, dict))}
    assert set(cited) == numeric
    for name, literal in cited.items():
        assert ast.literal_eval(literal) == getattr(caps, name), name
    # every number in the paragraph is one of the cited values
    assert not re.search(r"\d", re.sub(r"`[A-Z_]+ = [^`]+`", "", paragraph))


LONG_VALUES = ",".join(["1/" + "7" * 1000] * 30)


@pytest.mark.parametrize(
    "argv, order",
    [
        (["free", "law", "--name", "free-bessel", "--ell", "1000000", "--order", "60"], 50),
        (["free", "c2m", "--cumulants", ",".join(["9" * 3000] * 3)], 1),
        (["free", "c2m", "--cumulants", ",".join(["1/" + "9" * 2500] * 2)], 2),
        (["free", "clt", "--base", "0,1,0," + "9" * 400, "--n", "2", "--even"], 4),
        # Long inputs stop as the first unprintable output is solved.
        (["free", "m2c", "--moments", LONG_VALUES], 5),
        (["free", "c2m", "--cumulants", LONG_VALUES], 5),
        (["free", "add", "--a", LONG_VALUES, "--b", LONG_VALUES], 6),
        (["free", "mult", "--a", LONG_VALUES, "--b", LONG_VALUES], 3),
        (["free", "clt", "--base", LONG_VALUES, "--n", "4"], 5),
        (["free", "clt", "--base", LONG_VALUES, "--n", "4", "--even"], 6),
    ],
    ids=[
        "float-overflow", "huge-cumulants", "digit-limit", "even-orders",
        "long-m2c", "long-c2m", "long-add", "long-mult", "long-clt", "long-clt-even",
    ],
)
def test_an_unprintable_free_value_exits_3_naming_its_order(argv, order, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == "" and f"the value of order {order} " in err


BIG = "1" * 1500


@pytest.mark.parametrize(
    "argv, values",
    [
        # The inputs' k3 = +-2/N^3 has about 4,500 digits; the sum's
        # moments 0, -2/N^2, 0 have at most about 3,000.
        (["free", "add", "--a", f"1/{BIG},0,0", f"--b=-1/{BIG},0,0"],
         ["0", f"-2/{int(BIG) ** 2}", "0"]),
        (["free", "mult", "--route", "kreweras", "--a", f"1/{BIG},0,0", "--b", "0,0,0"],
         ["0", "0", "0"]),
    ],
    ids=["add", "kreweras"],
)
def test_only_printed_free_values_must_be_printable(argv, values, capsys):
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["values"] == values


def test_rmt_output_is_independent_of_worker_and_blas_threads():
    # n = 128 is large enough that a threaded BLAS level-1 reduction would
    # split its sum, so a reduction that went through one would show here.
    # On two cores --threads 1 and 2 each run two trial threads, and
    # --threads 3 runs three, more than the cores.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in randmat.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "noncross.cli", "rmt", "verify", "--n", "128", "--trials", "4", "--k", "6"]
    outputs = set()
    for threads in ("1", "2", "3"):
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


def test_a_reader_closing_stdout_early_gets_exit_2_without_a_traceback():
    # NC(9) lists ~150 kB, more than a pipe holds, so the writer is still
    # blocked in its write when the reader goes away.
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from noncross.cli import main; sys.exit(main())",
         "nc", "list", "--m", "9"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


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


# ---------------------------------------------------------------------------
# A property over the CLI grammar, drawn from the leaf table.

# Integer flags stay small, so that no drawn command runs long or starts more
# than a few threads; every other integer flag is drawn from -1..8.  The
# Monte Carlo sizes are always given, since their defaults are large.
INT_RANGES = {"--rank": (-1, 4), "--rank-cap": (-1, 4), "--trials": (-1, 4), "--seed": (-1, 3)}
# Seconds within which each drawn argv's cli.main call must end.
DRAWN_ARGV_BUDGET_S = 5
ALWAYS_GIVEN = {("rmt", "--n"), ("rmt", "--trials")}
JUNK = st.sampled_from(["", "x", "1,,2", "1/0", "1e3", "[", "[1,1]", "[true]", "1 3|2 4", "1|1", "|"])


def partition_texts(m: int):
    """Pipe-format texts of the set partitions of 1..m: crossing or not."""
    def text(labels: list[int]) -> str:
        blocks = ([i for i, label in enumerate(labels, 1) if label == b] for b in sorted(set(labels)))
        return "|".join(" ".join(map(str, block)) for block in blocks)

    return st.lists(st.integers(0, 3), min_size=m, max_size=m).map(text)


@st.composite
def window_texts(draw, n: int) -> str:
    """A JSON window of n or n + 1 letters (type A of rank n has n + 1),
    some of them negated."""
    letters = draw(st.permutations(range(1, n + draw(st.integers(0, 1)) + 1)))
    return json.dumps([draw(st.sampled_from((1, 1, -1))) * x for x in letters])


def rational_lists(order: int):
    """Comma lists of order small rationals."""
    rational = st.builds(lambda p, q: f"{p}/{q}" if q > 1 else str(p), st.integers(-3, 3), st.integers(1, 3))
    return st.lists(rational, min_size=order, max_size=order).map(",".join)


def value_strategy(flag: str, options: dict, size: int):
    """Values for one argument of the table: its choices, a small int, or a
    valid or junk partition, window or rational list of the argv's size."""
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        low, high = INT_RANGES.get(flag, (-1, 8))
        return st.integers(low, high).map(str)
    texts = {"--p": partition_texts, "--q": partition_texts, "--element": window_texts}
    return texts.get(flag, rational_lists)(size) | JUNK


@st.composite
def argvs(draw, group: str, leaf: str) -> list[str]:
    """An argv of one leaf: each of its arguments given or left out (a
    required one mostly given), then the two global options.  Its
    partitions, windows and lists share one size, so that pairs can agree;
    in a cox argv that size is the rank."""
    argv, size = [group, leaf], draw(st.integers(1, 5))
    for flag, options in cli._GROUPS[group][1][leaf][2]:
        left_out = st.integers(0, 9).map(lambda x: x == 9) if options.get("required") else st.booleans()
        if (group, flag) not in ALWAYS_GIVEN and draw(left_out):
            continue
        if options.get("action") == "store_true":
            argv.append(flag)
            continue
        value = draw(value_strategy(flag, options, size))
        if flag == "--rank" and int(value) > 0:
            size = int(value)  # so that a window drawn after it can be an element
        argv.append(f"{flag}={value}")
    argv += ["--format", draw(st.sampled_from(("json", "csv"))), "--threads", str(draw(st.integers(1, 2)))]
    return argv


TABLE_LEAVES = [(group, leaf) for group, (_, leaves) in cli._GROUPS.items() for leaf in leaves]


@pytest.mark.parametrize("group,leaf", TABLE_LEAVES, ids=[" ".join(gl) for gl in TABLE_LEAVES])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_drawn_argv_ends_in_a_documented_exit(group, leaf, data):
    argv = data.draw(argvs(group, leaf))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    assert elapsed < DRAWN_ARGV_BUDGET_S, (argv, elapsed)
    assert code in (0, 2, 3) and "Traceback" not in out + err
    if code:
        assert out == "" and err.strip()
    elif "json" in argv:
        payload = json.loads(out)
        Draft202012Validator(schema_for(payload["kind"])).validate(payload)
    else:
        assert next(csv.reader(io.StringIO(out)))
