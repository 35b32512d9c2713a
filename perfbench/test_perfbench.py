"""Tests of the benchmark itself: oracles, seeded inputs, output checks and
the tracer.  Run with ``python3 -m pytest -q perfbench`` from the checkout
root."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import oracles as o  # noqa: E402
from run import LAUNCH, Run, Runner  # noqa: E402
from traced import TRACE_MARKER  # noqa: E402
from workloads import WORKLOADS, Command, groups, lattice, transforms  # noqa: E402

from noncross import cli  # noqa: E402


def payload_of(argv) -> dict:
    result = cli.run(list(argv))
    assert result.exit_code == 0, result.payload
    return json.loads(cli.render(result.payload, "json"))


def as_run(payload: dict, code: int = 0) -> Run:
    return Run(0.0, 0.0, 0, code, json.dumps(payload).encode(), b"")


@pytest.fixture
def runner(tmp_path):
    return Runner(tmp_path)


def test_oracles_match_closed_forms():
    p = o.parse_partition("1|2 6 7|3 5|4|8")
    assert o.format_partition(o.kreweras(p, 8)) == "1 7 8|2 5|3 4|6"
    assert not o.is_noncrossing(o.parse_partition("1 3|2 4"))
    assert o.join(o.parse_partition("1 3|2|4"), o.parse_partition("1|2 4|3")) == ((1, 2, 3, 4),)
    top = (tuple(range(1, 10)),)
    assert o.mobius(tuple((i,) for i in range(1, 10)), top) == o.catalan(8)
    semicircle = [Fraction(0), Fraction(1)] + [Fraction(0)] * 6
    assert o.cumulants_to_moments(semicircle) == [0, 1, 0, 2, 0, 5, 0, 14]
    assert o.moments_to_cumulants([Fraction(o.catalan(n)) for n in range(1, 9)]) == [1] * 8
    assert [o.fuss_catalan(1, k) for k in range(1, 5)] == [1, 2, 5, 14]
    assert (o.red_t_count("D", 4), o.red_t_count("B", 4)) == (162, 256)
    assert [o.cat_w(f, r) for f, r in (("A", 7), ("B", 5), ("D", 5))] == [1430, 252, 182]
    assert o.count_factorizations("B", (-2, 3, 4, 1)) == 256


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_values_not_sizes(name):
    a, b, again = WORKLOADS[name](1), WORKLOADS[name](2), WORKLOADS[name](1)
    assert [c.argv for c in a.commands] == [c.argv for c in again.commands]
    assert [c.argv for c in a.commands] != [c.argv for c in b.commands]
    assert [len(c.argv) for c in a.commands] == [len(c.argv) for c in b.commands]
    assert len(a.why.splitlines()) == 1 and len(a.why) <= 200


def test_seeded_interval_shape_is_fixed():
    pairs = [lattice(seed)[-2].argv for seed in range(5)]
    mus = {o.mobius(o.parse_partition(argv[3]), o.parse_partition(argv[5])) for argv in pairs}
    assert mus == {-4}


# Cheap commands, one per payload kind family, with their seeded checks.
CHEAP = [
    (lattice, 5),  # nc kreweras
    (lattice, 7),  # nc join
    (transforms, 6),  # free law
    (groups, 7),  # cox redt
    (groups, 4),  # cox quasicox
]


@pytest.mark.parametrize("commands,index", CHEAP)
def test_correct_payload_passes_and_corrupted_one_fails(runner, commands, index):
    cmd = commands(7)[index]
    good = payload_of(cmd.argv)
    assert runner.check(cmd, as_run(good)) is None
    key = {"partition_op": "result", "sequence": "values", "cox_redt": "count", "cox_quasicox": "coxeter"}[good["kind"]]
    bad = dict(good)
    if key == "result":
        bad[key] = o.format_partition(o.rotate(o.parse_partition(good[key]), 10, 1))
        if bad[key] == good[key]:
            bad[key] = "1 2 3 4 5 6 7 8 9 10"
    elif key == "values":
        bad[key] = good[key][:-1] + ["1"]
    elif key == "count":
        bad[key] = good[key] + 1
    else:
        bad[key] = not good[key]
    assert runner.check(cmd, as_run(bad)) is not None


def test_schema_exit_code_and_agreement_failures_count(runner):
    cmd = transforms(7)[6]
    good = payload_of(cmd.argv)
    assert runner.check(cmd, as_run(good, code=3)) is not None
    assert runner.check(cmd, as_run({**good, "values": [1]})) is not None  # schema: strings
    assert runner.check(cmd, Run(0.0, 0.0, 0, 0, b"not json", b"")) is not None
    first = Command(cmd.argv, lambda p: None, label="first")
    second = Command(cmd.argv, lambda p: None, agrees_with=("first", ("values",)))
    assert runner.check(first, as_run(good)) is None
    assert runner.check(second, as_run(good)) is None
    assert runner.check(second, as_run({**good, "values": good["values"][:-1] + ["0"]})) is not None


def test_traced_stdout_is_identical_and_wraps_every_binding(runner):
    argv = ["free", "m2c", "--moments=1,2,5,14,42"]
    plain = runner.spawn([sys.executable, "-c", LAUNCH, *argv])
    traced = runner.spawn([sys.executable, str(Path(__file__).parent / "traced.py"), "t", *argv])
    assert plain.code == traced.code == 0
    assert traced.stdout == plain.stdout
    record = json.loads(traced.stderr.decode().rstrip("\n").rpartition("\n")[2][len(TRACE_MARKER):])
    by_name = {}
    for node in record["nodes"]:
        by_name.setdefault(node["name"], []).append(node)
    # iter_nc and kreweras are reached through the names freeprob imported.
    assert all(n["parent_name"].startswith("freeprob.") for n in by_name["partitions.iter_nc"])
    assert sum(n["yields"] for n in by_name["partitions.iter_nc"]) == sum(o.catalan(k) for k in range(1, 6))
    assert sum(n["calls"] for n in by_name["partitions.kreweras"]) == sum(o.catalan(k) for k in range(1, 6))
    assert sum(n["calls"] for n in by_name["cli.render"]) == 1
    assert record["import_s"] > 0


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    bench = Path(__file__).parent
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in bench.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groups", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
