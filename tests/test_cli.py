import argparse
import errno
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

import circlespec
from circlespec import markov, measure_to_json, suite
from circlespec.cli import _params, build_parser, main

from tests.helpers import designed_relation_measure


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def test_krot_passes_and_reports_formula():
    code, env = run_json(["krot", "--k", "1", "--m", "2"])
    assert code == 0
    assert env["command"] == "krot"
    assert env["passed"] is True
    assert env["report"]["formula"] == env["report"]["generic_value"] == 2


def test_sym_krot_passes():
    code, env = run_json(["sym-krot", "--k", "1", "--m", "3"])
    assert code == 0
    assert env["report"]["generic_value"] == 1


def test_fock_set_small_case():
    code, env = run_json(["fock-set", "--k", "2", "--max-m", "2", "--atoms", "6"])
    assert code == 0
    assert env["report"]["set"] == [1, 3]


# Below k*m atoms a level has no generic fiber.  That is a failed check (exit 1),
# not an input error: the closed form claims a multiplicity no level shows.
def test_fock_set_without_a_generic_top_level_is_a_failed_check():
    code, env = run_json("fock-set --k 2 --max-m 4 --atoms 7".split())
    assert code == 1 and env["passed"] is False
    assert env["report"]["per_level"]["4"] is None
    assert env["report"]["warning"] == "no generic fiber above level 3: d=7 < 8"


def test_fock_set_of_one_atom_at_a_huge_convolution_power_fails_fast():
    start = time.perf_counter()
    code, env = run_json("fock-set --k 1000000 --max-m 1 --atoms 1".split())
    assert time.perf_counter() - start < 1.0
    assert code == 1 and env["report"]["per_level"] == {"1": None}


def test_cs_criterion_failure_is_exit_1():
    code, env = run_json(["cs-criterion", "--k", "2", "--m", "2", "--n", "2"])
    assert code == 1
    assert env["passed"] is False


def test_cs_min_m_reference_output():
    code, env = run_json(["cs-min-m", "--k", "1"])
    assert code == 0
    assert env["report"]["m"] == 2
    assert env["report"]["sequence"] == ["1", "2"]


def test_cs_min_m_finds_m_156_at_k_6():
    code, env = run_json(["cs-min-m", "--k", "6"])
    assert code == 0
    assert env["report"]["m"] == 156 and len(env["report"]["sequence"]) == 156


# The digit admission is the search's only end besides the least m.
def test_cs_min_m_has_no_m_cap_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cs-min-m", "--k", "3", "--m-cap", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --m-cap" in capsys.readouterr().err


def test_cs_min_m_at_k_7_exits_2_with_one_line_fast():
    start = time.perf_counter()
    src = os.path.dirname(os.path.dirname(circlespec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "circlespec.cli", "cs-min-m", "--k", "7"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 0.5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "cap exceeded: 4317 digits of the tensor multiplicity (mk)!/(k!)^m exceed the cap 4300\n"


def test_translate_singular_identity_same_level_fails():
    code, env = run_json(
        ["translate-singular", "--n", "2", "--m", "2", "--shift", "identity"]
    )
    assert code == 1 and env["report"]["singular"] is False
    code, env = run_json(["translate-singular", "--n", "1", "--m", "2"])
    assert code == 0 and env["report"]["singular"] is True


def test_nonsimple_default_measure():
    code, env = run_json(["nonsimple"])
    assert code == 0
    assert env["report"]["witness"]["multiplicity"] == 2


def test_nonsimple_one_atom_with_an_involution_shift_passes():
    code, env = run_json(["nonsimple", "--atoms", "1", "--shift", "1/2"])
    assert code == 0
    assert env["report"]["witness"]["eigenvalue"] == "g0^2"


def test_girsanov_default_paired_measure():
    code, env = run_json(["girsanov"])
    assert code == 0
    assert env["report"]["q"] == 2 and env["report"]["chosen_count"] >= 4
    assert env["report"]["measure_source"] == "paired-relation"


def test_vproste_generic_default():
    code, env = run_json(["vproste", "--atoms", "2", "--max-level", "3"])
    assert code == 0
    assert env["report"]["levels"] == {"1": True, "2": True, "3": True}


def test_relations_finds_designed_relation(tmp_path):
    path = tmp_path / "relation.json"
    path.write_text(measure_to_json(designed_relation_measure()), encoding="utf-8")
    code, env = run_json(["relations", "--measure", str(path), "--degree", "4"])
    assert code == 0
    assert env["report"]["count"] == 1


def test_multiplicity_reads_measure_file(tmp_path):
    path = tmp_path / "relation.json"
    path.write_text(measure_to_json(designed_relation_measure()), encoding="utf-8")
    code, env = run_json(
        ["multiplicity", "--measure", str(path), "--power", "2", "--group", "symmetric"]
    )
    assert code == 0
    assert env["report"]["entries"]["g0^1 * g1^1"] == 2


def test_multiplicity_with_explicit_generators():
    code, env = run_json(
        ["multiplicity", "--atoms", "3", "--power", "2", "--group", "[[1,0]]"]
    )
    assert code == 0
    assert env["report"]["group"]["order"] == 2


# One source per input: the envelope's params name what ran.
def test_group_takes_generators_and_gens_is_gone(capsys):
    argv = ["multiplicity", "--power", "2", "--atoms", "2", "--gens", "[[1,0]]", "--group", "trivial"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments: --gens" in capsys.readouterr().err
    assert main(["multiplicity", "--power", "2", "--atoms", "2", "--group", "cycle"]) == 2
    assert capsys.readouterr().err == (
        "input error: --group must be trivial, cyclic, symmetric or a JSON list of image lists\n"
    )


def test_measure_and_atoms_together_are_exit_2(tmp_path, capsys):
    path = tmp_path / "relation.json"
    path.write_text(measure_to_json(designed_relation_measure()), encoding="utf-8")
    argv = ["translate-singular", "--measure", str(path), "--atoms", "5", "--n", "1", "--m", "1"]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == "input error: give --measure FILE or --atoms D, not both\n"


def test_malformed_measure_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": [{"weight": "1/2"}]}', encoding="utf-8")
    assert main(["multiplicity", "--measure", str(path), "--power", "2"]) == 2
    assert "measure format" in capsys.readouterr().err


RELATED_PAIR = (  # g0 and 1/2 * g0: g0 * (1/2 * g0)^-1 = 1/2 is a degree-2 relation
    '{"atoms": [{"weight": "1/2", "rational": "0", "generic": {"0": 1}},'
    ' {"weight": "1/2", "rational": "1/2", "generic": {"0": 1}}]}'
)


# Input checks, each with its exit code and its one stderr line.
@pytest.mark.parametrize(
    "argv, measure_text, err",
    [
        (["nonsimple", "--measure"], RELATED_PAIR,
         "input error: base measure must be generic (relation scan up to degree 2 failed)"),
        (["nonsimple", "--atoms", "2", "--shift", "g0^-1 * g1^1"], None,
         "input error: shift collides with the base measure; pick a relation-free shift"),
        (["nonsimple", "--measure"], '{"atoms": []}', "input error: base measure must have at least one atom"),
        (["girsanov", "--measure"], '{"atoms": []}', "input error: measure must have at least one atom"),
        (["markov", "lm-kk", "--n", "4"], None, "input error: --n must be between 1 and 3"),
        (["multiplicity", "--power", "2"], None, "input error: provide --measure FILE or --atoms D"),
        (["vproste", "--measure"], '{"atoms": [{"weight": "1", "rational": "0", "generic": [0, 1]}]}',
         "measure format error: atom 0 generic part must be an object"),
    ],
    ids=["non-generic-base", "colliding-shift", "empty-nonsimple", "empty-girsanov", "lm-kk-n-4",
         "no-measure-no-atoms", "generic-not-an-object"],
)
def test_input_check_is_exit_2_with_one_message(argv, measure_text, err, tmp_path, capsys):
    if measure_text is not None:
        path = tmp_path / "measure.json"
        path.write_text(measure_text, encoding="utf-8")
        argv = [*argv, str(path)]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"{err}\n"


def test_an_engine_cross_check_that_trips_is_exit_1(monkeypatch, capsys):
    def tripped(*args):
        raise RuntimeError("Burnside sum 7 for pattern (2,) is not a multiple of |G| = 2")

    monkeypatch.setattr("circlespec.cli.check_simplicity_levels", tripped)
    assert run_cli(["vproste"]) == (1, "")
    assert capsys.readouterr().err == "check failed: Burnside sum 7 for pattern (2,) is not a multiple of |G| = 2\n"


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["vproste", "--measure", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["vproste", "--measure", ""],
        ["girsanov", "--measure", "", "--n", "1"],
        ["multiplicity", "--measure", "", "--power", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_measure_path_is_a_missing_file(argv, capsys):
    """An empty --measure is a path like any other: it names no file, so the
    run exits 2 and says so, and never falls back to a default measure."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), '')}\n"


def test_cap_error_is_exit_2(capsys):
    assert main(["multiplicity", "--atoms", "8", "--power", "9", "--tuple-cap", "100"]) == 2
    assert "cap" in capsys.readouterr().err


def test_unknown_subcommand_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_markov_subcommands():
    code, env = run_json(["markov", "round-trip", "--count", "5"])
    assert code == 0 and env["command"] == "markov round-trip"
    code, env = run_json(["markov", "lm-kk", "--n", "2", "--count", "1"])
    assert code == 0 and env["report"]["cases"] == 4
    code, env = run_json(["markov", "incl-excl", "--dims", "2,3"])
    assert code == 0 and env["report"]["dimension_lhs"] == 5


def test_markov_bad_dims_is_exit_2(capsys):
    assert main(["markov", "incl-excl", "--dims", "2,x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["markov", "round-trip", "--count", "-3"],
        ["markov", "round-trip", "--count", "0"],
        ["markov", "lm-kk", "--count", "-1"],
        ["markov", "lm-kk", "--n", "3", "--count", "0"],
    ],
)
def test_markov_non_positive_count_is_exit_2(argv, capsys):
    assert run_cli(argv)[0] == 2
    assert "count must be an int >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check", [suite.check_round_trips, lambda rng, count: suite.check_projections(rng, 1, count)],
    ids=["round-trips", "projections"],
)
def test_suite_checks_refuse_a_bool_count(check):
    # `True < 1` is false, so only a type check keeps a bool from running one trial.
    with pytest.raises(ValueError, match="count must be an int >= 1, got True"):
        check(random.Random(0), True)


@pytest.mark.parametrize(
    "argv", [["markov", "round-trip", "--count", "3"], ["markov", "lm-kk", "--n", "2", "--count", "1"]]
)
def test_a_derived_operator_failing_validation_is_a_failed_check(argv, monkeypatch, capsys):
    """A coupling derived one entry off makes the operator built from it fail
    its validation: a failed stage (exit 1), not an input error (exit 2)."""
    original = markov.coupling_from_markov

    def one_entry_off(phi):
        c = original(phi)
        nums = [[7 * n for n in row] for row in c.nums]
        nums[0][0] += c.den  # the first entry 1/7 more
        return markov.Coupling._canonical(c.left, c.right, nums, 7 * c.den)

    for owner in (markov, suite):
        monkeypatch.setattr(owner, "coupling_from_markov", one_entry_off)
    code, env = run_json(argv)
    assert code == 1 and env["passed"] is False
    assert any("sums to" in failure.get("error", "") for failure in env["report"]["failures"])
    assert capsys.readouterr().err == ""


# incl-excl charges (2^n - 1) * n * total^2 dense entries against 256 * matrix_cap.
# With --matrix-cap 64 the limit is 16384: [128] and [1]*10 (10230) are the
# largest admitted inputs of their kind, [129] and [1]*11 (22517) the next up.
@pytest.mark.parametrize("admitted, rejected", [("128", "129"), (",".join("1" * 10), ",".join("1" * 11)), ("7,7", "8,7")])
def test_incl_excl_cap_admits_within_budget_and_rejects_fast(admitted, rejected, capsys):
    start = time.perf_counter()
    code, env = run_json(["markov", "incl-excl", "--dims", admitted, "--matrix-cap", "64"])
    assert code == 0 and env["report"]["passed"]
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    assert run_cli(["markov", "incl-excl", "--dims", rejected, "--matrix-cap", "64"])[0] == 2
    assert time.perf_counter() - start < 0.5
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["64,64", "16,16,16"])
def test_incl_excl_default_cap_rejects_large_products_fast(dims, capsys):
    start = time.perf_counter()
    assert run_cli(["markov", "incl-excl", "--dims", dims])[0] == 2
    assert time.perf_counter() - start < 0.5
    assert "cap exceeded" in capsys.readouterr().err


# Each level's work is admitted before any level runs: the grouping engine
# charges the atoms its level multisets store, n * C(d+n-1, n) for level n,
# as a running sum that refuses at the first level past the cap, and fock-set
# charges its selections, C(T+m, m) - 1 for T level atoms, refused first by
# the bound 2^min(a, b) <= C(a+b, b) where computing them would be slow.
# Every named group admits its degree before it builds a generator.
# Each of the last ten rows once ran, or took seconds before it refused.
@pytest.mark.parametrize(
    "argv, err",
    [
        ("fock-set --k 2 --max-m 4 --atoms 20", "84957250 level multisets up to level 4 exceed the cap 10000000"),
        ("vproste --atoms 3162 --max-level 2",
         "10004568 atoms in the multisets up to level 2 of 3162 atoms exceed the cap 10000000"),
        ("girsanov --atoms 300 --n 2",
         "1377255900 atoms in the multisets up to level 4 of 300 atoms exceed the cap 10000000"),
        ("fock-set --k 200000 --max-m 2 --atoms 1", "at least 60206 digits of the level 2 formula exceed the cap 4300"),
        ("fock-set --k 20000 --max-m 2 --atoms 1", "at least 6021 digits of the level 2 formula exceed the cap 4300"),
        ("vproste --atoms 1 --max-level 1000000",
         "10001628 atoms in the multisets up to level 4472 of 1 atoms exceed the cap 10000000"),
        ("fock-set --k 1 --max-m 6000 --atoms 1",
         "10001628 atoms in the multisets up to level 4472 of 1 atoms exceed the cap 10000000"),
        ("translate-singular --atoms 1 --n 100000000 --m 1",
         "100000000 atoms in the multisets up to level 100000000 of 1 atoms exceed the cap 10000000"),
        ("girsanov --atoms 1 --n 100000000",
         "100000001 atoms in the multisets up to level 100000000 of 1 atoms exceed the cap 10000000"),
        ("multiplicity --atoms 1 --power 30000000 --group trivial", "30000000 permuted points exceed the cap 8"),
        ("multiplicity --atoms 1 --power 30000000 --group symmetric", "30000000 permuted points exceed the cap 8"),
        ("vproste --atoms 3 --max-level 10000000",
         "10394520 atoms in the multisets up to level 94 of 3 atoms exceed the cap 10000000"),
        ("vproste --atoms 1 --max-level 100000000",
         "10001628 atoms in the multisets up to level 4472 of 1 atoms exceed the cap 10000000"),
        ("girsanov --atoms 3 --n 5000000",
         "62500037500005000003 atoms in the multisets up to level 5000000 of 3 atoms exceed the cap 10000000"),
        ("fock-set --k 2 --max-m 240 --atoms 2",
         "10000900 atoms in the multisets up to level 390 of 2 atoms exceed the cap 10000000"),
        ("fock-set --k 2 --max-m 56 --atoms 3", "61474518 level multisets up to level 56 exceed the cap 10000000"),
        ("translate-singular --atoms 4000 --n 2 --m 1",
         "16004000 atoms in the multisets up to level 2 of 4000 atoms exceed the cap 10000000"),
        ("krot --k 1 --m 10000000 --atoms 3", "10000000 permuted points exceed the cap 8"),
        ("krot --k 200000 --m 1 --atoms 200000", "200000 permuted points exceed the cap 8"),
        ("fock-set --k 2 --max-m 1000000 --atoms 1000",
         "at least 33554431 level multisets up to level 1000000 exceed the cap 10000000"),
        ("multiplicity --atoms 1 --power 30000000 --group cyclic", "30000000 permuted points exceed the cap 8"),
    ],
)
def test_level_caps_reject_before_any_level_runs(argv, err, capsys):
    start = time.perf_counter()
    assert run_cli(argv.split()) == (2, "")
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == f"cap exceeded: {err}\n"


# A refused amount too long to read shows as the power of two below it.  Written
# out whole, these would pass the int-to-str digit limit and raise ValueError,
# reported as "input error:" instead of a refusal.
@pytest.mark.parametrize(
    "argv, err",
    [
        ("translate-singular --atoms 8000 --n 8000 --m 1".split(),
         "2^16004 or more atoms in the multisets up to level 8000 of 8000 atoms exceed the cap 10000000"),
        (["markov", "incl-excl", "--dims", ",".join(["1"] * 15000)],
         "2^15013 or more dense entries exceed the cap 1048576"),
    ],
    ids=["translate-singular", "incl-excl"],
)
def test_a_refused_amount_past_the_digit_limit_shows_as_a_bound(argv, err, capsys):
    start = time.perf_counter()
    assert run_cli(argv) == (2, "")
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == f"cap exceeded: {err}\n"


def test_the_engine_charge_admits_what_the_tuple_charge_refused():
    # 30 + 2 * 465 + 3 * 4960 + 4 * 40920 + 5 * 278256 = 1570800 stored atoms; 30^5 tuples were refused
    code, env = run_json("vproste --atoms 30 --max-level 5".split())
    assert code == 0 and env["report"]["levels"] == dict.fromkeys(map(str, range(1, 6)), True)


def test_largest_one_atom_simplicity_run_finishes_and_the_next_is_refused(capsys):
    # 4471 * 4472 / 2 <= 10^7 < 4472 * 4473 / 2
    start = time.perf_counter()
    code, env = run_json("vproste --atoms 1 --max-level 4471".split())
    assert time.perf_counter() - start < 10.0
    assert code == 0 and len(env["report"]["levels"]) == 4471
    start = time.perf_counter()
    assert run_cli("vproste --atoms 1 --max-level 4472".split()) == (2, "")
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.startswith("cap exceeded: 10001628 atoms")


# The reported integers must fit the int-to-str digit limit (4300 by default).
# The first three are refused by a lower bound before any factorial is computed.
@pytest.mark.parametrize(
    "argv",
    [
        "--k 1000 --m 1000 --n 2",
        "--k 1 --m 2 --n 100000000",
        "--k 1 --m 2 --n 14285",
        "--k 30 --m 100 --n 2",
        "--k 1 --m 3 --n 5526",
    ],
)
def test_cs_criterion_refuses_unprintable_integers_fast(argv, capsys):
    start = time.perf_counter()
    assert run_cli(["cs-criterion", *argv.split()]) == (2, "")
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: ") and "digits of the" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, digits",
    [("--k 1 --m 3 --n 5525", 4300), ("--k 1 --m 2 --n 14284", 4300), ("--k 20 --m 70 --n 2", 2512)],
)
def test_cs_criterion_prints_up_to_the_digit_limit(argv, digits):
    code, env = run_json(["cs-criterion", *argv.split()])
    k, m, n = (env["params"][key] for key in "kmn")
    report = env["report"]
    assert code in (0, 1) and report["group_order"] == math.factorial(m) ** n
    assert report["tensor_multiplicity"] == math.factorial(m * k) // math.factorial(k) ** m
    assert max(len(str(report[key])) for key in ("group_order", "tensor_multiplicity")) == digits


def test_json_output_is_deterministic():
    args = ["markov", "round-trip", "--count", "8", "--seed", "3"]
    assert run_cli(args) == run_cli(args)
    args = ["krot", "--k", "1", "--m", "2"]
    assert run_cli(args) == run_cli(args)


def test_table_format_renders():
    code, out = run_cli(["krot", "--k", "1", "--m", "2", "--format", "table"])
    assert code == 0
    assert "generic_value: 2" in out
    assert out.startswith("command: krot")
    code, out = run_cli(
        ["multiplicity", "--atoms", "3", "--power", "2", "--format", "table"]
    )
    assert code == 0
    assert "eigenvalue" in out and "generic value" in out


# sha256 of `multiplicity` stdout as printed from fully decoded, eigenvalue-sorted
# fibers.  Reports hold packed keys and decode `entries` and `degenerate` on first
# read, sorted by eigenvalue, so what they print must not move.
ROTATIONS = (
    '{"atoms":[{"weight":"1/4","rational":"0","generic":{}},{"weight":"1/4","rational":"1/2","generic":{}},'
    '{"weight":"1/4","rational":"3/4","generic":{}},{"weight":"1/4","rational":"1/3","generic":{"0":1}}]}'
)
MULTIPLICITY_STDOUT = {
    ("--atoms 4 --power 3 --group symmetric", "json"): (
        "72d891ae6f8f49d89a62ff4cd1cc5b758391734b43b0bb611308e60f37693f3f"
    ),
    ("--atoms 4 --power 3 --group symmetric", "table"): (
        "a67975997d8bc8cff268c647339c633a3aab8285bab9f94368a5315e957ac3a4"
    ),
    ("--atoms 4 --power 3 --group cyclic", "json"): (
        "419491441586d0aa25a1269d0f8d606eaa8158571c71afbbc4d4c9f16f34e03f"
    ),
    ("--atoms 4 --power 3 --group cyclic", "table"): (
        "c5ea5a55b2ab87f5f85854d54df15931d193a8e81ce7abfad5f7e797f911b835"
    ),
    ("--measure relation.json --power 2 --group symmetric", "json"): (
        "c233851f2cf2a48d8866a7290087f1ce28a1420a6a5460328648a9f3ff4c1abe"
    ),
    ("--measure relation.json --power 2 --group symmetric", "table"): (
        "a1a05a2a16ed9589ceef90cb922822e9c85fb5fadcde24b05243d49279d6ea00"
    ),
    ("--measure relation.json --power 3 --group cyclic", "json"): (
        "a7d5a25029a096eb8b6812e4ba3b483443c5d5709af7700918bb94c72381556c"
    ),
    ("--measure relation.json --power 3 --group cyclic", "table"): (
        "de338c540f684d1d8e28419371b2a753e96064c4c9831a2774fd513f8ff39b4e"
    ),
    ("--measure rotations.json --power 3 --group symmetric", "json"): (
        "5fa6f107c92ecb5add32065e0853cab17e94c1340750f0cd0d7ef54ce76bfca7"
    ),
    ("--measure rotations.json --power 3 --group symmetric", "table"): (
        "06ea4eb3ede42fd5a980f5e907511feed61d39e48e5e029baf1c9465cb054ddc"
    ),
}


@pytest.mark.parametrize("row", sorted(MULTIPLICITY_STDOUT), ids=" ".join)
def test_multiplicity_stdout_is_byte_identical_to_the_decoded_reference(row, tmp_path, monkeypatch):
    # relation.json has a doubled fiber and squares; rotations.json meets modulo 1.
    args, fmt = row
    monkeypatch.chdir(tmp_path)
    (tmp_path / "relation.json").write_text(measure_to_json(designed_relation_measure()), encoding="utf-8")
    (tmp_path / "rotations.json").write_text(ROTATIONS, encoding="utf-8")
    code, out = run_cli(["multiplicity", *args.split(), "--format", fmt])
    assert code == 0 and "degenerate" in out
    assert hashlib.sha256(out.encode()).hexdigest() == MULTIPLICITY_STDOUT[args, fmt]


@pytest.mark.parametrize("power", ["0", "-1"])
@pytest.mark.parametrize("group", [["--group", "symmetric"], ["--group", "[[0]]"]])
def test_non_positive_power_is_exit_2_before_any_group_is_built(power, group, capsys):
    assert main(["multiplicity", "--atoms", "3", "--power", power, *group]) == 2
    assert f"power must be an int >= 1, got {power}" in capsys.readouterr().err


def test_empty_generator_list_is_the_trivial_group():
    reports = [run_json(["multiplicity", "--atoms", "3", "--power", "2", "--group", g]) for g in ("[]", "trivial")]
    assert reports[0][0] == reports[1][0] == 0
    assert reports[0][1]["report"] == reports[1][1]["report"]


@pytest.mark.parametrize("gens", ["[1]", '[["a",0]]', "[[1.0,0.0]]", "[[true,false]]", "[[]]", "{}"])
def test_malformed_gens_is_exit_2(gens, capsys):
    assert main(["multiplicity", "--atoms", "3", "--power", "2", "--group", gens]) == 2
    assert "input error" in capsys.readouterr().err


TUPLE_CAP = {"tuple_cap": 10000000}
MATRIX_CAP = {"matrix_cap": 4096}


@pytest.mark.parametrize(
    "command, required, params",
    [
        (["multiplicity"], ["--power", "2"], {**TUPLE_CAP, "group": "symmetric", "power": 2}),
        (["krot"], ["--k", "1", "--m", "2"], {**TUPLE_CAP, **MATRIX_CAP, "k": 1, "m": 2}),
        (["sym-krot"], ["--k", "1", "--m", "2"], {**TUPLE_CAP, **MATRIX_CAP, "k": 1, "m": 2}),
        (["fock-set"], [], {**TUPLE_CAP, "atoms": 8, "k": 2, "max_m": 4}),
        (["cs-criterion"], ["--k", "1", "--m", "2", "--n", "2"], {"k": 1, "m": 2, "n": 2}),
        (["cs-min-m"], ["--k", "1"], {"k": 1}),
        (["translate-singular"], ["--n", "1", "--m", "2"], {**TUPLE_CAP, "m": 2, "n": 1, "shift": "fresh"}),
        (["nonsimple"], [], {**TUPLE_CAP, "shift": "fresh"}),
        (["girsanov"], [], {**TUPLE_CAP, "n": 2}),
        (["vproste"], [], {**TUPLE_CAP, "max_level": 4}),
        (["relations"], [], {**TUPLE_CAP, "degree": 4}),
        (["markov", "round-trip"], [], {"count": 50}),
        (["markov", "lm-kk"], [], {"count": 3, "n": 2}),
        (["markov", "incl-excl"], [], {**MATRIX_CAP, "dims": "2,2"}),
        (["suite"], [], {**TUPLE_CAP, **MATRIX_CAP}),
    ],
)
def test_leaf_parser_defaults_and_help(command, required, params, capsys):
    args = build_parser().parse_args(command + required)
    assert _params(args) == params
    assert (args.command, args.format, args.seed) == (" ".join(command), "json", 0)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(command + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: circlespec {' '.join(command)} ")


# One small runnable argv per leaf; the handler must read every option the
# leaf takes, apart from those the envelope reads.
LEAF_ARGV = [
    "multiplicity --atoms 2 --power 2",
    "krot --k 1 --m 2",
    "sym-krot --k 1 --m 2",
    "fock-set --k 1 --max-m 2 --atoms 3",
    "cs-criterion --k 1 --m 2 --n 2",
    "cs-min-m --k 1",
    "translate-singular --n 1 --m 2",
    "nonsimple",
    "girsanov",
    "vproste --atoms 2 --max-level 2",
    "relations --atoms 3 --degree 2",
    "markov round-trip --count 1",
    "markov lm-kk --n 1 --count 1",
    "markov incl-excl --dims 2",
    "suite",
]


@pytest.mark.parametrize("argv", LEAF_ARGV)
def test_every_leaf_option_is_read_by_its_handler(argv):
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv.split(), namespace=RecordingNamespace())
    reads.clear()
    args.func(args)
    unread = set(vars(args)) - reads - {"func", "command", "format", "seed"}
    assert not unread, f"{argv}: options never read: {sorted(unread)}"


# A leaf refuses a cap flag or --seed that its handler does not read.
@pytest.mark.parametrize(
    "argv", ["fock-set --matrix-cap 5", "cs-min-m --k 1 --tuple-cap 5", "krot --k 1 --m 2 --seed 3"]
)
def test_cap_flag_on_a_leaf_that_ignores_it_is_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Each term of the cs-min-m sequence is admitted like cs-criterion's
# integers, so a large k exits 2 at the first term past the digit limit.
@pytest.mark.parametrize("k", [100, 300, 2000])
def test_cs_min_m_refuses_unprintable_terms_fast(k, capsys):
    start = time.perf_counter()
    assert run_cli(["cs-min-m", "--k", str(k)]) == (2, "")
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: ") and "digits of the" in err and "Traceback" not in err


DEEP_JSON = "[" * 100_000


# krot and sym-krot act with a block group of degree km, which is admitted
# before any level is counted or any factorial of km is taken.
@pytest.mark.parametrize("command", ["krot", "sym-krot"])
def test_power_checks_refuse_the_group_degree_before_the_levels_run(command, capsys):
    start = time.perf_counter()
    assert run_cli([command, "--k", "200000", "--m", "2", "--atoms", "1"]) == (2, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "cap exceeded: 400000 permuted points exceed the cap 8\n"


def test_fock_set_refuses_a_printed_formula_by_its_exact_digits(capsys):
    # 2^7999 <= 16000!/((8000!)^2 2!): the lower bound admits 2408 digits, the formula has 4814
    assert run_cli("fock-set --k 8000 --max-m 2 --atoms 1".split()) == (2, "")
    assert capsys.readouterr().err == "cap exceeded: 4814 digits of the level 2 formula exceed the cap 4300\n"


# One row per parser the CLI reaches, each given input it must refuse: the
# point grammar and its fractions, the measure file, the --group JSON and
# the dimension list.
@pytest.mark.parametrize(
    "argv, measure_text",
    [
        (["translate-singular", "--n", "1", "--m", "1", "--shift", "1/0"], None),
        (["nonsimple", "--shift", "g0^1 * 1/0"], None),
        (["translate-singular", "--n", "1", "--m", "1", "--shift", "g١^1"], None),
        (["nonsimple", "--shift=-1/3"], None),
        (["vproste", "--measure"], '{"atoms": [{"weight": "1", "rational": "0", "generic": {"١": 1}}]}'),
        (["relations", "--measure"], '{"atoms": [{"weight": "1", "rational": "0", "generic": {"0": 0}}]}'),
        (["multiplicity", "--power", "2", "--measure"], DEEP_JSON),
        (["multiplicity", "--atoms", "2", "--power", "2", "--group", DEEP_JSON], None),
        (["markov", "incl-excl", "--dims", ","], None),
        (["markov", "incl-excl", "--dims", "2,,3"], None),
        (["markov", "incl-excl", "--dims", "2,"], None),
        (["markov", "incl-excl", "--dims", ",2"], None),
    ],
    ids=["zero-denominator", "zero-denominator-factor", "non-ascii-index", "signed-rational",
         "non-ascii-measure-key", "zero-exponent", "deep-measure-json", "deep-gens-json", "empty-dims",
         "empty-inner-dim", "empty-last-dim", "empty-first-dim"],
)
def test_malformed_input_is_exit_2_without_traceback(argv, measure_text, tmp_path, capsys):
    if measure_text is not None:
        path = tmp_path / "measure.json"
        path.write_text(measure_text, encoding="utf-8")
        argv = [*argv, str(path)]
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


# A cap counts what may run: 0 refuses everything, a negative value is no cap.
@pytest.mark.parametrize(
    "argv",
    [
        "krot --k 1 --m 2 --matrix-cap -5",
        "markov incl-excl --matrix-cap -1",
        "multiplicity --atoms 3 --power 2 --tuple-cap -1",
        "suite --tuple-cap -1",
    ],
)
def test_a_negative_cap_is_an_input_error_naming_its_flag(argv, capsys):
    flag = next(token for token in argv.split() if token.endswith("-cap"))
    with pytest.raises(SystemExit) as exc:
        run_cli(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"argument {flag}: invalid cap value" in err


def test_a_zero_cap_is_a_cap():
    code, env = run_json("krot --k 1 --m 2 --matrix-cap 0".split())
    assert code == 0 and env["params"]["matrix_cap"] == 0 and env["report"]["matrix_route"] == {"ran": False}


# int() reads "1_0" as 10 and the digits of other scripts ("٣", "２") as
# their values; integer flags and the dimension list take ASCII digits only.
@pytest.mark.parametrize(
    "argv",
    [
        "vproste --atoms ٣",
        "krot --k 1_0 --m 2",
        "cs-criterion --k 1_0 --m 2 --n 2",
        "markov incl-excl --dims ٢,3",
        "markov incl-excl --dims 2,٣",
        "multiplicity --atoms 2 --power ２",
        "cs-min-m --k +2",
        "markov round-trip --count 1 --seed ٠",
    ],
)
def test_integers_take_ascii_digits_only(argv, capsys):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse rejects a flag's value this way
            code = exc.code
    assert (code, buf.getvalue()) == (2, "")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "invalid integer value" in err or "not an integer in ASCII digits" in err
