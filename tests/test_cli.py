import argparse
import io
import json
import math
import random
import time
from contextlib import redirect_stdout

import pytest

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


def test_cs_criterion_failure_is_exit_1():
    code, env = run_json(["cs-criterion", "--k", "2", "--m", "2", "--n", "2"])
    assert code == 1
    assert env["passed"] is False


def test_cs_min_m_reference_output():
    code, env = run_json(["cs-min-m", "--k", "1"])
    assert code == 0
    assert env["report"]["m"] == 2
    assert env["report"]["sequence"] == ["1", "2"]


def test_cs_min_m_cap_is_exit_2(capsys):
    assert main(["cs-min-m", "--k", "3", "--m-cap", "3"]) == 2
    assert "cap" in capsys.readouterr().err


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
        ["multiplicity", "--atoms", "3", "--power", "2", "--gens", "[[1,0]]"]
    )
    assert code == 0
    assert env["report"]["group"]["order"] == 2


def test_malformed_measure_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": [{"weight": "1/2"}]}', encoding="utf-8")
    assert main(["multiplicity", "--measure", str(path), "--power", "2"]) == 2
    assert "measure format" in capsys.readouterr().err


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["vproste", "--measure", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


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


# The top level's cap is checked before any level runs: the lower levels of
# these inputs are admitted and would take seconds before the top one fails.
@pytest.mark.parametrize(
    "argv, err",
    [
        ("fock-set --k 2 --max-m 4 --atoms 20", "83369265 level multisets exceed the cap 10000000"),
        ("vproste --atoms 30 --max-level 5", "30^5 tuples exceed the cap 10000000"),
        ("girsanov --atoms 300 --n 2", "300^4 tuples exceed the cap 10000000"),
        ("fock-set --k 200000 --max-m 2 --atoms 1", "at least 60206 digits of the level 2 formula exceed the cap 4300"),
        ("fock-set --k 20000 --max-m 2 --atoms 1", "at least 6021 digits of the level 2 formula exceed the cap 4300"),
    ],
)
def test_level_caps_reject_before_any_level_runs(argv, err, capsys):
    start = time.perf_counter()
    assert run_cli(argv.split()) == (2, "")
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == f"cap exceeded: {err}\n"


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


@pytest.mark.parametrize("power", ["0", "-1"])
@pytest.mark.parametrize("group", [["--group", "symmetric"], ["--gens", "[[0]]"]])
def test_non_positive_power_is_exit_2_before_any_group_is_built(power, group, capsys):
    assert main(["multiplicity", "--atoms", "3", "--power", power, *group]) == 2
    assert f"power must be an int >= 1, got {power}" in capsys.readouterr().err


@pytest.mark.parametrize("gens", ["[1]", '[["a",0]]', "[[1.0,0.0]]", "[[true,false]]"])
def test_malformed_gens_is_exit_2(gens, capsys):
    assert main(["multiplicity", "--atoms", "3", "--power", "2", "--gens", gens]) == 2
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
        (["cs-min-m"], ["--k", "1"], {"k": 1, "m_cap": 64}),
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
# point grammar and its fractions, the measure file, the --gens JSON and
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
        (["multiplicity", "--atoms", "2", "--power", "2", "--gens", DEEP_JSON], None),
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
