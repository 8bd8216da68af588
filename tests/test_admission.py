"""Every enumeration is admitted through `errors.admit`, before it starts.

Each site charges an exact amount against one limit: at limit = amount it
runs, one below it refuses with "<what> exceed the cap <limit>".
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import circlespec
from circlespec import permgroup
from circlespec.circle import CirclePoint
from circlespec.errors import Caps, EnumerationCapError
from circlespec.markov import inclusion_exclusion_identity
from circlespec.measure import generic_measure, relation_scan
from circlespec.permgroup import PermSubgroup, closure, orbit_count_free
from circlespec.spectral import (
    check_simplicity_levels,
    check_symmetric_power,
    check_tensor_power,
    check_translate_singularity,
    fibers,
    fock_multiplicity_set,
    girsanov_step,
    matrix_oracle,
    nonsimple_counterexample,
    simple_spectrum,
)


def _closure_up_to(degree_cap):
    with mock.patch.object(permgroup, "DEFAULT_DEGREE_CAP", degree_cap):
        return closure(3, ())


# site -> (amount it charges, call with the limit)
SITES = {
    "fibers": (3**2, lambda cap: fibers(generic_measure(3), 2, tuple_cap=cap)),
    "simple spectrum": (3**2, lambda cap: simple_spectrum(generic_measure(3), 2, cap)),
    # tau has 4 atoms; the relation scan of the 2-atom base charges 2 + 1 * 2
    "nonsimple tau level 2": (
        4**2,
        lambda cap: nonsimple_counterexample(generic_measure(2), CirclePoint.generator(2), cap),
    ),
    "simplicity top level": (3**3, lambda cap: check_simplicity_levels(generic_measure(3), 3, cap)),
    "girsanov level 2n": (2**4, lambda cap: girsanov_step(generic_measure(2), 2, cap)),
    "matrix oracle": (
        3**2,
        lambda cap: matrix_oracle(generic_measure(3), 2, PermSubgroup.symmetric(2), matrix_cap=cap),
    ),
    "tensor level tuples": (4**2, lambda cap: check_tensor_power(1, 2, 4, Caps(tuples=cap))),
    "symmetric level multisets": (10, lambda cap: check_symmetric_power(1, 2, 4, Caps(tuples=cap))),
    "fock top level multisets": (10, lambda cap: fock_multiplicity_set(1, 2, 4, cap)),
    "convolution atoms": (
        6,
        lambda cap: check_translate_singularity(generic_measure(3), 2, 1, CirclePoint.identity(), cap),
    ),
    "relation scan": (3 + 3 * 2, lambda cap: relation_scan(generic_measure(3), 2, cap)),
    "group degree": (3, _closure_up_to),
    "orbit enumeration": (6 * 6, lambda cap: orbit_count_free(PermSubgroup.symmetric(3), cap)),
}


@pytest.mark.parametrize("site", SITES)
def test_site_runs_at_its_amount_and_refuses_one_below(site):
    asked, run = SITES[site]
    run(asked)
    with pytest.raises(EnumerationCapError, match=rf"^.* exceed the cap {asked - 1}$"):
        run(asked - 1)


def test_incl_excl_charges_256_times_the_matrix_cap():
    # dims [16]: (2^1 - 1) * 1 * 16^2 = 256 dense entries
    assert inclusion_exclusion_identity([16], None, 1)["passed"]
    with pytest.raises(EnumerationCapError, match=r"^256 dense entries exceed the cap 0$"):
        inclusion_exclusion_identity([16], None, 0)


def test_power_routes_are_marked_by_their_own_admission():
    assert check_tensor_power(1, 2, 4, Caps(matrix=15))["matrix_route"] == {"ran": False}
    assert check_tensor_power(1, 2, 4, Caps(matrix=16))["matrix_route"]["ran"] is True
    # k = 2, m = 2, d = 4: 10^2 level tuples, 4^4 tuples for the orbit route
    assert check_tensor_power(2, 2, 4, Caps(tuples=255))["orbit_route"] == {"ran": False}
    assert check_tensor_power(2, 2, 4, Caps(tuples=256))["orbit_route"]["ran"] is True


def test_caps_are_the_two_user_set_limits():
    assert [(f.name, f.default) for f in dataclasses.fields(Caps)] == [("tuples", 10**7), ("matrix", 4096)]


def _cap_error_owners(tree):
    """Names of the functions that construct or raise EnumerationCapError."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            target = child.func if isinstance(child, ast.Call) else child.exc if isinstance(child, ast.Raise) else None
            if getattr(target, "id", getattr(target, "attr", None)) == "EnumerationCapError":
                owners.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_cap_errors_are_made_only_by_admit():
    """cs-min-m's "no m <= m_cap found" is the end of a search, not an admission."""
    src = Path(circlespec.__file__).parent
    owners = [
        f"{path.stem}.{owner}"
        for path in sorted(src.glob("*.py"))
        for owner in _cap_error_owners(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(owners) == ["cli._cmd_cs_min_m", "errors.admit"]


def _codec_constructors(tree):
    """Names of the functions that construct a _PackedCodec."""
    return [
        owner.name
        for owner in ast.walk(tree)
        if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(owner)
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_PackedCodec"
    ]


def test_each_engine_packs_its_own_multisets_once():
    """One packing per engine: the level counts read their totals from the
    grouping engine instead of building a codec of their own."""
    src = Path(circlespec.__file__).parent
    constructors = [
        f"{path.stem}.{owner}"
        for path in sorted(src.glob("*.py"))
        for owner in _codec_constructors(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(constructors) == ["measure._packed_fold", "measure.relation_scan", "spectral._group_by_product"]


def test_only_circle_knows_the_codec_layout():
    """Outside `circle.py` a codec is read through its keys, its products, its
    modulus and generic base M, and its decoders; where each digit sits stays in
    `circle.py`."""
    public = {"key", "product", "modulus", "M", "sort_key", "point", "ordered"}
    src = Path(circlespec.__file__).parent
    reads = [
        f"{path.stem}:{node.lineno} codec.{node.attr}"
        for path in sorted(src.glob("*.py"))
        if path.name != "circle.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "codec" and node.attr not in public
    ]
    assert reads == []


def test_each_report_groups_its_levels_in_one_call():
    """Every level a report reads comes from one `_group_by_product` call, under
    one codec: no function calls it twice, and no engine takes a codec power."""
    tree = ast.parse((Path(circlespec.__file__).parent / "spectral.py").read_text(encoding="utf-8"))
    engines = ("_group_by_product", "_level_counts")
    calls = {
        owner.name: [c for c in ast.walk(owner) if isinstance(c, ast.Call) and getattr(c.func, "id", None) in engines]
        for owner in ast.walk(tree)
        if isinstance(owner, ast.FunctionDef)
    }
    grouping = {name: sum(c.func.id == "_group_by_product" for c in cs) for name, cs in calls.items()}
    assert {name: n for name, n in grouping.items() if n > 1} == {}
    readers = {"check_simplicity_levels", "check_translate_singularity", "girsanov_step", "_level_counts"}
    assert readers <= {name for name, n in grouping.items() if n}
    assert "power" not in {kw.arg for cs in calls.values() for c in cs for kw in c.keywords}
    definitions = {node.name: node.args for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert all("power" not in [a.arg for a in definitions[name].args + definitions[name].kwonlyargs] for name in engines)


def test_markov_scales_to_integers_in_one_helper():
    """Every check and derivation in `markov` scales its Fractions to integer
    numerators through `_integer_row`, the only caller of `math.lcm` there."""
    tree = ast.parse((Path(circlespec.__file__).parent / "markov.py").read_text(encoding="utf-8"))

    def is_lcm(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lcm"

    owners = [
        owner.name
        for owner in ast.walk(tree)
        if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(owner)
        if is_lcm(call)
    ]
    assert owners == ["_integer_row"]
    assert sum(map(is_lcm, ast.walk(tree))) == 1


def test_rank_takes_integer_rows_as_they_are():
    """`linalg.rank` scales no row into integers and divides out no content:
    it names neither `Fraction` nor `lcm`, and each `gcd` it takes is of
    two leading entries, never of a whole row."""
    tree = ast.parse((Path(circlespec.__file__).parent / "linalg.py").read_text(encoding="utf-8"))
    (rank,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "rank"]
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(rank)}
    assert not names & {"Fraction", "lcm"}
    gcds = [node for node in ast.walk(rank) if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "gcd"]
    assert gcds and all(len(call.args) == 2 and not any(isinstance(x, ast.Starred) for x in call.args) for call in gcds)


def test_markov_derivations_build_no_fraction():
    """The six derivations of `markov` work on integer numerators: none names
    `Fraction`, or reads a Fraction view (`joint`, `matrix`, `probs`), whose
    first read builds Fractions."""
    tree = ast.parse((Path(circlespec.__file__).parent / "markov.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    derivations = ("markov_from_coupling", "coupling_from_markov", "marginal_coupling", "rel_indep_extension",
                   "_factored_expectation", "project_markov")
    fraction_names = {"Fraction", "_fractions", "joint", "matrix", "probs"}
    named = {
        name: {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(functions[name])} & fraction_names
        for name in derivations
    }
    assert named == dict.fromkeys(derivations, set())


def test_each_multiplicity_route_names_none_of_the_other_routes_inputs():
    """The rank route names neither the orbit route's description of the
    group (`elements`) nor its pattern counting (`_pattern`, `_orbit_counts`);
    the orbit route names no `linalg`.  Neither can borrow the other's answer."""
    tree = ast.parse((Path(circlespec.__file__).parent / "spectral.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def names(function):
        return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(functions[function])}

    assert names("matrix_oracle").isdisjoint({"_pattern", "_orbit_counts", "elements"})
    assert "linalg" not in names("multiplicity")
    assert {"generators", "linalg"} <= names("matrix_oracle") and {"_pattern", "elements"} <= names("multiplicity")


def _accumulators(tree):
    """Lines of `x = x and ...`: a verdict restated in a second variable."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.BoolOp):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            first = node.value.values[0]
            if isinstance(node.value.op, ast.And) and isinstance(first, ast.Name) and first.id in names:
                sites.append(node.lineno)
    return sites


def test_each_verdict_is_one_expression_over_its_report():
    """No verdict accumulates as `ok = ok and ...` beside the rows it checks:
    each reads the fields its report prints, so the two cannot disagree."""
    src = Path(circlespec.__file__).parent
    sites = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _accumulators(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == []


# Functions that no `src` code names, each with the reason it stays.
NAMED_ONLY_OUTSIDE_SRC = {
    "circle.is_rational": "read by bench/workloads.py",
    "linalg.mat_mul": "wrapped by name in bench/spans.py",
    "measure.convolve": "wrapped by name in bench/spans.py",
    "measure.convolve_power": "public API that the tests use",
    "measure.delta": "public API that the tests use",
    "measure.mass": "public API that the tests use",
}


def _named(tree):
    """Every name that `tree` reads, takes as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_src_function_is_named_elsewhere_in_src():
    """A dead-code ratchet: every function defined in `src` is named in `src`
    outside its own body (a call, an attribute read, a re-export in `__init__`,
    an entry in the CLI table), or is on the list above with its reason.
    Dunder methods run by syntax and are left out."""
    src = Path(circlespec.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _named(tree))
    unnamed = {
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == Counter(_named(node))[node.name]
    }
    assert unnamed == set(NAMED_ONLY_OUTSIDE_SRC)
