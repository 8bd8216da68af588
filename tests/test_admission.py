"""Every enumeration is admitted through `errors.admit`, before it starts.

Each site charges an exact amount against one limit: at limit = amount it
runs, one below it refuses with "<what> exceed the cap <limit>".
"""

import ast
import inspect
import math
from pathlib import Path
from unittest import mock

import pytest

import circlespec
from circlespec import cli, permgroup, spectral
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


# site -> (amount it charges, call with the limit).  The grouping engine charges
# the atom indices it stores, n * C(d+n-1, n) summed over its levels; at these
# small inputs that charge binds for every caller of it but the selection rows.
SITES = {
    # 2 * C(4, 2) stored atoms bind over the 3^2 tuples that `fibers` charges first
    "fibers": (2 * 6, lambda cap: fibers(generic_measure(3), 2, tuple_cap=cap)),
    "simple spectrum": (2 * 6, lambda cap: simple_spectrum(generic_measure(3), 2, cap)),
    # tau has 4 atoms; the relation scan of the 2-atom base charges 2 + 1 * 2
    "nonsimple tau level 2": (
        2 * 10,
        lambda cap: nonsimple_counterexample(generic_measure(2), CirclePoint.generator(2), cap),
    ),
    "simplicity top level": (1 * 3 + 2 * 6 + 3 * 10, lambda cap: check_simplicity_levels(generic_measure(3), 3, cap)),
    # one atom: one multiset of n atoms per level n
    "simplicity one atom": (1 + 2 + 3 + 4, lambda cap: check_simplicity_levels(generic_measure(1), 4, cap)),
    # levels 1, 2 and 4 of 2 atoms
    "girsanov level 2n": (1 * 2 + 2 * 3 + 4 * 5, lambda cap: girsanov_step(generic_measure(2), 2, cap)),
    # the rank route's own 3^2 rows: its fibers run on the tuple cap
    "matrix oracle": (
        3**2,
        lambda cap: matrix_oracle(generic_measure(3), 2, PermSubgroup.symmetric(2), matrix_cap=cap),
    ),
    # level 2 of 4 atoms, 2 * C(5, 2), over the 4^2 level tuples and the C(5, 2) level multisets
    "tensor level tuples": (2 * 10, lambda cap: check_tensor_power(1, 2, 4, Caps(tuples=cap))),
    "symmetric level multisets": (2 * 10, lambda cap: check_symmetric_power(1, 2, 4, Caps(tuples=cap))),
    # levels 1 and 2 of 4 atoms, over the C(4+2, 2) - 1 = 14 selections
    "fock top level multisets": (1 * 4 + 2 * 10, lambda cap: fock_multiplicity_set(1, 2, 4, cap)),
    # k = 2, m = 3: T = C(d+1, 2) level atoms, so the selections bind over the level-6 atoms
    "tensor selections": (36**3, lambda cap: check_tensor_power(2, 3, 8, Caps(tuples=cap))),  # 6 * C(13, 6) = 10296
    "symmetric selections": (
        math.comb(80, 3),  # 6 * C(17, 6) = 74256
        lambda cap: check_symmetric_power(2, 3, 12, Caps(tuples=cap)),
    ),
    "fock selections": (
        math.comb(81, 3) - 1,  # 2 * C(13, 2) + 4 * C(15, 4) + 6 * C(17, 6) = 79872
        lambda cap: fock_multiplicity_set(2, 3, 12, cap),
    ),
    # levels 2 and 1 of 3 atoms
    "convolution atoms": (
        2 * 6 + 1 * 3,
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


class _Admitted(Exception):
    """Raised in place of the grouping engine's codec: the admission passed."""


# Boundaries of the default cap, 10^7: each first call is admitted and the
# second, one step past it, refused.  The engine's running sum binds at 2 atoms
# (2m * (2m+1) summed over m <= 194: 9848770), for translate and vproste
# (d^2 + 2d), and for vproste and girsanov at 5 levels; the selections
# C(6+m, m) - 1 bind fock-set at 3 atoms (9366818 at m = 40).
BOUNDARIES = {
    "fock-set, 2 atoms, m 194": (lambda: fock_multiplicity_set(2, 194, 2), lambda: fock_multiplicity_set(2, 195, 2)),
    "fock-set, 3 atoms, m 40": (lambda: fock_multiplicity_set(2, 40, 3), lambda: fock_multiplicity_set(2, 41, 3)),
    "translate 3161 atoms": (
        lambda: check_translate_singularity(generic_measure(3161), 2, 1, CirclePoint.identity()),
        lambda: check_translate_singularity(generic_measure(3162), 2, 1, CirclePoint.identity()),
    ),
    "simplicity 3161 atoms": (
        lambda: check_simplicity_levels(generic_measure(3161), 2),
        lambda: check_simplicity_levels(generic_measure(3162), 2),
    ),
    "simplicity 44 atoms, 5 levels": (
        lambda: check_simplicity_levels(generic_measure(44), 5),  # 9322544
        lambda: check_simplicity_levels(generic_measure(45), 5),
    ),
    "girsanov 14 atoms, n 4": (
        lambda: girsanov_step(generic_measure(14), 4),  # 14 + 4 * C(17, 4) + 8 * C(21, 8) = 1637454
        lambda: girsanov_step(generic_measure(14), 5),
    ),
}


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_default_cap_admits_up_to_its_boundary_and_refuses_past_it(boundary):
    admitted, refused = BOUNDARIES[boundary]
    with mock.patch.object(spectral, "_PackedCodec", side_effect=_Admitted):
        with pytest.raises(_Admitted):
            admitted()
        with pytest.raises(EnumerationCapError):
            refused()


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


def test_grouping_callers_leave_admission_to_the_engine():
    """The reports that read only key counts and a few decoded keys charge
    nothing of their own: `_group_by_product` admits the atoms it stores."""
    tree = ast.parse((Path(circlespec.__file__).parent / "spectral.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    callers = ("simple_spectrum", "check_simplicity_levels", "nonsimple_counterexample", "girsanov_step",
               "check_translate_singularity")
    named = {name: {getattr(node, "id", None) for node in ast.walk(functions[name])} & {"admit"} for name in callers}
    assert named == dict.fromkeys(callers, set())
    assert "admit" in {getattr(node, "id", None) for node in ast.walk(functions["_group_by_product"])}


def test_one_search_for_a_shared_product():
    """`_first_nonsimple_fiber` is the only code in spectral.py that looks for a product of
    two or more multisets, a `len(...) > 1` comparison, and the level counts' guard calls it."""
    tree = ast.parse((Path(circlespec.__file__).parent / "spectral.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def shared_product_tests(owner):
        return [
            node
            for node in ast.walk(owner)
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "len"
            and [type(op) for op in node.ops] == [ast.Gt]
            and getattr(node.comparators[0], "value", None) == 1
        ]

    everywhere = shared_product_tests(tree)
    assert len(everywhere) == 1 and everywhere == shared_product_tests(functions["_first_nonsimple_fiber"])
    calls = {getattr(node.func, "id", None) for node in ast.walk(functions["_level_counts"]) if isinstance(node, ast.Call)}
    assert "_first_nonsimple_fiber" in calls


def test_caps_are_the_two_user_set_limits():
    parameters = inspect.signature(Caps).parameters.values()
    assert [(p.name, p.default) for p in parameters] == [("tuples", 10**7), ("matrix", 4096)]
    assert [(name, getattr(Caps, name)) for name in Caps._fields] == [("tuples", 10**7), ("matrix", 4096)]
    assert vars(Caps(5)) == {"tuples": 5, "matrix": 4096}
    with pytest.raises(AttributeError, match="^Caps is immutable$"):
        Caps().tuples = 1


def test_no_src_module_imports_dataclasses():
    """`dataclasses` alone imports `inspect`, `ast`, `dis` and `tokenize`: the
    records are built on `errors.Record` instead, so no process pays for them."""
    src = Path(circlespec.__file__).parent
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses"
    ]
    assert imports == []


def _class_body_names(cls):
    """Names a class body defines or assigns, except the ones it assigns None."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if not (isinstance(node.value, ast.Constant) and node.value.value is None):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (getattr(t, "id", None) for t in targets)


def test_value_equality_is_written_once():
    """`errors.Record` alone writes `==` and `hash` for the value types.  Only
    `CirclePoint` (a hot `==`, a hash computed once) and `_PackedCodec` (equal
    by layout, not by its decode cache) write their own; an unhashable record
    assigns `__hash__ = None`."""
    src = Path(circlespec.__file__).parent
    written = sorted(
        (name, f"{path.stem}.{cls.name}")
        for path in sorted(src.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for name in _class_body_names(cls)
        if name in ("__eq__", "__hash__")
    )
    assert written == [
        ("__eq__", "circle.CirclePoint"),
        ("__eq__", "circle._PackedCodec"),
        ("__eq__", "errors.Record"),
        ("__hash__", "circle.CirclePoint"),
        ("__hash__", "errors.Record"),
    ]


def test_the_cli_cap_flags_are_the_two_caps_fields():
    flags = {flag for _, _, arguments, _ in cli.COMMANDS for flag, _ in arguments if flag.endswith("-cap")}
    assert flags == {"--tuple-cap", "--matrix-cap"}


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
    src = Path(circlespec.__file__).parent
    owners = [
        f"{path.stem}.{owner}"
        for path in sorted(src.glob("*.py"))
        for owner in _cap_error_owners(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert owners == ["errors.admit"]


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
    assert sorted(constructors) == ["measure.relation_scan", "spectral._group_by_product"]


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


def test_markov_reaches_linalg_only_through_kron_and_mat_add():
    """Inclusion-exclusion adds every signed term with `mat_add`: `markov`
    names no other `linalg` function and imports none by name, and `linalg`
    defines no `mat_sub`."""
    src = Path(circlespec.__file__).parent
    tree = ast.parse((src / "markov.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg"
    }
    assert used == {"kron", "mat_add"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "circlespec.linalg"]
    linalg_tree = ast.parse((src / "linalg.py").read_text(encoding="utf-8"))
    assert "mat_sub" not in {node.name for node in ast.walk(linalg_tree) if isinstance(node, ast.FunctionDef)}


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


# Functions that no run-time path reaches, each with the file outside `src`
# that names it and the reason it stays.
UNREACHED_AT_RUN_TIME = {
    "circle.CirclePoint.is_rational": ("bench/workloads.py", "the relation-rank workload checks every constant with it"),
    "linalg.mat_mul": ("bench/spans.py", "the linalg.product span wraps it by name"),
    "measure.AtomicMeasure.convolve": ("bench/spans.py", "the measure.convolve span wraps it by name"),
    "measure.AtomicMeasure.convolve_power": (
        "tests/test_measure.py",
        "the reference for the convolution powers that no engine builds",
    ),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(trees):
    """Every module function as `m.f` and every method as `m.C.f`, mapped to
    its def node."""
    defs = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs[f"{stem}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        defs[f"{stem}.{node.name}.{item.name}"] = item
    return defs


def _module_level(tree):
    """The code that runs at import: all but the function bodies, so class
    bodies, decorators and default values are in."""

    def header(fn):
        return [*fn.decorator_list, *fn.args.defaults, *filter(None, fn.args.kw_defaults)]

    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield from header(node)
        elif isinstance(node, ast.ClassDef):
            yield from (*node.bases, *node.keywords, *node.decorator_list)
            for item in node.body:
                yield from header(item) if isinstance(item, FUNCTIONS) else (item,)
        else:
            yield node


def _unreached(trees):
    """The non-dunder functions of `trees` that no run-time path names.

    Module-level code is reached, and so is every dunder method, which runs
    by syntax; a reached function reaches what its body names.  `m.f`, a bare
    `f` inside module m and `from circlespec.m import f` name `m.f`; `C.f`
    names method f of class C only; any other `x.f` names every method f."""
    defs = _definitions(trees)
    classes, methods = {}, {}
    for name in defs:
        if name.count(".") == 2:
            cls, _, method = name.rpartition(".")
            classes.setdefault(cls.partition(".")[2], set()).add(cls)
            methods.setdefault(method, set()).add(name)
    modules = {  # the `src` modules each module imports as names
        stem: {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "circlespec"
            for alias in node.names
        }
        for stem, tree in trees.items()
    }

    def names(stem, roots):
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    yield f"{stem}.{node.id}"
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("circlespec."):
                    yield from (f"{node.module.partition('.')[2]}.{a.name}" for a in node.names)
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    owner = getattr(base, "id", getattr(base, "attr", None))
                    if isinstance(base, ast.Name) and base.id in modules[stem]:
                        yield f"{base.id}.{node.attr}"
                    elif owner in classes:
                        yield from (f"{cls}.{node.attr}" for cls in classes[owner])
                    else:
                        yield from methods.get(node.attr, ())

    reached = {name for name, node in defs.items() if node.name.startswith("__") and node.name.endswith("__")}
    for stem, tree in trees.items():
        reached |= defs.keys() & set(names(stem, _module_level(tree)))
    frontier = list(reached)
    while frontier:
        name = frontier.pop()
        new = defs.keys() & set(names(name.partition(".")[0], [defs[name]])) - reached
        reached |= new
        frontier.extend(new)
    return defs.keys() - reached


def test_every_src_function_is_reached_at_run_time():
    """A dead-code ratchet: every function in `src` is reached from module-level
    code (an `__init__` re-export, the CLI table, the suite's criteria, a class
    body) through the functions it names, or is on the list above."""
    src = Path(circlespec.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    assert _unreached(trees) == set(UNREACHED_AT_RUN_TIME)


def _named(tree):
    """Every name that `tree` reads, takes as an attribute, imports or spells
    as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("name", sorted(UNREACHED_AT_RUN_TIME))
def test_each_unreached_function_is_named_where_its_reason_says(name):
    """A reason goes stale when its pin moves: the file it cites must be a
    benchmark file or a test, and must still name the function."""
    path, _ = UNREACHED_AT_RUN_TIME[name]
    assert path in ("bench/workloads.py", "bench/spans.py") or path.startswith("tests/")
    root = Path(circlespec.__file__).parents[2]
    tree = ast.parse((root / path).read_text(encoding="utf-8"))
    assert name.rpartition(".")[2] in set(_named(tree))
