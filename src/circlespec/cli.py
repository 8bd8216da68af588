"""Command-line frontend.

Every checker is a subcommand; reports go to standard output as JSON
(default) or an indented table.  Exit codes: 0 when every requested check
passed (or the command is purely informational), 1 when a mathematical
check failed, 2 on input, format, or cap errors.  Output is deterministic:
identical configuration and seed give byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from circlespec.circle import CirclePoint
from circlespec.errors import Caps, EnumerationCapError, MeasureFormatError, require_positive
from circlespec.markov import inclusion_exclusion_identity
from circlespec.measure import generic_measure, measure_from_json, relation_scan
from circlespec.permgroup import Perm, PermSubgroup
from circlespec.spectral import (
    check_simplicity_levels,
    check_symmetric_power,
    check_tensor_power,
    check_translate_singularity,
    cs_criterion,
    fock_multiplicity_set,
    girsanov_step,
    minimal_m_for_cs,
    multiplicity,
    nonsimple_counterexample,
    paired_relation_measure,
)
from circlespec.suite import check_projections, check_round_trips, run_suite


def _load_measure(args, default_atoms=None):
    if args.measure is not None:
        if args.atoms is not None:
            raise ValueError("give --measure FILE or --atoms D, not both")
        with open(args.measure, "r", encoding="utf-8") as fh:
            return measure_from_json(fh.read())
    d = args.atoms if args.atoms is not None else default_atoms
    if d is None:
        raise ValueError("provide --measure FILE or --atoms D")
    return generic_measure(d)


def _fresh_for(sigma) -> CirclePoint:
    used = [i for p in sigma.support() for i, _ in p.generic]
    return CirclePoint.generator(max(used, default=-1) + 1)


def _parse_shift(text: str, sigma) -> CirclePoint:
    if text == "identity":
        return CirclePoint.identity()
    if text == "fresh":
        return _fresh_for(sigma)
    return CirclePoint.parse(text)


def integer(text: str, digits: str = "-?[0-9]+") -> int:
    """An ASCII decimal, named for argparse's "invalid integer value"; `int` also reads "1_0", "٣"."""
    if not re.fullmatch(digits, text, re.ASCII):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def cap(text: str) -> int:  # no sign, so 0 or more; argparse reports "invalid cap value"
    return integer(text, "[0-9]+")


def _parse_dims(text: str) -> list[int]:
    try:
        return [integer(tok.strip()) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad dimension list {text!r}: {exc}") from None


def _render_lines(obj, indent=0) -> list[str]:
    """Rows "key: value" in a dict and "- value" in a list; nested ones go indented below their label."""
    pad = "  " * indent
    labelled = [(f"{k}:", v) for k, v in obj.items()] if isinstance(obj, dict) else [("-", v) for v in obj]
    rows = []
    for label, v in labelled:
        if isinstance(v, (dict, list)):
            rows += [f"{pad}{label}", *_render_lines(v, indent + 1)]
        else:
            rows.append(f"{pad}{label} {v}")
    return rows


# Each handler returns (passed, report, table) where passed may be None for
# purely informational commands and table may be None to use the generic
# renderer.


def _cmd_multiplicity(args):
    n = args.power
    require_positive(power=n)
    sigma = _load_measure(args)
    named = {"trivial": PermSubgroup.trivial, "cyclic": PermSubgroup.cyclic, "symmetric": PermSubgroup.symmetric}
    if args.group in named:
        G = named[args.group](n)
    else:
        try:
            images = json.loads(args.group)
        except (ValueError, RecursionError):
            images = None
        if not (isinstance(images, list) and all(isinstance(im, list) for im in images)):
            raise ValueError(f"--group must be {', '.join(named)} or a JSON list of image lists")
        G = PermSubgroup(n, [Perm(im) for im in images])
    rep = multiplicity(sigma, n, G, args.tuple_cap)
    return None, rep.to_json_obj(), rep.to_table()


def _cmd_power(args):
    check = check_tensor_power if args.command == "krot" else check_symmetric_power
    d = args.atoms if args.atoms is not None else args.k * args.m + 2
    rep = check(args.k, args.m, d, Caps(args.tuple_cap, args.matrix_cap))
    return rep["passed"], rep, None


def _cmd_fock_set(args):
    rep = fock_multiplicity_set(args.k, args.max_m, args.atoms, args.tuple_cap)
    return rep["passed"], rep, None


def _cmd_cs_criterion(args):
    rep = cs_criterion(args.k, args.m, args.n)
    return rep["holds"], rep, None


def _cmd_cs_min_m(args):
    """The search ends at the least m, or exits 2 at the first term past the digit limit."""
    return True, minimal_m_for_cs(args.k), None


def _cmd_translate_singular(args):
    sigma = _load_measure(args, default_atoms=4)
    shift = _parse_shift(args.shift, sigma)
    rep = check_translate_singularity(sigma, args.n, args.m, shift, args.tuple_cap)
    return rep["singular"], rep, None


def _cmd_nonsimple(args):
    sigma = _load_measure(args, default_atoms=2)
    shift = _parse_shift(args.shift, sigma)
    rep = nonsimple_counterexample(sigma, shift, args.tuple_cap)
    return rep["found"], rep, None


def _cmd_girsanov(args):
    if args.measure is None and args.atoms is None:
        sigma = paired_relation_measure()
        source = "paired-relation"
    else:
        sigma = _load_measure(args)
        source = "file" if args.measure is not None else "generic"
    rep = girsanov_step(sigma, args.n, args.tuple_cap)
    rep["measure_source"] = source
    return rep["satisfied"], rep, None


def _cmd_vproste(args):
    sigma = _load_measure(args, default_atoms=3)
    rep = check_simplicity_levels(sigma, args.max_level, args.tuple_cap)
    return rep["monotone"], rep, None


def _cmd_relations(args):
    sigma = _load_measure(args, default_atoms=4)
    found = relation_scan(sigma, args.degree, args.tuple_cap)
    report = {
        "atoms": len(sigma),
        "degree": args.degree,
        "count": len(found),
        "relations": [r.to_json_obj() for r in found],
    }
    return None, report, None


def _cmd_markov_round_trip(args):
    failures = check_round_trips(random.Random(args.seed), args.count)
    report = {"count": args.count, "failures": failures, "passed": not failures}
    return report["passed"], report, None


def _cmd_markov_lm_kk(args):
    if not 1 <= args.n <= 3:
        raise ValueError("--n must be between 1 and 3")
    cases, failures = check_projections(random.Random(args.seed), args.n, args.count)
    report = {
        "components": args.n,
        "trials": args.count,
        "cases": cases,
        "failures": failures,
        "passed": not failures,
    }
    return report["passed"], report, None


def _cmd_markov_incl_excl(args):
    dims = _parse_dims(args.dims)
    rep = inclusion_exclusion_identity(dims, None, args.matrix_cap)
    return rep["passed"], rep, None


def _cmd_suite(args):
    rep = run_suite(args.seed, Caps(args.tuple_cap, args.matrix_cap))
    lines = [
        f"{name}: {'PASS' if r['passed'] else 'FAIL'}"
        for name, r in rep["criteria"].items()
    ]
    lines.append(f"overall: {'PASS' if rep['passed'] else 'FAIL'}")
    return rep["passed"], rep, "\n".join(lines)


def _required(flag):
    return flag, {"type": integer, "required": True}


def _int(flag, default=None, help_text=None, kind=integer):
    return flag, {"type": kind, "default": default, "help": help_text}


_MEASURE = ("--measure", {"help": "measure JSON file"})
_TUPLE_CAP = _int("--tuple-cap", Caps.tuples, kind=cap)
_MATRIX_CAP = _int("--matrix-cap", Caps.matrix, kind=cap)
_SEED = _int("--seed", 0)
_POWER_ARGS = (
    _TUPLE_CAP,
    _MATRIX_CAP,
    _required("--k"),
    _required("--m"),
    _int("--atoms", help_text="base atoms (default m*k + 2)"),
)

# (command path, help, arguments as (flag, add_argument keywords), handler).
# A row without a handler is a group whose subcommands follow it; every
# other row is a leaf that also takes the common options.  A leaf takes a
# cap flag or --seed only if its handler reads it (the envelope's seed is 0).
COMMANDS = (
    (("multiplicity",), "multiplicity report for a power of a measure under a subgroup", (
        _TUPLE_CAP,
        _MEASURE,
        _int("--atoms", help_text="use a generic measure with this many atoms"),
        _required("--power"),
        ("--group", {"default": "symmetric", "help": 'trivial, cyclic, symmetric or image lists, e.g. "[[1,0,2]]"'}),
    ), _cmd_multiplicity),
    (("krot",), "tensor-power multiplicity of a convolution power vs the closed form",
     _POWER_ARGS, _cmd_power),
    (("sym-krot",), "symmetric-power multiplicity of a convolution power vs the closed form",
     _POWER_ARGS, _cmd_power),
    (("fock-set",), "the set of symmetric-power multiplicities across levels",
     (_TUPLE_CAP, _int("--k", 2), _int("--max-m", 4), _int("--atoms", 8)), _cmd_fock_set),
    (("cs-criterion",), "group order vs tensor multiplicity inequality",
     (_required("--k"), _required("--m"), _required("--n")), _cmd_cs_criterion),
    (("cs-min-m",), "least level m with (m!)^(k+1) (k!)^m > (mk)!",
     (_required("--k"),), _cmd_cs_min_m),
    (("translate-singular",), "singularity of a convolution power against a translated one", (
        _TUPLE_CAP,
        _MEASURE,
        _int("--atoms", help_text="generic measure size (default 4)"),
        _required("--n"),
        _required("--m"),
        ("--shift", {"default": "fresh", "help": '"fresh", "identity", or a point like "1/3*g5^2"'}),
    ), _cmd_translate_singular),
    (("nonsimple",), "break symmetric-square simplicity with a translate sum", (
        _TUPLE_CAP,
        _MEASURE,
        _int("--atoms", help_text="generic measure size (default 2)"),
        ("--shift", {"default": "fresh", "help": '"fresh" or a point expression'}),
    ), _cmd_nonsimple),
    (("girsanov",), "square a designed multiplicity by doubling the level",
     (_TUPLE_CAP, _MEASURE, _int("--atoms", help_text="generic measure size"), _int("--n", 2)), _cmd_girsanov),
    (("vproste",), "level-by-level simplicity with the downward-monotonicity check", (
        _TUPLE_CAP,
        _MEASURE,
        _int("--atoms", help_text="generic measure size (default 3)"),
        _int("--max-level", 4),
    ), _cmd_vproste),
    (("relations",), "scan the support for multiplicative relations", (
        _TUPLE_CAP,
        _MEASURE,
        _int("--atoms", help_text="generic measure size (default 4)"),
        _int("--degree", 4),
    ), _cmd_relations),
    (("markov",), "finite Markov-operator identities", (), None),
    (("markov", "round-trip"), "coupling <-> operator round trips on random rational couplings",
     (_SEED, _int("--count", 50)), _cmd_markov_round_trip),
    (("markov", "lm-kk"),
     "conditional expectation onto a sub-product vs the relatively independent extension",
     (_SEED, _int("--n", 2, "product components (1..3)"), _int("--count", 3, "random trials")), _cmd_markov_lm_kk),
    (("markov", "incl-excl"), "inclusion-exclusion of mean projections on a finite product",
     (_MATRIX_CAP, ("--dims", {"default": "2,2", "help": 'comma-separated sizes, e.g. "2,3,2"'})),
     _cmd_markov_incl_excl),
    (("suite",), "run the full acceptance battery", (_SEED, _TUPLE_CAP, _MATRIX_CAP), _cmd_suite),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")

    parser = argparse.ArgumentParser(
        prog="circlespec",
        description="Exact spectral-multiplicity checks on atomic circle models.",
    )
    subparsers = {(): parser.add_subparsers(dest="command")}
    for path, help_text, arguments, handler in COMMANDS:
        parent = subparsers[path[:-1]]
        if handler is None:
            subparsers[path] = parent.add_parser(path[-1], help=help_text).add_subparsers()
            continue
        p = parent.add_parser(path[-1], parents=[common], help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler, command=" ".join(path), seed=0)
    return parser


def _params(args) -> dict:
    skip = {"func", "command", "format", "seed"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        passed, report, table = args.func(args)
    except EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except MeasureFormatError as exc:
        print(f"measure format error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # An engine cross-check tripped: a mathematical claim failed.
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    envelope = {
        "command": args.command,
        "seed": args.seed,
        "params": _params(args),
        "passed": passed,
        "report": report,
    }
    if args.format == "table":
        body = table
        if body is None:
            shown = report
            # The envelope prints the verdict line; a passed key inside the
            # report would render the same fact twice.
            if isinstance(shown, dict) and "passed" in shown:
                shown = {k: v for k, v in shown.items() if k != "passed"}
            body = "\n".join(_render_lines(shown))
        print(f"command: {envelope['command']}")
        print(f"seed: {envelope['seed']}")
        print(body)
        print(f"passed: {passed}")
    else:
        print(json.dumps(envelope, sort_keys=True, indent=2))
    return 0 if passed is None or passed else 1


if __name__ == "__main__":
    sys.exit(main())
