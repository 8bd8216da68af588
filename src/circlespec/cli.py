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
import sys

from circlespec.circle import CirclePoint
from circlespec.errors import EnumerationCapError, MeasureFormatError
from circlespec.markov import inclusion_exclusion_identity
from circlespec.measure import generic_measure, measure_from_json, relation_scan
from circlespec.permgroup import Perm, PermSubgroup
from circlespec.spectral import (
    DEFAULT_MATRIX_CAP,
    DEFAULT_TUPLE_CAP,
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
    if getattr(args, "measure", None):
        with open(args.measure, "r", encoding="utf-8") as fh:
            return measure_from_json(fh.read())
    d = getattr(args, "atoms", None)
    if d is None:
        d = default_atoms
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


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad dimension list {text!r}: {exc}") from None
    if not dims:
        raise ValueError("dimension list must not be empty")
    return dims


def _render_lines(obj, indent=0) -> list[str]:
    pad = "  " * indent
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                rows.append(f"{pad}{k}:")
                rows.extend(_render_lines(v, indent + 1))
            else:
                rows.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                rows.append(f"{pad}-")
                rows.extend(_render_lines(v, indent + 1))
            else:
                rows.append(f"{pad}- {v}")
    else:
        rows.append(f"{pad}{obj}")
    return rows


# Each handler returns (passed, report, table) where passed may be None for
# purely informational commands and table may be None to use the generic
# renderer.


def _cmd_multiplicity(args):
    sigma = _load_measure(args)
    n = args.power
    if args.gens is not None:
        images = json.loads(args.gens)
        if not (isinstance(images, list) and images and all(isinstance(im, list) for im in images)):
            raise ValueError("--gens must be a JSON list of image lists")
        G = PermSubgroup(n, [Perm(im) for im in images])
    elif args.group == "trivial":
        G = PermSubgroup.trivial(n)
    elif args.group == "cyclic":
        G = PermSubgroup.cyclic(n)
    else:
        G = PermSubgroup.symmetric(n)
    rep = multiplicity(sigma, n, G, args.tuple_cap)
    return None, rep.to_json_obj(), rep.to_table()


def _cmd_krot(args):
    d = args.atoms if args.atoms is not None else args.k * args.m + 2
    rep = check_tensor_power(args.k, args.m, d, args.tuple_cap, args.matrix_cap)
    return rep["passed"], rep, None


def _cmd_sym_krot(args):
    d = args.atoms if args.atoms is not None else args.k * args.m + 2
    rep = check_symmetric_power(args.k, args.m, d, args.tuple_cap, args.matrix_cap)
    return rep["passed"], rep, None


def _cmd_fock_set(args):
    rep = fock_multiplicity_set(args.k, args.max_m, args.atoms, args.tuple_cap, args.matrix_cap)
    return rep["passed"], rep, None


def _cmd_cs_criterion(args):
    rep = cs_criterion(args.k, args.m, args.n)
    return rep["holds"], rep, None


def _cmd_cs_min_m(args):
    rep = minimal_m_for_cs(args.k, args.m_cap)
    if not rep["found"]:
        raise EnumerationCapError(
            f"no level m <= {args.m_cap} satisfies the criterion for k={args.k}; "
            f"sequence so far: {', '.join(rep['sequence'])}"
        )
    return True, rep, None


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
        source = "file" if args.measure else "generic"
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
    rep = run_suite(args.seed, args.tuple_cap, args.matrix_cap)
    lines = [
        f"{name}: {'PASS' if r['passed'] else 'FAIL'}"
        for name, r in rep["criteria"].items()
    ]
    lines.append(f"overall: {'PASS' if rep['passed'] else 'FAIL'}")
    return rep["passed"], rep, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tuple-cap", type=int, default=DEFAULT_TUPLE_CAP)
    common.add_argument("--matrix-cap", type=int, default=DEFAULT_MATRIX_CAP)

    parser = argparse.ArgumentParser(
        prog="circlespec",
        description="Exact spectral-multiplicity checks on atomic circle models.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "multiplicity",
        parents=[common],
        help="multiplicity report for a power of a measure under a subgroup",
    )
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--atoms", type=int, help="use a generic measure with this many atoms")
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--group", choices=("trivial", "cyclic", "symmetric"), default="symmetric")
    p.add_argument("--gens", help='JSON list of permutation image lists, e.g. "[[1,0,2]]"')
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser(
        "krot",
        parents=[common],
        help="tensor-power multiplicity of a convolution power vs the closed form",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--atoms", type=int, help="base atoms (default m*k + 2)")
    p.set_defaults(func=_cmd_krot)

    p = sub.add_parser(
        "sym-krot",
        parents=[common],
        help="symmetric-power multiplicity of a convolution power vs the closed form",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--atoms", type=int, help="base atoms (default m*k + 2)")
    p.set_defaults(func=_cmd_sym_krot)

    p = sub.add_parser(
        "fock-set",
        parents=[common],
        help="the set of symmetric-power multiplicities across levels",
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--atoms", type=int, default=8)
    p.set_defaults(func=_cmd_fock_set)

    p = sub.add_parser(
        "cs-criterion",
        parents=[common],
        help="group order vs tensor multiplicity inequality",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_cs_criterion)

    p = sub.add_parser(
        "cs-min-m",
        parents=[common],
        help="least level m with (m!)^(k+1) (k!)^m > (mk)!",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-cap", type=int, default=64)
    p.set_defaults(func=_cmd_cs_min_m)

    p = sub.add_parser(
        "translate-singular",
        parents=[common],
        help="singularity of a convolution power against a translated one",
    )
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--atoms", type=int, help="generic measure size (default 4)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--shift",
        default="fresh",
        help='"fresh", "identity", or a point like "1/3*g5^2"',
    )
    p.set_defaults(func=_cmd_translate_singular)

    p = sub.add_parser(
        "nonsimple",
        parents=[common],
        help="break symmetric-square simplicity with a translate sum",
    )
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--atoms", type=int, help="generic measure size (default 2)")
    p.add_argument("--shift", default="fresh", help='"fresh" or a point expression')
    p.set_defaults(func=_cmd_nonsimple)

    p = sub.add_parser(
        "girsanov",
        parents=[common],
        help="square a designed multiplicity by doubling the level",
    )
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--atoms", type=int, help="generic measure size")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=_cmd_girsanov)

    p = sub.add_parser(
        "vproste",
        parents=[common],
        help="level-by-level simplicity with the downward-monotonicity check",
    )
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--atoms", type=int, help="generic measure size (default 3)")
    p.add_argument("--max-level", type=int, default=4)
    p.set_defaults(func=_cmd_vproste)

    p = sub.add_parser(
        "relations",
        parents=[common],
        help="scan the support for multiplicative relations",
    )
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--atoms", type=int, help="generic measure size (default 4)")
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=_cmd_relations)

    markov = sub.add_parser("markov", help="finite Markov-operator identities")
    msub = markov.add_subparsers(dest="markov_command")

    p = msub.add_parser(
        "round-trip",
        parents=[common],
        help="coupling <-> operator round trips on random rational couplings",
    )
    p.add_argument("--count", type=int, default=50)
    p.set_defaults(func=_cmd_markov_round_trip)

    p = msub.add_parser(
        "lm-kk",
        parents=[common],
        help="conditional expectation onto a sub-product vs the relatively independent extension",
    )
    p.add_argument("--n", type=int, default=2, help="product components (1..3)")
    p.add_argument("--count", type=int, default=3, help="random trials")
    p.set_defaults(func=_cmd_markov_lm_kk)

    p = msub.add_parser(
        "incl-excl",
        parents=[common],
        help="inclusion-exclusion of mean projections on a finite product",
    )
    p.add_argument("--dims", default="2,2", help='comma-separated sizes, e.g. "2,3,2"')
    p.set_defaults(func=_cmd_markov_incl_excl)

    p = sub.add_parser(
        "suite",
        parents=[common],
        help="run the full acceptance battery",
    )
    p.set_defaults(func=_cmd_suite)

    return parser


def _command_label(args) -> str:
    label = args.command
    if getattr(args, "markov_command", None):
        label = f"{label} {args.markov_command}"
    return label


def _params(args) -> dict:
    skip = {"func", "command", "markov_command", "format", "seed"}
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
        "command": _command_label(args),
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
