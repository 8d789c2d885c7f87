"""Command-line interface: scenario loading, command dispatch and reports.

Usage: ``ghz COMMAND [NAME] [options]`` (see USAGE).  A valued option is
given as ``--opt value`` or ``--opt=value``; a separate value may start with
one ``-`` (``--m -1,0``) but not with ``--``.  Options are spelled in full:
a prefix such as ``--ex``, like the ``--`` separator, is an unknown option.
``-h`` or ``--help`` prints the usage line.

Exit codes: 0 for a positive/complete verdict, 1 for a negative verdict
with witnesses, 2 for usage or parse errors (a malformed command line
included, reported as one ``error:`` line), 3 for an internal failure (a
computation that raised instead of reaching a verdict).
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from .classifier import (candidate_colorings, coherent_validate,
                         coloring_validate, demazure_roots_enumerate,
                         associated_cones, enumerate_coherent, toricity_check,
                         ClassifierError)
from .curves import A1, P1, PointError
from .engine import (EngineError, Refusal, apply, build_operator,
                     toric_root_operator, verify)
from .fields import FieldError
from .geometry import GeometryError, fmt_ratio, fmt_vec
from .polynomials import RatFunc, fmt_factors, times_factors
from .reports import Report
from .scenarios import (ScenarioError, builtin_examples, load_builtin,
                        parse_field, parse_scenario)
from .tvariety import DivisorError, algebra_generators

COMMANDS = ("validate", "eval", "piece", "generators", "colorings", "roots",
            "coherent", "apply", "verify", "classify", "toric-check",
            "example")
# the valued options and the flags, with the attribute each one sets
OPTIONS = {"--scenario": "scenario", "--example": "example",
           "--field": "field", "--m": "m", "--order": "order"}
FLAGS = {"--json": "as_json", "--trust-irreducible": "trust_irreducible",
         "--override": "override"}
USAGE = ("usage: ghz {" + ",".join(COMMANDS) + "} [NAME] [--scenario FILE] "
         "[--example NAME] [--field FIELD] [--m WEIGHT] [--order N] [--json] "
         "[--trust-irreducible] [--override]")


class UsageError(ValueError):
    pass


def _parse_weight(text, div):
    """A lattice weight in the dual of the divisor's tail cone."""
    try:
        parts = tuple(int(x) for x in text.split(","))
    except (TypeError, ValueError, AttributeError):
        raise UsageError(f"bad weight {text!r}; expected e.g. \"1,-2\"")
    if len(parts) != div.rank:
        raise UsageError(f"weight {text!r} has {len(parts)} entries; "
                         f"the lattice rank is {div.rank}")
    if not div.tail.dual().contains(parts):
        raise UsageError(f"weight {parts} lies outside the dual of the tail "
                         "cone")
    return parts


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _y_infinity(sc, command):
    """The coloring's marked point at infinity: P1 needs a rational one, and
    A1 has none."""
    y_inf = sc.coloring.y_infinity if sc.coloring else None
    _require(sc.divisor.curve != A1 or y_inf is None,
             f"{command} over A1 takes no y_infinity")
    _require(sc.divisor.curve != P1 or (y_inf and y_inf.is_rational),
             f"{command} over P1 needs a coloring with a rational y_infinity")
    return y_inf


def _operator(sc, override):
    _require(sc.family is not None, "this command needs a family in the scenario")
    y_inf = sc.family.coloring.y_infinity
    _require(sc.divisor.curve != P1 or (y_inf and y_inf.is_infinity),
             "the operator over P1 needs y_infinity to be the infinite point")
    return build_operator(sc.family, override=override)


def _generator_elements(sc):
    """The algebra generators as terms (m, f), and their certificate."""
    gens, cert = algebra_generators(sc.divisor, sc.bounds["weight_box"])
    one = RatFunc.one(sc.field)
    return [(g.weight, times_factors(one, g.coeff, {})) for g in gens], cert


def run_command(sc, command, args) -> Report:
    rep = Report(command)
    try:
        _run(rep, sc, command, args)
    except Refusal as exc:
        # a refused input is a negative verdict, with its witnesses
        rep.merge(exc.report)
    return rep


def _run(rep, sc, command, args):
    """A command of COMMANDS (parse_args refuses any other); main runs
    example as validate."""
    div = sc.divisor
    if command == "validate":
        rep.merge(div.validate() if sc.coloring is None
                  else coloring_validate(sc.coloring))
        if rep.ok:
            rep.note("scenario is valid")
    elif command == "eval":
        _require(args.m is not None, "eval needs --m")
        m = _parse_weight(args.m, div)
        vals = div.eval(m)
        terms = [f"{fmt_ratio(vals[y], div.den)}*[{y.to_str()}]"
                 for y in div.support_points() if vals[y]]
        rep.note(f"D({m}) = {' + '.join(terms) or '0'}")
    elif command == "piece":
        _require(args.m is not None, "piece needs --m")
        m = _parse_weight(args.m, div)
        piece = div.graded_piece(m)
        if piece.curve == A1:
            rep.note("free module generated by "
                     + fmt_factors(piece.generator))
        elif piece.is_empty:
            rep.note("zero piece")
        else:
            rep.note("basis: " + ", ".join(map(fmt_factors, piece.basis())))
    elif command == "generators":
        gens, cert = algebra_generators(div, sc.bounds["weight_box"])
        for g in gens:
            rep.note(g.to_str())
        rep.note(cert.note)
        if not cert.complete:
            rep.fail("generator search hit the weight bound; enlarge the box")
    elif command == "colorings":
        found = candidate_colorings(div, _y_infinity(sc, command))
        for c in found:
            rep.note(f"y0=[{c.y0.to_str()}] vertices=" + ", ".join(
                f"[{y.to_str()}]->{fmt_vec(v, div.den)}" for y, v in sorted(
                    c.vertices.items(), key=lambda yv: yv[0].to_str())))
        if not found:
            rep.fail("no valid coloring found")
    elif command == "roots":
        _require(sc.coloring is not None, "roots needs a coloring")
        rep.merge(coloring_validate(sc.coloring))
        if not rep.ok:
            return
        cones = associated_cones(sc.coloring)
        rep.note(f"d={cones.d} (l={cones.ell}, u={cones.u}); "
                 f"distinguished ray {cones.distinguished_ray}")
        roots = demazure_roots_enumerate(cones.tau_tilde,
                                         cones.distinguished_ray,
                                         sc.bounds["e_box"], cones.d)
        # never empty: (0, ..., 0, -1/d) pairs to -1 with the ray, to 0 with
        # tau, and positively with the generators of negative height
        for r in roots:
            rep.note(f"root {tuple(str(x) for x in r)}")
    elif command == "coherent":
        _require(sc.family is not None, "coherent needs a family")
        rep.merge(coherent_validate(sc.family))
        if rep.ok:
            rep.note("family is coherent")
    elif command == "apply":
        op = _operator(sc, args.override)
        _require(any(not f.is_zero() for _, f in sc.elements),
                 "apply needs a nonzero scenario element")
        order = args.order if args.order is not None \
            else sc.bounds["max_order"]
        apply(op, sc.elements, order, rep)
    elif command == "verify":
        op = _operator(sc, args.override)
        elems, cert = _generator_elements(sc)
        # first, so that a refusal from a later step keeps the marker
        if not cert.complete:
            rep.trust("generator certificate is incomplete at this bound")
        verify(op, elems, sc.bounds["weight_box"], rep)
    elif command == "classify":
        found = enumerate_coherent(div, sc.bounds["e_box"], sc.bounds["s_max"],
                                   sc.lambda_sample, _y_infinity(sc, command))
        for theta in found:
            rep.note(theta.describe())
        if not found:
            rep.fail("no coherent family in the search box")
    elif command == "toric-check":
        root = sc.family_root
        if root is None and sc.family is not None:
            root = sc.family.e
        if div.rank == 1:
            rep.merge(toricity_check(div))
        if root is not None:
            top = toric_root_operator(div.tail, root, sc.field)
            rep.note(f"root {tuple(top.e)} with distinguished generator "
                     f"{top.mu}")
        elif div.rank != 1:
            rep.fail("toric-check needs a rank-1 divisor or a root")


def _emit(rep: Report, as_json: bool, elapsed: float) -> int:
    if as_json:
        payload = rep.to_dict()
        payload["elapsed_seconds"] = round(elapsed, 3)
        print(json.dumps(payload, indent=2))
    else:
        print(rep.summary())
        print(f"elapsed: {elapsed:.3f}s")
    return 0 if rep.ok else 1


def parse_args(argv):
    """The command line as one record: the command, the example name and
    one attribute per option (None when absent) and flag (False)."""
    args = dict.fromkeys(("command", "name", *OPTIONS.values()))
    args.update(dict.fromkeys(FLAGS.values(), False))
    positional = []
    rest = iter(argv)
    for arg in rest:
        opt, eq, value = arg.partition("=")
        if opt in OPTIONS:
            if not eq:
                value = next(rest, None)
                _require(value is not None and not value.startswith("--"),
                         f"{opt} needs a value")
            args[OPTIONS[opt]] = value
        elif opt in FLAGS:
            _require(not eq, f"{opt} takes no value")
            args[FLAGS[opt]] = True
        elif arg.startswith("-"):
            raise UsageError(f"unknown option {arg!r}")
        else:
            positional.append(arg)
    _require(positional, "missing command; choose one of "
             + ", ".join(COMMANDS))
    if len(positional) > 2:
        raise UsageError(f"unexpected argument {positional[2]!r}")
    args["command"], args["name"] = (*positional, None)[:2]
    _require(args["command"] in COMMANDS,
             f"unknown command {args['command']!r}; choose one of "
             + ", ".join(COMMANDS))
    if args["order"] is not None:
        try:
            args["order"] = int(args["order"])
        except ValueError:
            raise UsageError("--order needs an integer, not "
                             f"{args['order']!r}") from None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    start = time.perf_counter()
    try:
        args = parse_args(argv)
        if args.order is not None and args.order < 0:
            raise UsageError("series order must be positive")
        _require(args.order is None or args.command == "apply",
                 "--order is read by apply only")
        field_override = parse_field(args.field) if args.field else None
        if args.command == "example":
            name = args.name or args.example
            if name is None:
                rep = Report("example")
                for key in sorted(builtin_examples()):
                    rep.note(key)
                return _emit(rep, args.as_json, time.perf_counter() - start)
            sc = load_builtin(name, field_override=field_override,
                              trust_irreducible=args.trust_irreducible)
            rep = run_command(sc, "validate", args)
            return _emit(rep, args.as_json, time.perf_counter() - start)
        if args.example:
            sc = load_builtin(args.example, field_override=field_override,
                              trust_irreducible=args.trust_irreducible)
        elif args.scenario:
            try:
                with open(args.scenario, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read scenario {args.scenario}: "
                                 f"{exc.strerror}") from None
            sc = parse_scenario(text, args.scenario, field_override,
                                args.trust_irreducible)
        else:
            raise UsageError("provide --scenario FILE or --example NAME")
        rep = run_command(sc, args.command, args)
        return _emit(rep, args.as_json, time.perf_counter() - start)
    except (UsageError, ScenarioError, PointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivisorError, ClassifierError, EngineError, FieldError,
            GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # not one of the checkers' own errors: a defect, so keep the trace
        import traceback

        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
