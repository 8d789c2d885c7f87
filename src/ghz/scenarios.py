"""Scenario files: a JSON description of a field, a polyhedral divisor and
optional coloring/family/bounds data, plus the builtin worked examples."""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .classifier import Coloring, CoherentFamily
from .curves import A1, P1, ClosedPoint, point_validate
from .fields import PrimeField, Rationals, _is_prime
from .geometry import MAX_RANK, Cone, Polyhedron, fmt_ratio
from .polynomials import (ParseError, lambda_field, parse_poly,
                          parse_rational, parse_scalar)
from .tvariety import PolyhedralDivisor


class ScenarioError(ValueError):
    pass


DEFAULT_BOUNDS = {
    "weight_box": 6,
    "max_order": 12,
    "e_box": 1,
    "s_max": 2,
    "lambda_sample": ["1"],
}


def parse_field(spec) -> object:
    """Field descriptor: {"kind": "Q"} | {"kind": "Fp", "p": 2} |
    {"kind": "Fp(l)", "p": 2}; also accepts the short strings used by the
    --field flag, e.g. "Q", "F2", "F3(l)"."""
    if isinstance(spec, str):
        s = spec.strip()
        if s in ("Q", "QQ"):
            return Rationals()
        if s.startswith("F"):
            if s.endswith("(l)"):
                return lambda_field(_characteristic(s[1:-3]))
            return PrimeField(_characteristic(s[1:]))
        raise ScenarioError(f"unknown field {spec!r}")
    kind = spec.get("kind") if isinstance(spec, dict) else spec
    if kind == "Q":
        return Rationals()
    if kind == "Fp":
        return PrimeField(_characteristic(spec.get("p")))
    if kind == "Fp(l)":
        return lambda_field(_characteristic(spec.get("p")))
    raise ScenarioError(f"unknown field kind {kind!r}")


def _characteristic(p) -> int:
    """The p of an Fp or Fp(l) field, given as an int or a digit string."""
    digits = str(p).strip()
    if not digits.isdecimal():
        raise ScenarioError(
            f"field characteristic {p!r} is not a positive integer")
    n = int(digits)
    if not _is_prime(n):
        raise ScenarioError(f"{n} is not prime")
    return n


def field_descriptor(field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    if isinstance(field, PrimeField):
        return {"kind": "Fp", "p": field.p}
    return {"kind": "Fp(l)", "p": field.char_exponent}


def _frac(x) -> Fraction:
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational {x!r}: {exc}")


def _int(x, what="entry") -> int:
    if type(x) is not int:
        raise ScenarioError(f"{what} {x!r} is not an integer")
    return x


def _typed(x, kind, what):
    if not isinstance(x, kind):
        raise ScenarioError(f"{what} must be a JSON "
                            f"{'object' if kind is dict else 'array'}")
    return x


def _key(obj, key, what):
    if key not in _typed(obj, dict, what):
        raise ScenarioError(f"{what} has no {key!r} key")
    return obj[key]


def _vec(xs, rank, what, entry=_frac):
    """A vector of the lattice rank's length, each entry read by ``entry``."""
    if len(_typed(xs, list, what)) != rank:
        raise ScenarioError(f"{what} {xs!r} has {len(xs)} entries; the "
                            f"lattice rank is {rank}")
    return tuple(map(entry, xs))


def _ray(xs, rank, what):
    """A rational ray as its integer multiple over its own denominators."""
    r = _vec(xs, rank, what)
    den = lcm(*(x.denominator for x in r))
    return tuple(int(x * den) for x in r)


def divisor_over_den(field, curve, tail, points: dict, colored: dict):
    """The divisor with polyhedra conv(points[y]) + tail, for rational
    points, and the rational colored vertices as int tuples over its den:
    the lcm of every denominator in points and colored."""
    den = lcm(*(x.denominator for vs in (*points.values(), colored.values())
                for v in vs for x in v))

    def ints(v):
        return tuple(int(x * den) for x in v)

    support = {y: Polyhedron.from_points(map(ints, vs), tail)
               for y, vs in points.items()}
    return (PolyhedralDivisor(field, curve, tail, support, den),
            {y: ints(v) for y, v in colored.items()})


def _scalars(xs, field, what):
    try:
        return tuple(parse_scalar(str(x), field)
                     for x in _typed(xs, list, what))
    except ParseError as exc:
        raise ScenarioError(f"bad coefficient in {what}: {exc}")


def _point(text, field, policy):
    if text == "infinity":
        return ClosedPoint.infinity()
    try:
        poly = parse_poly(str(text), field)
    except ParseError as exc:
        raise ScenarioError(f"bad point {text!r}: {exc}")
    return point_validate(poly, policy)


class Scenario:
    __slots__ = ("name", "field", "divisor", "coloring", "family", "bounds",
                 "elements", "lambda_sample", "family_root")

    def __init__(self, name: str, field, divisor: PolyhedralDivisor,
                 coloring: Coloring | None, family: CoherentFamily | None,
                 bounds: dict, elements: list, lambda_sample: tuple,
                 family_root: tuple | None):
        self.name, self.field, self.divisor = name, field, divisor
        self.coloring, self.family, self.bounds = coloring, family, bounds
        self.elements, self.lambda_sample = elements, lambda_sample
        self.family_root = family_root


def parse_scenario(source, name: str = "scenario",
                   field_override=None, policy: str = "strict") -> Scenario:
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"syntax error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}")
    else:
        data = source
    _typed(data, dict, "a scenario")
    field = field_override if field_override is not None \
        else parse_field(data.get("field", {"kind": "Q"}))
    rank = data.get("rank", 1)
    if type(rank) is not int or not 1 <= rank <= MAX_RANK:
        raise ScenarioError(f"rank {rank!r} is not an integer in 1..{MAX_RANK}")
    curve = data.get("curve", A1)
    if curve not in (A1, P1):
        raise ScenarioError(f"unknown curve {curve!r}")
    tail = Cone.from_generators([_ray(r, rank, "tail ray") for r in _typed(
        data.get("tail_rays", []), list, "tail_rays")], rank)
    entries = _typed(data.get("support", []), list, "support")
    if entries and not tail.is_pointed():
        raise ScenarioError("a nonempty support needs a pointed tail cone")
    points = {}
    for entry in entries:
        y = _point(_key(entry, "point", "support entry"), field, policy)
        verts = [_vec(v, rank, "vertex")
                 for v in _typed(entry.get("vertices", []), list, "vertices")]
        if not verts:
            raise ScenarioError(
                f"support entry at {entry['point']!r} has no vertices")
        if "rays" in entry:
            extra = [_ray(r, rank, "ray")
                     for r in _typed(entry["rays"], list, "rays")]
            if Cone.from_generators(extra, rank) != tail:
                raise ScenarioError(
                    f"support entry at {entry['point']!r} declares rays "
                    "that do not generate the tail cone")
        points[y] = verts

    cdata = data.get("coloring")
    colored = {}
    if cdata is not None:
        y0 = _point(_key(cdata, "y0", "coloring"), field, policy)
        y_inf = cdata.get("y_infinity")
        y_inf = None if y_inf is None else _point(y_inf, field, policy)
        colored = {_point(y, field, policy): _vec(v, rank, "colored vertex")
                   for y, v in _typed(cdata.get("vertices", {}), dict,
                                      "coloring vertices").items()}
    divisor, colored = divisor_over_den(field, curve, tail, points, colored)
    coloring = None if cdata is None \
        else Coloring(divisor, colored, y0, y_inf)

    family = None
    fdata = data.get("family")
    if fdata is not None:
        if coloring is None:
            raise ScenarioError("a family needs a coloring")
        e = _vec(_key(fdata, "e", "family"), rank, "family e", _int)
        s = tuple(map(_int, _typed(_key(fdata, "s", "family"), list, "s")))
        family = CoherentFamily(coloring, e, s, _scalars(
            fdata.get("lambda", []), field, "lambda"))

    bounds = dict(DEFAULT_BOUNDS)
    bounds.update(_typed(data.get("bounds", {}), dict, "bounds"))
    for key in ("weight_box", "max_order", "e_box", "s_max"):
        if _int(bounds[key], key) < 0:
            raise ScenarioError(f"{key} {bounds[key]} is negative")
    lambda_sample = _scalars(bounds["lambda_sample"] or ["1"], field,
                             "lambda_sample")
    root = data.get("family_root")
    root = None if root is None else _vec(root, rank, "family_root", _int)

    elements = []
    for entry in _typed(data.get("elements", []), list, "elements"):
        try:
            coeff = parse_rational(str(_key(entry, "coeff", "element")), field)
        except ParseError as exc:
            raise ScenarioError(f"bad coefficient {entry['coeff']!r}: {exc}")
        weight = _vec(_key(entry, "weight", "element"), rank, "weight", _int)
        elements.append((weight, coeff))

    return Scenario(name, field, divisor, coloring, family, bounds,
                    elements, lambda_sample, root)


def serialize_scenario(sc: Scenario) -> dict:
    den = sc.divisor.den
    out = {
        "field": field_descriptor(sc.field),
        "rank": sc.divisor.rank,
        "curve": sc.divisor.curve,
        "tail_rays": [[str(x) for x in r] for r in sc.divisor.tail.rays],
        "support": [
            {"point": y.to_str(),
             "vertices": [[fmt_ratio(x, den) for x in v]
                          for v in sc.divisor.support[y].vertices]}
            for y in sc.divisor.support_points()],
    }
    if sc.coloring is not None:
        cdata = {
            "y0": sc.coloring.y0.to_str(),
            "vertices": {y.to_str(): [fmt_ratio(x, den) for x in v]
                         for y, v in sorted(sc.coloring.vertices.items(),
                                            key=lambda yv: yv[0].to_str())},
        }
        if sc.coloring.y_infinity is not None:
            cdata["y_infinity"] = sc.coloring.y_infinity.to_str()
        out["coloring"] = cdata
    if sc.family is not None:
        field = sc.field
        out["family"] = {
            "e": list(sc.family.e),
            "s": list(sc.family.s),
            "lambda": [field.to_str(x) for x in sc.family.lam],
        }
    if sc.family_root is not None:
        out["family_root"] = list(sc.family_root)
    out["bounds"] = dict(sc.bounds)
    if sc.elements:
        out["elements"] = [{"weight": list(m), "coeff": f.to_str()}
                           for m, f in sc.elements if not f.is_zero()]
    return out


# -- builtin examples -------------------------------------------------------

_W25_BASE = {
    "rank": 1,
    "curve": "A1",
    "tail_rays": [],
    "coloring": {"y0": "t", "vertices": {"t": ["1/5"]}},
    "family": {"e": [1], "s": [2], "lambda": ["1"]},
    "bounds": {"weight_box": 10, "max_order": 12, "e_box": 1, "s_max": 2,
               "lambda_sample": ["1"]},
}


def _w25(field, second_point):
    data = json.loads(json.dumps(_W25_BASE))
    data["field"] = field
    data["support"] = [
        {"point": "t", "vertices": [["1/5"]]},
        {"point": second_point, "vertices": [["0"], ["1/5"]]},
    ]
    data["coloring"]["vertices"][second_point] = ["0"]
    data["elements"] = [{"weight": [-5], "coeff": f"t*({second_point})"}]
    return data


BUILTIN_EXAMPLES = {
    # hyperbolic surface with an action that exists only over an imperfect
    # field: second support point t^2 + l has inseparable degree 2
    "w25-imperfect": _w25({"kind": "Fp(l)", "p": 2}, "t^2+l"),
    # the same divisor shape with a rational second point: no action
    "w25-prime": _w25({"kind": "Fp", "p": 2}, "t+1"),
    # rank-2 example where the action exists only in characteristic 2
    # because of ramification (d = p = 2)
    "char2-ramified": {
        "field": {"kind": "Fp", "p": 2},
        "rank": 2,
        "curve": "A1",
        "tail_rays": [[1, 0], [0, 1]],
        "support": [
            {"point": "t", "vertices": [["1/2", "0"]]},
            {"point": "t+1", "vertices": [["1/2", "0"], ["0", "1"]]},
        ],
        "coloring": {"y0": "t",
                     "vertices": {"t": ["1/2", "0"], "t+1": ["0", "1"]}},
        "family": {"e": [1, 0], "s": [0], "lambda": ["1"]},
        "bounds": {"weight_box": 4, "max_order": 8, "e_box": 1, "s_max": 1,
                   "lambda_sample": ["1"]},
        "elements": [{"weight": [0, 1], "coeff": "1"},
                     {"weight": [1, 1], "coeff": "1"}],
    },
    # plain toric data: the root operator on the quarter plane
    "toric-demo": {
        "field": {"kind": "Q"},
        "rank": 2,
        "curve": "A1",
        "tail_rays": [[1, 0], [0, 1]],
        "support": [],
        "family_root": [-1, 2],
        "bounds": {"weight_box": 5, "max_order": 8},
    },
}


def builtin_examples():
    return dict(BUILTIN_EXAMPLES)


def load_builtin(name: str, field_override=None,
                 trust_irreducible: bool = False) -> Scenario:
    """Parse a builtin example.  w25-imperfect always trusts its support
    points (irreducibility over F_p(l) is undecidable here); the others
    are strict unless ``trust_irreducible`` is set."""
    if name not in BUILTIN_EXAMPLES:
        raise ScenarioError(
            f"unknown example {name!r}; available: "
            + ", ".join(sorted(BUILTIN_EXAMPLES)))
    data = BUILTIN_EXAMPLES[name]
    trusted = trust_irreducible or name == "w25-imperfect"
    policy = "trusted" if trusted else "strict"
    return parse_scenario(data, name=name, field_override=field_override,
                          policy=policy)
