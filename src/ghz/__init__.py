"""Exact arithmetic for additive-group actions on complexity-one torus
varieties given by polyhedral divisors over the affine or projective line."""

from .classifier import (AssociatedCones, CoherentFamily, Coloring,
                         associated_cones, candidate_colorings,
                         coherent_validate, coloring_validate,
                         demazure_root_check, demazure_roots_enumerate,
                         enumerate_coherent, equivalence_probe,
                         floor_condition_check, toricity_check)
from .curves import A1, P1, ClosedPoint, point_validate
from .engine import (DthetaOperator, ToricRootOperator, build_operator,
                     image_table, kernel_in_box, toric_root_operator, verify,
                     verify_axioms, verify_stability)
from .fields import PrimeField, Rationals
from .geometry import Cone, Polyhedron
from .polynomials import FractionField, Poly, RatFunc, lambda_field
from .reports import Report
from .scenarios import (Scenario, builtin_examples, load_builtin,
                        parse_field, parse_scenario, serialize_scenario)
from .tvariety import PolyhedralDivisor, algebra_generators

__version__ = "0.1.0"
