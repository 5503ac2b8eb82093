"""gqw: a symbolic/numeric workbench for prequantization geometry.

The package machine-verifies, at desk scale, the standard constructions on
trivialized prequantization bundles over a single chart:

* a small exact expression kernel with randomized equality testing,
* chart-based exterior calculus (forms of degree <= 2),
* Hamiltonian fields and the Poisson algebra,
* the circle-bundle picture: connection, horizontal lifts, the E/F
  isomorphism between functions and connection-preserving fields, and the
  operator representation with its two defining axioms,
* concrete arithmetic for SL(2,R), its double cover, and the circle
  extension, built on an explicit factor-of-automorphy cocycle,
* the metaplectic-c picture over the punctured plane: structured vector
  fields, the frame/horizontal lifts, membership conditions, the E/F
  isomorphism, the section operator, and the two counterexample maps,
* a system-file loader, property suites, and a CLI (`gqw`).
"""

from .errors import GqwError
from .expr import Expr, diff, evalf, subs, to_str
from .parse import parse_expr
from .sample import DomainSampler, expr_equal
from .forms import (
    Chart, ChartMap, KForm, VectorField, exterior_derivative,
    interior_product, lie_bracket, lie_derivative, parse_form, pullback,
    wedge,
)
from .symplectic import SymplecticChart, hamiltonian_vf, poisson, poisson_ways
from .circle import (
    CircleLiftedVF, E_circle, F_circle, PrequantCircle, bracket_lifted,
    connection_nabla, horizontal_lift, ks_operator,
)
from .mpc_group import (
    MpcAlgebra, MpcElement, MpElement, eta, exp_mpc, kappa, lift_path,
    lift_steps, mp_mul, mpc_inv, mpc_mul, mu_loop, sigma,
)
from .mpc_bundle import (
    E_mpc, F_mpc, MpcPrequant, StructuredVF, delta_operator,
    example_base_rotation, example_fiberwise_twist, frame_lift, hat_lift,
    quantomorphism_membership, structured_bracket,
)
from .system import SystemSpec, load_bundled, load_spec
from .suites import Report, run_suite

__version__ = "0.1.0"

__all__ = [
    "GqwError", "Expr", "diff", "evalf", "subs", "to_str",
    "parse_expr", "DomainSampler", "expr_equal", "Chart", "ChartMap", "KForm",
    "VectorField", "exterior_derivative", "interior_product", "lie_bracket",
    "lie_derivative", "parse_form", "pullback", "wedge", "SymplecticChart",
    "hamiltonian_vf", "poisson", "poisson_ways",
    "CircleLiftedVF", "E_circle", "F_circle", "PrequantCircle",
    "bracket_lifted", "connection_nabla", "horizontal_lift",
    "ks_operator", "MpcAlgebra", "MpcElement", "MpElement", "eta", "exp_mpc",
    "kappa", "lift_path", "lift_steps", "mp_mul", "mpc_inv", "mpc_mul",
    "mu_loop", "sigma",
    "E_mpc", "F_mpc", "MpcPrequant", "StructuredVF", "delta_operator",
    "example_base_rotation", "example_fiberwise_twist", "frame_lift",
    "hat_lift", "quantomorphism_membership", "structured_bracket",
    "SystemSpec", "load_bundled", "load_spec", "Report", "run_suite",
]
