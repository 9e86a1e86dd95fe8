"""staralg: exact computer algebra for a deformed polynomial product.

The package provides, over exact rationals:

* sparse polynomials in matched variable families x1..xn / z1..zn;
* the commutative star_t product, the cross-Laplacian flow map that
  trivializes it, the star analogue of evaluation at x = 0, and the
  star-Taylor expansion;
* differential operators on Q[z] in right normal form with the left/right
  total-symbol maps;
* generalized Laguerre polynomials, their star-product construction, and
  exact orthogonality integrals;
* membership oracles and a bounded power-experiment harness for
  Mathieu-subspace questions;
* a text frontend (parser, canonical printer) and a CLI.
"""

from .deform import (
    StarContext,
    StarTaylor,
    cross_laplacian,
    phi,
    star,
    star_ev0,
    star_monomial,
    star_pow,
    star_taylor,
    star_via_subst_xi,
    star_via_subst_z,
)
from .laguerre import (
    LaguerreSpec,
    even_identity_check,
    gamma_moment,
    generating_check,
    identity_dk_check,
    integrate_weight,
    integrate_weight_xi,
    laguerre1,
    laguerre_from_star_at_one,
    laguerre_genfun,
    laguerre_star,
    laguerre_star_zside,
    ode_check,
    orthogonality_check,
    recurrence_check,
    star_exp_check,
    xi_orthogonality_check,
)
from .mathieu import (
    DegreeCapExceeded,
    ExperimentReport,
    MembershipOracle,
    OracleDisagreement,
    basis_power_scan,
    image_linear_witness,
    in_image_ev0,
    in_image_linear,
    in_laguerre_span,
    oracle_equivalence_scan,
    power_experiment,
)
from .poly import Degree, MultiIndex, Poly, format_poly
from .report import InternalFault, OutputRecord, Report
from .syntax import ParseError, parse_poly, parse_weyl
from .weyl import (
    WeylOp,
    from_left_symbol,
    from_right_symbol,
    interchange_check,
    left_symbol,
    right_symbol,
)

__all__ = [
    "Degree",
    "DegreeCapExceeded",
    "ExperimentReport",
    "InternalFault",
    "LaguerreSpec",
    "MembershipOracle",
    "MultiIndex",
    "OracleDisagreement",
    "OutputRecord",
    "ParseError",
    "Poly",
    "Report",
    "StarContext",
    "StarTaylor",
    "WeylOp",
    "basis_power_scan",
    "cross_laplacian",
    "even_identity_check",
    "format_poly",
    "from_left_symbol",
    "from_right_symbol",
    "gamma_moment",
    "generating_check",
    "identity_dk_check",
    "image_linear_witness",
    "in_image_ev0",
    "in_image_linear",
    "in_laguerre_span",
    "integrate_weight",
    "integrate_weight_xi",
    "interchange_check",
    "laguerre1",
    "laguerre_from_star_at_one",
    "laguerre_genfun",
    "laguerre_star",
    "laguerre_star_zside",
    "left_symbol",
    "ode_check",
    "oracle_equivalence_scan",
    "orthogonality_check",
    "parse_poly",
    "parse_weyl",
    "phi",
    "power_experiment",
    "recurrence_check",
    "right_symbol",
    "star",
    "star_ev0",
    "star_exp_check",
    "star_monomial",
    "star_pow",
    "star_taylor",
    "star_via_subst_xi",
    "star_via_subst_z",
    "xi_orthogonality_check",
]

__version__ = "0.1.0"
