"""Exact certification of finite orbits of rational self-maps of the projective line.

The package works over Q with exact arithmetic throughout: orbits either
close and produce a replayable certificate, or the run reports which budget
was exhausted. Structural properties (ultrametric triangle inequality,
non-expansion at good-reduction primes, tail-valuation monotonicity) are
re-checked on real data, and explicit finiteness bounds are evaluated in
log-space with outward rounding so comparisons are sound.
"""

from .bounds import (
    FORMULAS,
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    BoundFormula,
    BoundValue,
    compare,
    decimal_str,
    evaluate_bound,
    ln_interval,
)
from .maps import (
    MapSyntaxError,
    RationalMap,
    bad_primes,
    compose_maps,
    conjugate,
    evaluate,
    good_reduction_at,
    iterate_map,
    make_map,
    map_to_expr,
    moebius_order,
    parse_map,
)
from .numtheory import (
    BudgetError,
    FactorizationBudgetError,
    PlaceSet,
    factor,
    is_prime,
    s_membership,
    vp,
)
from .orbits import (
    CertificateCheckError,
    OrbitCertificate,
    certificate_from_json,
    certificate_to_json,
    check_tail_divisibility,
    collapse_to_fixed_point,
    detect_orbit,
    normalize_orbit,
    run_certificate_checks,
    synthesize_map,
    verify_np_conditions,
)
from .projective import (
    INFINITE_DISTANCE,
    ProjectivePoint,
    canonical_point,
    distance_table,
    from_pair,
    log_distance,
    parse_point,
)
from .sunit import (
    ThreeTermReport,
    TwoWaysReport,
    UnitEquationReport,
    count_three_term,
    solve_unit_equation,
    two_way_representations,
)
from .suites import CORPUS, SuiteReport, corpus_certificates, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numtheory
    "BudgetError",
    "FactorizationBudgetError",
    "PlaceSet",
    "factor",
    "is_prime",
    "s_membership",
    "vp",
    # projective
    "INFINITE_DISTANCE",
    "ProjectivePoint",
    "canonical_point",
    "from_pair",
    "log_distance",
    "parse_point",
    "distance_table",
    # maps
    "MapSyntaxError",
    "RationalMap",
    "bad_primes",
    "compose_maps",
    "conjugate",
    "evaluate",
    "good_reduction_at",
    "iterate_map",
    "make_map",
    "map_to_expr",
    "moebius_order",
    "parse_map",
    # orbits
    "CertificateCheckError",
    "OrbitCertificate",
    "certificate_from_json",
    "certificate_to_json",
    "check_tail_divisibility",
    "collapse_to_fixed_point",
    "detect_orbit",
    "normalize_orbit",
    "run_certificate_checks",
    "synthesize_map",
    "verify_np_conditions",
    # bounds
    "INCONCLUSIVE",
    "FORMULAS",
    "SATISFIED",
    "VIOLATED",
    "BoundFormula",
    "BoundValue",
    "compare",
    "decimal_str",
    "evaluate_bound",
    "ln_interval",
    # sunit
    "ThreeTermReport",
    "TwoWaysReport",
    "UnitEquationReport",
    "count_three_term",
    "solve_unit_equation",
    "two_way_representations",
    # suites
    "CORPUS",
    "SuiteReport",
    "corpus_certificates",
    "run_suite",
]
