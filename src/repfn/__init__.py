"""Exact representation-function toolkit for finite abelian groups.

Computes R_{A,B} profiles and spectra exactly, builds perfect difference
sets from cubic field extensions, derives extremal subsets with pinned
spectrum shapes, machine-checks the associated inequalities in integer
arithmetic, and searches for additive bases of Z_m with small maximum
representation count.
"""

from .bounds import (
    BoundReport,
    CheckStatus,
    ClaimId,
    SuiteCase,
    SuiteResult,
    ceil_sqrt,
    check_cardinality_bound,
    check_chain_bounds,
    check_quadratic_lemma,
    check_theorem_bounds,
    constructed_inventory,
    random_group,
    random_subset,
    run_verification_suite,
)
from .constructions import (
    ShiftFamilyReport,
    ShiftStat,
    half_period_doubling,
    shift_family_report,
    shifted_doubling,
    sidon_set,
)
from .groups import (
    Group,
    GroupMismatchError,
    GroupSubset,
    InvalidElementError,
    UnsupportedGroupError,
    VerificationError,
    parse_subset,
    read_subset,
    subset_from_json_dict,
    subset_from_text,
)
from .profiles import (
    RepProfile,
    RepSpectrum,
    rep_diff_profile,
    rep_profile,
    spectrum,
)
from .search import (
    RuzsaResult,
    SearchCertificate,
    SearchOutcome,
    SearchStatus,
    exists_basis,
    heuristic_upper_bound,
    make_certificate,
    ruzsa_number,
)
from .singer import (
    DEFAULT_PRIME_BOUND,
    PerfectDifferenceSet,
    is_prime,
    singer_set,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckStatus",
    "ClaimId",
    "DEFAULT_PRIME_BOUND",
    "Group",
    "GroupMismatchError",
    "GroupSubset",
    "InvalidElementError",
    "PerfectDifferenceSet",
    "RepProfile",
    "RepSpectrum",
    "RuzsaResult",
    "SearchCertificate",
    "SearchOutcome",
    "SearchStatus",
    "ShiftFamilyReport",
    "ShiftStat",
    "SuiteCase",
    "SuiteResult",
    "UnsupportedGroupError",
    "VerificationError",
    "ceil_sqrt",
    "check_cardinality_bound",
    "check_chain_bounds",
    "check_quadratic_lemma",
    "check_theorem_bounds",
    "constructed_inventory",
    "exists_basis",
    "half_period_doubling",
    "heuristic_upper_bound",
    "is_prime",
    "make_certificate",
    "parse_subset",
    "random_group",
    "random_subset",
    "read_subset",
    "rep_diff_profile",
    "rep_profile",
    "run_verification_suite",
    "ruzsa_number",
    "shift_family_report",
    "shifted_doubling",
    "sidon_set",
    "singer_set",
    "spectrum",
    "subset_from_json_dict",
    "subset_from_text",
]
