"""Finite-semigroup analysis: Green's relations, class-poset heights,
structural predicates, extremal constructions, and a claim-checking harness."""

from .constructions import (
    FIXTURE_NAMES,
    asym_family,
    fixture,
    nm_family,
    rees_quotient,
    squarefree_words,
    u_of,
)
from .core import (
    FiniteSemigroup,
    Ideal,
    adjoin_identity,
    build_semigroup,
    direct_product,
    format_mtab,
    ideal_closure,
    opposite,
    parse_mtab,
    parse_mtab_stream,
)
from .enumeration import (
    EnumerationConfig,
    canonical_table,
    enumerate_semigroups,
    random_transformation_subsemigroup,
)
from .errors import (
    AssociativityError,
    EmptyIdealError,
    InternalCheckError,
    InvalidIdealError,
    NoZeroError,
    ParseError,
    RangeError,
    SemigroupError,
    UnknownFixtureError,
)
from .green import (
    ORDERED_RELATIONS,
    RELATIONS,
    GreenStructure,
    HeightReport,
    height_within_ideal,
    idempotent_height,
    k_classes,
    k_height,
    longest_chain_elements,
    longest_chain_oracle,
    preorder,
    to_dot,
)
from .structure import (
    PrincipalFactor,
    group_bound_exponents,
    is_0_simple,
    is_completely_0_simple,
    is_completely_semisimple,
    is_completely_simple,
    is_group_bound,
    is_inverse,
    is_left_stable,
    is_regular,
    is_right_stable,
    is_semisimple,
    is_simple,
    is_stable,
    left_socle,
    minimal_ideal,
    principal_factors,
    right_socle,
    zero_minimal_classes,
)
from .verify import (
    CLAIM_IDS,
    CLAIM_STATEMENTS,
    ClaimResult,
    SweepSummary,
    Violation,
    analyze,
    check_claims,
    sweep,
)

__version__ = "0.1.0"
