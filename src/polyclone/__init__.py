"""Finite relational structures, their near-unanimity polymorphisms, and
machine-checkable lower-bound certificates."""

from .relations import (
    BudgetExceededError,
    Domain,
    OpTable,
    Relation,
    Structure,
    blocks,
    compose,
    converse,
    equivalence_from_blocks,
    is_equivalence,
    table_compatible,
)
from .structures import (
    SpecA,
    SpecB,
    bounds,
    chain_matches_congruence_a,
    chain_matches_congruence_b,
    congruence,
    domain_a,
    domain_b,
    gen_r,
    gen_r_b,
    gen_s,
    lower_bound,
    structure_a,
    structure_b,
    upper_bound,
)
from .witness import (
    SymmetricOp,
    is_nu_symmetric,
    random_composition,
    witness_a,
    witness_b,
)
from .compat import (
    ColumnMultiset,
    Verdict,
    check_compat_sampled,
    check_compat_symmetric,
    row_counts,
)
from .indicator import (
    SolveReport,
    build_indicator,
    decide_nu,
    solve,
    verify_witness_table,
)
from .trace import (
    CheckReport,
    TraceCertificate,
    certificate_from_json,
    certificate_to_json,
    certify_lower_bound_a,
    certify_lower_bound_b,
    check_certificate,
    check_certificate_json,
    write_certificate_json,
)

__version__ = "0.1.0"
