"""Exact-arithmetic toolkit certifying that the integral cohomology of the
generalized Kummer fourfold K2(A) is torsion free.

The pieces: exact linear algebra over Z and F_p (`linalg`), the Jordan-type
calculus of unipotent mod-3 actions (`jordan`), group cohomology of Z/3 on
lattices (`cohomology`), the rank-8 lattice model and its vanishing
certificate (`kummer`), a replayable certificate checker (`ledger`), the
shipped proof script (`proofscript`), and a CLI (`cli`).
"""

from .cohomology import (
    LatticeAction,
    cohomology_closed_form,
    cohomology_snf,
    fixed_points,
    jordan_type_mod3,
    random_conjugated_block_action,
    random_unimodular,
)
from .jordan import (
    JordanType,
    NotUnipotentError,
    direct_sum,
    jordan_type_unipotent,
    realize,
    tensor,
    types_up_to_dim,
    wedge,
)
from .kummer import (
    CertificateFailure,
    KummerContext,
    KummerModel,
    MismatchError,
    VANISHING_PAIRS,
    build_context,
    build_model,
    build_sigma_h1,
    coefficient_action,
    ell_table,
    ell_table_routes,
    fixed_rank_table,
    vanishing_certificate,
)
from .ledger import (
    Axiom,
    Claim,
    Fact,
    FactStore,
    GroupRef,
    InconsistentFactError,
    LedgerError,
    MissingInputError,
    ParameterMismatchError,
    Report,
    Script,
    ScriptFormatError,
    SpaceDecl,
    Step,
    UnknownRuleError,
    apply_rule,
    check_script,
    leaf_facts_from_computation,
    parse_script,
    script_to_json_dict,
    without_axiom,
    without_step,
)
from .linalg import (
    BadDegreeError,
    ExactSolveError,
    FinAbGroup,
    FpMatrix,
    IntMatrix,
    InvariantError,
    cokernel,
    exterior_power,
    kernel_basis,
    kronecker,
    rank_fp,
    smith_normal_form,
    solve_exact,
)
from .proofscript import build_script, load_shipped_script

__version__ = "0.1.0"
