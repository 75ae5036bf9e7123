"""biquad: exact certificates of nonnegativity for structured biquadratic
tensors, with numerical probes for everything the exact layer cannot decide.
"""

from .core import (
    BilinearForm,
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    permutation_invariant,
    rational,
    sample_min,
    symmetrize,
    tensors_equal,
)
from .classes import (
    ClassReport,
    classify,
    gen_tensor,
    is_b0_tensor,
    is_z_tensor,
    lambda_max_estimate,
    m_identity,
    z_split,
)
from .dominance import (
    NotDiagonallyDominantError,
    dd_sos_decompose,
    flatten,
    is_diagonally_dominated,
    row_bound,
)
from .gram import (
    GramPoint,
    SOSProbeResult,
    choi_form,
    conjecture_sweep,
    flattening_psd_check,
    gram_project_psd,
    sos_probe,
)
from .monic import (
    barycentric,
    m_eigen_monic,
    membership_equivalence_check,
    monic_sos_decompose,
    psd_conditions,
    symmetric_sos_decompose,
    tetrahedron,
    vertex_sos,
)

__version__ = "0.1.0"
