"""biquad: exact certificates of nonnegativity for structured biquadratic
tensors, with numerical probes for everything the exact layer cannot decide.
The float layer's names (``classes``, ``gram``) load on first use.
"""

import importlib

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
from .dominance import (
    NotDiagonallyDominantError,
    dd_sos_decompose,
    flatten,
    is_diagonally_dominated,
    row_bound,
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

_FLOAT_NAMES = {
    "classes": ("ClassReport", "classify", "gen_tensor", "is_b0_tensor", "is_z_tensor",
                "lambda_max_estimate", "m_identity", "z_split"),
    "gram": ("GramPoint", "SOSProbeResult", "choi_form", "conjecture_sweep",
             "flattening_psd_check", "gram_project_psd", "sos_probe"),
}
_FLOAT_HOME = {name: module for module, names in _FLOAT_NAMES.items() for name in names}


def __getattr__(name):
    if name in _FLOAT_HOME:
        return getattr(importlib.import_module(f"{__name__}.{_FLOAT_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
