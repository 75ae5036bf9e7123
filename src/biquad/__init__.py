"""biquad: exact certificates of nonnegativity for structured biquadratic
tensors, with numerical probes for everything the exact layer cannot decide.
The float layer's names (``classes``, ``gram``) load on first use.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` at once and its
    body run on first attribute access (``importlib.util.LazyLoader``): only
    the work that uses a float module imports numpy, while perfbench's
    tracer still finds every module in ``sys.modules``."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# registered before `core` and `cli` import them by name
kernels, classes, gram = _lazy("kernels"), _lazy("classes"), _lazy("gram")

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
             "flattening_psd_check", "sos_probe"),
}
_FLOAT_HOME = {name: module for module, names in _FLOAT_NAMES.items() for name in names}


def __getattr__(name):
    if name in _FLOAT_HOME:
        return getattr(globals()[_FLOAT_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
