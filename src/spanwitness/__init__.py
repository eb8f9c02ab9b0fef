"""Three-qubit entanglement witnesses with full spanning properties.

A numpy library around one family of 8x8 block-positive witnesses W(s, t):
construction from a positive bilinear map, verification of block positivity
by see-saw search, the full zero set and its spanning under every partial
conjugation, the X-shaped PPT entangled states the family detects, and the
boundary separable states with full-rank partial transposes it pins down.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DimensionMismatchError,
    InvalidCutError,
    InvalidParamsError,
    NonHermitianMapError,
    NonRealPairingError,
    NotHermitianError,
    OffVarietyError,
    OutOfRangeError,
    SpanWitnessError,
    UsageError,
)
from .linalg import (
    TOLERANCES,
    hermitian_eigenvalues,
    hermiticity_defect,
    numerical_rank,
)
from .tensor import (
    THREE_QUBITS,
    PptReport,
    ProductVector,
    State,
    TensorShape,
    all_subsets,
    flatten,
    is_ppt,
    partial_conjugate,
    partial_transpose,
    state_from,
    subset_complement,
)
from .maps import (
    MultilinearMapTable,
    Witness,
    choi_matrix,
    evaluate,
    map_from_choi,
    pairing,
    value_on_product,
)
from .seesaw import (
    SeeSawResult,
    cut_block_positivity,
    regroup_for_cut,
    seesaw_block_positivity,
)
from .family import (
    CANONICAL,
    ST8_GRID,
    FamilyParams,
    SpanningReport,
    ZeroFamily,
    ZeroSample,
    bilinear_map,
    canonical_ten,
    default_zero_sample,
    determinant_d,
    eighth_root,
    rank_one_projector,
    realize_zero_vector,
    spanning_report,
    witness_matrix,
    zero_pair_and_kernel,
    zeta_vector,
)
from .states import (
    DetectionReport,
    SeparableDecomposition,
    Verdict,
    assemble,
    biseparable_vector,
    detect,
    perturbed_detected_state,
    rho0,
    rho1,
    rho_lambda,
    verify_decomposition,
    x_state,
)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
