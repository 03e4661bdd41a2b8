"""Randomized matrix skeletonization, randomized SVD, and canonical-angle
bounds, with seeded reproducible experiment drivers."""

from .dense import (
    PivotedLU,
    PivotedQR,
    ThinSVD,
    cpqr,
    lupp,
    qr_ortho,
    spectral_norm_estimate,
    svd_thin,
)
from .sketch import (
    GaussianSketch,
    SparseSignSketch,
    SrttSketch,
    make_embedding,
    make_gaussian,
    make_sparse_sign,
    make_srtt,
    sketch_rows,
)
from .rangefinder import (
    LowRankSVD,
    power_iter_plain,
    power_iter_stable,
    randomized_svd,
    rangefinder_error,
)
from .skeleton import (
    ColumnID,
    CurFactors,
    RowID,
    SkeletonResult,
    TwoSidedID,
    build_column_id,
    build_cur_stable,
    build_row_id,
    build_two_sided_id,
    estimate_cur_from_skeletons,
    posterior_eta,
    select_columns_cpqr,
    select_columns_lupp,
    select_deim,
    select_leverage,
    select_streaming,
    streaming_interp_coeffs,
)
from .angles import (
    BalanceConfig,
    EstimateReport,
    PosteriorGapReport,
    PosteriorResiduals,
    PriorBoundInputs,
    PriorBounds,
    balance_phi,
    balance_phi_from_l,
    canonical_angles,
    canonical_angles_cos,
    default_distortions,
    pad_spectrum,
    posterior_gap,
    posterior_residuals,
    posterior_simple,
    prior_reference_bound,
    prior_space_agnostic,
    tail_flatness,
    unbiased_estimates,
)
from .testmat import (
    ExplicitSpectrum,
    FastDecay,
    ImplicitSnnOperator,
    SlowDecay,
    SnnParams,
    StepSpectrum,
    gen_gaussian_spectrum,
    gen_snn,
    gen_snn_operator,
    load_csv,
    save_csv,
    snn_weights,
    spectrum_values,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
