"""Distribution toolkit for the generalized SVD of complex Gaussian pairs.

Four layers: random ensembles (:mod:`gsvdist.ensembles`), the structural and
numerical GSVD machinery (:mod:`gsvdist.engine`), closed-form eigenvalue
laws (:mod:`gsvdist.laws`), and the Monte Carlo verification harness
(:mod:`gsvdist.montecarlo`), fronted by a CLI (:mod:`gsvdist.cli`).
"""

__version__ = "0.1.0"

from .engine import (
    GsvdFactors,
    GsvdSpectrum,
    GsvdStructure,
    ProblemDims,
    ReducedDims,
    Regime,
    compute_structure,
    expected_q_power,
    gsvd_factorize,
    gsvd_spectrum,
    gsvd_spectrum_direct,
    q_power_trace,
    reduced_dims,
)
from .ensembles import RngStream, sample_ginibre, sample_haar_unitary
from .laws import (
    LawParams,
    joint_pdf,
    law_params,
    log_mvgamma,
    log_norm_constant,
    marginal_cdf,
    marginal_pdf,
    marginal_pdf_reciprocal,
)
from .montecarlo import (
    Experiment,
    KsReport,
    MeanReport,
    SampleBatch,
    SamplerId,
    VerificationReport,
    alpha_sq_to_w,
    ks_one_sample,
    ks_two_sample,
    mean_report,
    run_experiment,
    sample_alpha_haar,
    sample_q_power,
    sample_w_fmatrix,
    sample_w_gsvd,
    scalar_samples,
)
from .quadrature import quadrature_integrate

__all__ = [
    "__version__",
    "Experiment",
    "GsvdFactors",
    "GsvdSpectrum",
    "GsvdStructure",
    "KsReport",
    "LawParams",
    "MeanReport",
    "ProblemDims",
    "ReducedDims",
    "Regime",
    "RngStream",
    "SampleBatch",
    "SamplerId",
    "VerificationReport",
    "alpha_sq_to_w",
    "compute_structure",
    "expected_q_power",
    "gsvd_factorize",
    "gsvd_spectrum",
    "gsvd_spectrum_direct",
    "joint_pdf",
    "ks_one_sample",
    "ks_two_sample",
    "law_params",
    "log_mvgamma",
    "log_norm_constant",
    "marginal_cdf",
    "marginal_pdf",
    "marginal_pdf_reciprocal",
    "mean_report",
    "q_power_trace",
    "quadrature_integrate",
    "reduced_dims",
    "run_experiment",
    "sample_alpha_haar",
    "sample_ginibre",
    "sample_haar_unitary",
    "sample_q_power",
    "sample_w_fmatrix",
    "sample_w_gsvd",
    "scalar_samples",
]
