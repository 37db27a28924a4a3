"""Numerical laboratory for exact eigenvalue correlation kernels of
Gaussian perturbations of deterministic matrices, the free-convolution
quantities that govern their local scaling limits, and the associated
gap probabilities."""

__version__ = "0.1.0"

from .measures import (  # noqa: F401
    InitialConfiguration,
    MeasureSpec,
    insert_gap,
    kolmogorov_distance,
    quantiles,
    rigidity,
)
from .freeconv import (  # noqa: F401
    FreeConvolutionState,
    Window,
    forward_map,
    gap_window,
    hilbert_transform,
    inverse_map,
    make_window,
    psi_t,
    stieltjes,
    t_critical,
    y_t,
)
from .kernel import (  # noqa: F401
    KernelEvaluator,
    RescaledKernelFrame,
    biorthogonality_check,
    correlation_function,
    frame_to_json,
    gauge_free_deviation,
    gauge_to_paper,
    kernel_lagrange,
    kernel_matrix,
    kernel_paper,
    kernel_trace,
    lagrange_p_hat,
    projection_defect,
    rescaled_kernel,
    sine_kernel,
    sup_sine_deviation,
)
from .fredholm import (  # noqa: F401
    GapProblem,
    GapResult,
    gap_probability,
    sine_gap,
)
from .montecarlo import (  # noqa: F401
    DensityHistogram,
    EigenSolveReport,
    GueSampler,
    dbm_paths,
    eigenvalues,
    empirical_density,
    empirical_gap_frequency,
    paths_csv,
    sample_perturbed,
    sample_spectra,
)
from .threads import default_threads  # noqa: F401
