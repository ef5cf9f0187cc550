"""Continuous-variable entanglement toolkit.

Twin-beam (two-mode squeezed vacuum) states as EPR variances, a truncated
Fock-space brute-force engine, and the closed-form results they support:
displacement estimation with Gaussian noise, minimum-error discrimination of
unitaries, Neyman-Pearson interferometry, twin-beam secret-key communication,
and entanglement degradation in active fibers.
"""

from cventlab.gaussian_core import (
    TwinBeamFamilyState,
    TwinBeamParams,
    NoiseParams,
    make_twin_beam,
    heterodyne_mean_and_variance,
    sample_heterodyne,
    ppt_separable,
)

__version__ = "0.1.0"

__all__ = [
    "TwinBeamFamilyState",
    "TwinBeamParams",
    "NoiseParams",
    "make_twin_beam",
    "heterodyne_mean_and_variance",
    "sample_heterodyne",
    "ppt_separable",
    "__version__",
]
