"""Continuous-variable entanglement toolkit.

Twin-beam (two-mode squeezed vacuum) states as EPR variances, a truncated
Fock-space brute-force engine, and the closed-form results they support:
displacement estimation with Gaussian noise, minimum-error discrimination of
unitaries, Neyman-Pearson interferometry, twin-beam secret-key communication,
and entanglement degradation in active fibers.
"""

__version__ = "0.1.0"
