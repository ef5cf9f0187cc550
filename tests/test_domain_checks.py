"""The library's domain checks reject NaN with the message of an out-of-range value."""

import math
import re

import pytest

from cventlab import crypto, estimation, fiber, fock_oracle, gaussian_core, interferometry

NAN = math.nan
SCHMIDT = "Schmidt parameter must be in [0, 1), got nan"

# (call, the message of its domain check), one per check that a NaN once passed
CASES = {
    "TwinBeamParams-r0": (lambda: gaussian_core.TwinBeamParams(NAN),
                          "squeezing parameter must be >= 0, got nan"),
    "TwinBeamParams.from_mean_photons-N": (
        lambda: gaussian_core.TwinBeamParams.from_mean_photons(NAN),
        "mean photon number must be >= 0, got nan"),
    # the one Schmidt-parameter check, gaussian_core._schmidt, at each of its callers
    "TwinBeamParams.from_x-x": (lambda: gaussian_core.TwinBeamParams.from_x(NAN), SCHMIDT),
    "heterodyne_variance-x": (lambda: estimation.heterodyne_variance(NAN), SCHMIDT),
    "EstimationSetting-x": (lambda: estimation.EstimationSetting(NAN), SCHMIDT),
    "ProtocolConfig-x": (lambda: crypto.ProtocolConfig(x=NAN, a=0.5, kappa_key=1.0), SCHMIDT),
    "receiver_variance-x": (lambda: crypto.receiver_variance(NAN), SCHMIDT),
    "default_d_max-x": (lambda: fock_oracle.default_d_max(NAN), SCHMIDT),
    "twin_beam_fock-x": (lambda: fock_oracle.twin_beam_fock(NAN, 5), SCHMIDT),
    "with_noise-nbar": (lambda: gaussian_core.TwinBeamFamilyState(0.25, 0.25).with_noise(NAN),
                        "nbar must be >= 0, got nan"),
    "EstimationSetting-nbar_T": (lambda: estimation.EstimationSetting(0.5, nbar_T=NAN),
                                 "nbar_T must be >= 0, got nan"),
    "ProtocolConfig-a": (lambda: crypto.ProtocolConfig(x=0.5, a=NAN, kappa_key=1.0),
                         "a must be >= 0, got nan"),
    "ProtocolConfig-kappa_key": (lambda: crypto.ProtocolConfig(x=0.5, a=0.5, kappa_key=NAN),
                                 "kappa_key must be > 0, got nan"),
    "eve_error_gaussian_key-a": (lambda: crypto.eve_error_gaussian_key(NAN, 1.0),
                                 "a must be >= 0, got nan"),
    "eve_error_gaussian_key-kappa_key": (lambda: crypto.eve_error_gaussian_key(0.5, NAN),
                                         "kappa_key must be > 0, got nan"),
    "splus_numeric-a": (lambda: crypto.splus_numeric(NAN, 1.0), "a must be >= 0, got nan"),
    "splus_numeric-kappa_key": (lambda: crypto.splus_numeric(0.5, NAN),
                                "kappa_key must be > 0, got nan"),
    "bob_heterodyne_error-a": (lambda: crypto.bob_heterodyne_error(0.5, NAN),
                               "a must be >= 0, got nan"),
    "evolve_variances-tau": (lambda: fiber.evolve_variances(1.0, 0.5, NAN),
                             "tau must be >= 0, got nan"),
    "separability_time_rescaled-r0": (lambda: fiber.separability_time_rescaled(0.5, NAN),
                                      "r0 must be > 0, got nan"),
    "separability_time_rescaled-M": (lambda: fiber.separability_time_rescaled(NAN, 1.0),
                                     "M must be >= 0, got nan"),
    "separability_time-Gamma": (lambda: fiber.separability_time(NAN, 0.5, 2.0),
                                "Gamma must be > 0, got nan"),
    "separability_time-N": (lambda: fiber.separability_time(1.0, 0.5, NAN),
                            "N must be > 0, got nan"),
    "separability_time-M": (lambda: fiber.separability_time(1.0, NAN, 2.0),
                            "M must be >= 0, got nan"),
    "separability_time_large_n-Gamma": (lambda: fiber.separability_time_large_n(NAN, 0.5),
                                        "Gamma must be > 0, got nan"),
    "separability_time_large_n-M": (lambda: fiber.separability_time_large_n(1.0, NAN),
                                    "M must be >= 0, got nan"),
    "twin_beam_overlap_sq-N": (lambda: interferometry.twin_beam_overlap_sq(NAN, 0.1),
                               "N must be >= 0, got nan"),
    "acceptance_threshold-gamma_star": (lambda: interferometry.acceptance_threshold(0.01, NAN),
                                        "gamma_star must be >= 1, got nan"),
    "min_detectable_phase_ideal-N": (
        lambda: interferometry.min_detectable_phase_ideal(0.01, 10.0, NAN),
        "N must be > 0, got nan"),
    "mz_min_phase-N": (lambda: interferometry.mz_min_phase(0.01, NAN), "N must be > 0, got nan"),
    "mz_min_phase-target_q_phi": (lambda: interferometry.mz_min_phase(NAN, 10.0),
                                  "target_q_phi must be in (0, 1), got nan"),
    "mz_min_phase_numeric-target_q_phi": (lambda: interferometry.mz_min_phase_numeric(NAN, 0.5),
                                          "target_q_phi must be in (0, 1), got nan"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_nan_fails_the_domain_check(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
