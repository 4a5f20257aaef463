"""Tunneling of momentum wave packets through a high 1-D Coulomb barrier.

Log-domain evaluation of the packet-averaged transmission probability for
generalized-Gaussian momentum packets: exact adaptive quadrature, a
steepest-descent closed form, the exact Bessel-K1 form for gamma = 1, and
trapezoid averaging of user-tabulated densities.
"""

from .correlation import (
    CorrelatedPacket,
    ScalingComparison,
    leading_exponent_gamma2,
    scaling_compare,
    sigma_p_of_r,
)
from .errors import (
    AcceptanceDataError,
    ConvergenceError,
    DomainError,
    RangeError,
    RegimeError,
    TableFormatError,
)
from .packet import (
    DensityTable,
    PacketShape,
    central_moment,
    log_density,
    read_density_table,
    shape_constants,
)
from .physical import (
    AMU_EV,
    DEUTERON_MASS_AMU,
    ELECTRON_MASS_AMU,
    FINE_STRUCTURE,
    BarrierScale,
    ParticleSpec,
    big_A,
    little_a,
    v0_over_c,
)
from .specfun import (
    LogMagnitude,
    log_bessel_k1,
    log_bessel_k1_asymptotic,
    log_gamma,
    log_sum_exp,
)
from .transmission import (
    BarrierQuery,
    TransmissionResult,
    G_param,
    evaluate,
    evaluate_many,
    ln_T_bessel_gamma1,
    ln_T_from_table,
    ln_T_quadrature,
    ln_T_steepest,
    log_integrand,
    plane_wave_log_D,
    planewave_validity,
    saddle_point_approx,
    saddle_point_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AMU_EV",
    "DEUTERON_MASS_AMU",
    "ELECTRON_MASS_AMU",
    "FINE_STRUCTURE",
    "AcceptanceDataError",
    "BarrierQuery",
    "BarrierScale",
    "ConvergenceError",
    "CorrelatedPacket",
    "DensityTable",
    "DomainError",
    "G_param",
    "LogMagnitude",
    "PacketShape",
    "ParticleSpec",
    "RangeError",
    "RegimeError",
    "ScalingComparison",
    "TableFormatError",
    "TransmissionResult",
    "big_A",
    "central_moment",
    "evaluate",
    "evaluate_many",
    "leading_exponent_gamma2",
    "little_a",
    "ln_T_bessel_gamma1",
    "ln_T_from_table",
    "ln_T_quadrature",
    "ln_T_steepest",
    "log_bessel_k1",
    "log_bessel_k1_asymptotic",
    "log_density",
    "log_gamma",
    "log_integrand",
    "log_sum_exp",
    "plane_wave_log_D",
    "planewave_validity",
    "read_density_table",
    "saddle_point_approx",
    "saddle_point_numeric",
    "scaling_compare",
    "shape_constants",
    "sigma_p_of_r",
    "v0_over_c",
]
