"""Tunneling of momentum wave packets through a high 1-D Coulomb barrier.

Log-domain evaluation of the packet-averaged transmission probability for
generalized-Gaussian momentum packets.  evaluate and evaluate_many give
every ln T, by double-exponential quadrature, a steepest-descent closed
form or the exact Bessel-K1 form for gamma = 1, as the query's method
picks; ln_T_from_table averages over user-tabulated densities.

The package root exports the functions README names and the types their
arguments and results need; everything else is imported from its module.
"""

from .correlation import (
    CorrelatedPacket,
    ScalingComparison,
    scaling_compare,
    sigma_p_of_r,
)
from .errors import ConvergenceError, DomainError, RangeError, RegimeError
from .packet import PacketShape, log_density
from .physical import BarrierScale, ParticleSpec, big_A, little_a
from .specfun import LogMagnitude, log_bessel_k1
from .transmission import (
    BarrierQuery,
    TransmissionResult,
    central_moment,
    evaluate,
    evaluate_many,
    planewave_validity,
    saddle_point_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BarrierQuery",
    "BarrierScale",
    "ConvergenceError",
    "CorrelatedPacket",
    "DomainError",
    "LogMagnitude",
    "PacketShape",
    "ParticleSpec",
    "RangeError",
    "RegimeError",
    "ScalingComparison",
    "TransmissionResult",
    "big_A",
    "central_moment",
    "evaluate",
    "evaluate_many",
    "little_a",
    "log_bessel_k1",
    "log_density",
    "planewave_validity",
    "saddle_point_numeric",
    "scaling_compare",
    "sigma_p_of_r",
]
