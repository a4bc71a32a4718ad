"""Steady-state analysis and bias optimization for renewable-powered cellular networks.

The package couples a battery/channel Markov chain per base station with a
stochastic-geometry downlink model, closes the loop between cell loads and
battery statistics by fixed-point iteration, and searches association-bias
vectors that maximize carbon efficiency under a success-probability floor.
"""

__version__ = "0.1.0"

from .config import ConfigError, NetworkConfig, load_config
from .numerics import NumericError
from .qbd import SolverError

__all__ = [
    "ConfigError",
    "NetworkConfig",
    "NumericError",
    "SolverError",
    "load_config",
    "__version__",
]
