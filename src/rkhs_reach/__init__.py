"""Reach-avoid probability estimation from sampled transitions.

The package fits a kernel-ridge conditional-expectation estimator to
one-step transition data of a stochastic system and runs the backward
reach-avoid recursion on it, with a dense-grid recursion and a Monte
Carlo simulator as independent reference oracles. See the README for the
command-line interface.
"""

from ._backend import active_backend
from .embedding import Embedding, TransitionSample
from .errors import (
    FileFormatError,
    InputError,
    NumericalError,
    RKHSReachError,
)
from .kernels import RBFKernel
from .oracle import dp_reach, mc_reach
from .reach import (
    AffinePolicy,
    BoxSet,
    ConstantPolicy,
    PredicateSet,
    ReachProblem,
    ValueField,
    ZeroPolicy,
    value_recursion,
    value_recursion_max,
)
from .systems import (
    BetaDisturbance,
    BoxSampler,
    CWHSystem,
    GaussianDisturbance,
    IntegratorChain,
    ZeroDisturbance,
    cwh_lqr_policy,
    cwh_sets,
    generate_transitions,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "active_backend",
    "Embedding",
    "TransitionSample",
    "RKHSReachError",
    "InputError",
    "NumericalError",
    "FileFormatError",
    "RBFKernel",
    "dp_reach",
    "mc_reach",
    "BoxSet",
    "PredicateSet",
    "ReachProblem",
    "ValueField",
    "value_recursion",
    "value_recursion_max",
    "AffinePolicy",
    "BetaDisturbance",
    "BoxSampler",
    "ConstantPolicy",
    "CWHSystem",
    "GaussianDisturbance",
    "IntegratorChain",
    "ZeroDisturbance",
    "ZeroPolicy",
    "cwh_lqr_policy",
    "cwh_sets",
    "generate_transitions",
]
