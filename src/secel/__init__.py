"""secel: verifiable secure aggregation for federated gradient updates.

Threshold secret sharing over a prime field, one-time-pad masking with a
homomorphic MAC so an untrusted aggregator's sums can be checked, dropout
recovery, an exponent-carried variant that amortizes setup across rounds,
and a deterministic multi-party simulator to run full protocol rounds.
"""

from .algebra import (
    DEFAULT_PRIME,
    MERSENNE_61,
    FixedPointCodec,
    PrimeModulus,
    SymBivarPoly,
    UniPoly,
    lagrange_at,
    lagrange_at_zero,
)
from .errors import SecelError
from .fedlearn import TrainConfig, dropout_experiment, secure_global_aggregate, train
from .group_variant import DEFAULT_GROUP, TOY_GROUP, GroupParams
from .protocol import RoundSpec, RoundState, ScenarioResult, run_rounds, run_setup
from .simnet import Fault, SimConfig, Transcript, derive_seed

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GROUP",
    "DEFAULT_PRIME",
    "MERSENNE_61",
    "TOY_GROUP",
    "Fault",
    "FixedPointCodec",
    "GroupParams",
    "PrimeModulus",
    "RoundSpec",
    "RoundState",
    "ScenarioResult",
    "SecelError",
    "SimConfig",
    "SymBivarPoly",
    "TrainConfig",
    "Transcript",
    "UniPoly",
    "derive_seed",
    "dropout_experiment",
    "lagrange_at",
    "lagrange_at_zero",
    "run_rounds",
    "run_setup",
    "secure_global_aggregate",
    "train",
    "__version__",
]
