"""secel: verifiable secure aggregation for federated gradient updates.

Threshold secret sharing over a prime field, one-time-pad masking with a
homomorphic MAC so an untrusted aggregator's sums can be checked, dropout
recovery, an exponent-carried variant that amortizes setup across rounds,
and a deterministic multi-party simulator to run full protocol rounds.

The training code (`TrainConfig`, `train`, `dropout_experiment`,
`secure_global_aggregate`) loads on first use, so a process that only runs
rounds never compiles `secel.fedlearn`.
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
from .group_variant import DEFAULT_GROUP, TOY_GROUP, GroupParams
from .protocol import RoundSpec, RoundState, ScenarioResult, run_rounds, run_setup
from .simnet import Fault, SimConfig, Transcript, derive_seed

__version__ = "0.1.0"

_TRAINING = frozenset({"TrainConfig", "dropout_experiment", "secure_global_aggregate", "train"})


def __getattr__(name: str):
    """Resolve the training names from `secel.fedlearn`, importing it on first use."""
    if name in _TRAINING:
        from . import fedlearn

        return getattr(fedlearn, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
