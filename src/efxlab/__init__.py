"""Desk-scale workbench for quantum key recovery on whitened block-cipher
constructions: exact circuit simulation, database-reuse attacks, classical
baselines, and security-bound evaluators."""

from .ciphers import (
    ConstructionKind,
    IdealCipher,
    KeyMaterial,
    Permutation,
    derive_related_key,
    derive_seed,
    make_construction,
    make_ideal_cipher,
    make_permutation,
)
from .gf2 import PeriodResult, dot, nullspace_basis, rank, recover_period
from .offline_simon import (
    AttackReport,
    QueryDatabase,
    build_database_cpa,
    build_database_kpa,
    database_overlap,
    em_q2_attack,
    fidelity_bound,
    generalized_offline_simon,
    grover_meets_simon_attack,
    offline_simon_attack,
)
from .qsim import (
    MeasurementOutcome,
    amplitude_amplify,
    amplify_success_probability,
    grover_iterations,
    simon_full,
    simon_samples,
    simon_subroutine,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
