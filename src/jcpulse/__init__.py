"""Exact qubit-control errors under finite-strength quantized fields.

The package evaluates the resonant Jaynes-Cummings interaction between a
two-level system and a single field mode through its closed-form Kraus
map, and compares the exact control error against its 1/N asymptotics.
"""

__version__ = "0.1.0"

from .fock_field import (
    DEFAULT_TAIL_TOL,
    CoherentField,
    FieldState,
    central_moments_direct,
    central_moments_recursive,
    make_coherent,
    make_number_state,
)
from .jc_channel import (
    KrausSet,
    PulseSpec,
    QubitState,
    apply_channel,
    bloch_rotation,
    build_kraus,
    classical_limit_distance,
)
from .error_metrics import (
    PULSE_MODES,
    ControlSpec,
    asymptote,
    asymptotic_p,
    error_rate_exact,
    error_report,
    gea_banacloche,
    landscape_asymptote,
    ozawa_bound,
    resolve_pulse,
)
from .pulse_sequence import (
    SequenceComparison,
    SequenceReport,
    compare_sequence_vs_single,
    run_sequence,
)

__all__ = [
    "DEFAULT_TAIL_TOL",
    "PULSE_MODES",
    "CoherentField",
    "ControlSpec",
    "FieldState",
    "KrausSet",
    "PulseSpec",
    "QubitState",
    "SequenceComparison",
    "SequenceReport",
    "apply_channel",
    "asymptote",
    "asymptotic_p",
    "bloch_rotation",
    "build_kraus",
    "central_moments_direct",
    "central_moments_recursive",
    "classical_limit_distance",
    "compare_sequence_vs_single",
    "error_rate_exact",
    "error_report",
    "gea_banacloche",
    "landscape_asymptote",
    "make_coherent",
    "make_number_state",
    "ozawa_bound",
    "resolve_pulse",
    "run_sequence",
    "__version__",
]
