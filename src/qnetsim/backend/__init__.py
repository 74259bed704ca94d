from .gates import gate_matrix, gate_arity, controlled_name, GATE_NAMES
from .circuit import Circuit, CircuitInstruction
from .statevector import StateVector
from .simulator import run_circuit, exact_state, is_standard, histogram_to_csv

__all__ = [
    "gate_matrix",
    "gate_arity",
    "controlled_name",
    "GATE_NAMES",
    "Circuit",
    "CircuitInstruction",
    "StateVector",
    "run_circuit",
    "exact_state",
    "is_standard",
    "histogram_to_csv",
]
