from .bb84 import bb84_generate, decoy_bb84_generate, BB84Result, DecoyResult
from .keypool import KeyPool
from .chsh import (
    chsh_referee,
    chsh_play,
    chsh_circuit,
    chsh_quantum_probs,
    CLASSICAL_OPTIMAL_WIN_RATE,
    QUANTUM_OPTIMAL_WIN_RATE,
)
from .teleport import QubitManager, teleport, entanglement_swap, bell_pair
from .qkd_network import KeyRequest, KeyDistributionNetwork, build_chain_network

__all__ = [
    "bb84_generate",
    "decoy_bb84_generate",
    "BB84Result",
    "DecoyResult",
    "KeyPool",
    "chsh_referee",
    "chsh_play",
    "chsh_circuit",
    "chsh_quantum_probs",
    "CLASSICAL_OPTIMAL_WIN_RATE",
    "QUANTUM_OPTIMAL_WIN_RATE",
    "QubitManager",
    "teleport",
    "entanglement_swap",
    "bell_pair",
    "KeyRequest",
    "KeyDistributionNetwork",
    "build_chain_network",
]
