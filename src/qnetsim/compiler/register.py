"""Local quantum registers used during protocol compilation.

Each unit has four attributes: qubit (the global circuit register index
this unit currently owns, or None), outcome (the register index recorded
when the unit was measured), identifier (the node the qubit came from)
and address (the unit's local index).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RegisterUnit:
    address: int
    owner: str
    qubit: int | None = None
    outcome: int | None = None
    identifier: str | None = None

    def __post_init__(self):
        if self.identifier is None:
            self.identifier = self.owner

    def reset(self):
        self.qubit = None
        self.identifier = self.owner


class LocalRegister:
    def __init__(self, node: str, size: int):
        self.node = node
        self.units = [RegisterUnit(address=a, owner=node) for a in range(size)]

    def __getitem__(self, address) -> RegisterUnit:
        try:
            if address >= 0:  # a negative index would count from the end
                return self.units[address]
        except (IndexError, TypeError):
            pass
        raise ValueError(f"node {self.node!r} has no register unit at address {address!r}")

    def __len__(self):
        return len(self.units)

    def first_empty(self) -> RegisterUnit:
        for unit in self.units:
            if unit.qubit is None:
                return unit
        raise ValueError(f"local register of node {self.node!r} is full")
