"""Circuit instructions and circuits.

Every instruction is the quadruple (name, regs, params, cond): the gate
name, the global register(s) it acts on (control first for two-qubit
gates), optional angle parameters, and an optional register whose
recorded measurement outcome conditions the gate (applied iff the
outcome is 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .gates import GATE_NAMES, gate_arity


@dataclass(frozen=True)
class CircuitInstruction:
    name: str
    regs: tuple
    params: tuple | None = None
    cond: int | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        regs = tuple(int(r) for r in (self.regs if isinstance(self.regs, (tuple, list))
                                      else (self.regs,)))
        object.__setattr__(self, "regs", regs)
        if self.params is not None:
            object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if any(r < 0 for r in regs):
            raise ValueError("register indices must be non-negative")
        if len(regs) != gate_arity(self.name):
            raise ValueError(f"gate {self.name!r} expects {gate_arity(self.name)} "
                             f"register(s), got {regs}")
        if len(set(regs)) != len(regs):
            raise ValueError("two-qubit registers must be distinct")
        if self.name == "measure":
            if self.params:
                raise ValueError("measure carries no parameters")
            if self.cond is not None:
                raise ValueError("a conditioned measurement is not supported")

    def to_json_obj(self):
        return {"name": self.name, "regs": list(self.regs),
                "params": list(self.params) if self.params else None,
                "cond": self.cond}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(name=obj["name"], regs=tuple(obj["regs"]),
                   params=tuple(obj["params"]) if obj.get("params") else None,
                   cond=obj.get("cond"))


class Circuit:
    """Ordered list of instructions; dynamic or standard.

    Add instructions through `append` (or `add`), which keeps the width
    up to date.
    """

    def __init__(self, instructions=None):
        self.instructions = []
        self._width = 0
        for inst in instructions or ():
            self.append(inst)

    @property
    def width(self) -> int:
        """One more than the highest register used (0 when empty)."""
        return self._width

    def append(self, inst: CircuitInstruction):
        self.instructions.append(inst)
        self._width = max(self._width, max(inst.regs) + 1)

    # convenience builders
    def add(self, name, regs, params=None, cond=None):
        self.append(CircuitInstruction(name, regs if isinstance(regs, (tuple, list))
                                       else (regs,), params, cond))
        return self

    def validate(self):
        """Check measurement/conditioning discipline."""
        measured = set()
        for i, inst in enumerate(self.instructions):
            for r in inst.regs:
                if r in measured:
                    raise ValueError(
                        f"instruction {i}: register {r} used after its measurement")
            if inst.cond is not None and inst.cond not in measured:
                raise ValueError(
                    f"instruction {i}: cond register {inst.cond} not measured earlier")
            if inst.name == "measure":
                reg = inst.regs[0]
                if reg in measured:
                    raise ValueError(f"instruction {i}: register {reg} measured twice")
                measured.add(reg)
        return self

    @property
    def measured_regs(self):
        return sorted(inst.regs[0] for inst in self.instructions
                      if inst.name == "measure")

    # ---- JSON wire format ----------------------------------------------
    def to_json(self) -> str:
        return json.dumps([inst.to_json_obj() for inst in self.instructions], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls([CircuitInstruction.from_json_obj(o) for o in json.loads(text)])

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __eq__(self, other):
        return isinstance(other, Circuit) and self.instructions == other.instructions

    def __repr__(self):
        return f"Circuit({len(self.instructions)} instructions, width={self.width})"
