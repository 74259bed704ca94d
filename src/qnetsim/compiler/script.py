"""Protocol scripts: the instruction stream the compiler consumes.

A script is a causally ordered global list of instructions across all
nodes.  Conditions are written as (node, address) references to a
measured local unit, never as raw circuit register indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class LocalOp:
    node: str
    name: str
    addr: object  # int or (addr0, addr1) with control first
    params: tuple | None = None
    cond: tuple | None = None  # (node, address) of a measured unit

    @property
    def is_double(self):
        return isinstance(self.addr, (tuple, list))


@dataclass(frozen=True)
class Transmit:
    src: str
    dst: str
    addr: int


@dataclass(frozen=True)
class ClassicalSend:
    src: str
    dst: str
    ref: tuple  # (node, address) of the measured unit whose outcome is sent


def dump_script(instructions) -> str:
    objs = []
    for inst in instructions:
        if isinstance(inst, LocalOp):
            objs.append({"kind": "local", "node": inst.node, "name": inst.name,
                         "addr": list(inst.addr) if inst.is_double else inst.addr,
                         "params": list(inst.params) if inst.params else None,
                         "cond": list(inst.cond) if inst.cond else None})
        elif isinstance(inst, Transmit):
            objs.append({"kind": "transmit", "src": inst.src, "dst": inst.dst,
                         "addr": inst.addr})
        elif isinstance(inst, ClassicalSend):
            objs.append({"kind": "classical", "src": inst.src, "dst": inst.dst,
                         "ref": list(inst.ref)})
        else:
            raise TypeError(f"not a protocol instruction: {inst!r}")
    return json.dumps(objs, indent=2)


def _has_bool(value):
    """Whether a JSON value holds a true or false: no field takes one, and
    an int() pattern would match it."""
    return isinstance(value, bool) or isinstance(value, (dict, list)) and any(
        map(_has_bool, value.values() if isinstance(value, dict) else value))


def _instruction(index, obj):
    """The instruction of one JSON object as `dump_script` writes it;
    ValueError when its kind is unknown or a field is missing or ill-shaped."""
    # a local op's "params" and "cond" may be absent
    match ({"params": None, "cond": None, **obj}
           if isinstance(obj, dict) and not _has_bool(obj) else None):
        case {"kind": "local", "node": str(node), "name": str(name),
              "addr": int() | [int(), int()] as addr, "params": None | list() as params,
              "cond": None | [str(), int()] as cond} if all(
                  isinstance(p, (int, float)) for p in params or ()):
            return LocalOp(node, name, tuple(addr) if isinstance(addr, list) else addr,
                           tuple(params) if params else None, tuple(cond) if cond else None)
        case {"kind": "transmit", "src": str(src), "dst": str(dst), "addr": int(addr)}:
            return Transmit(src, dst, addr)
        case {"kind": "classical", "src": str(src), "dst": str(dst),
              "ref": [str(), int()] as ref}:
            return ClassicalSend(src, dst, tuple(ref))
    raise ValueError(f"instruction {index}: unknown kind, or a missing or ill-shaped "
                     f"field, in {obj!r}")


def load_script(text: str) -> list:
    """The instructions of a JSON script as `dump_script` writes it; any
    other shape raises ValueError naming the instruction's index."""
    objs = json.loads(text)
    if not isinstance(objs, list):
        raise ValueError(f"a protocol script must be a JSON list, got {type(objs).__name__}")
    return [_instruction(index, obj) for index, obj in enumerate(objs)]
