from .register import RegisterUnit, LocalRegister
from .script import LocalOp, Transmit, ClassicalSend, load_script, dump_script
from .compile import (
    compile_protocol,
    defer_measurements,
    CompileError,
)

__all__ = [
    "RegisterUnit",
    "LocalRegister",
    "LocalOp",
    "Transmit",
    "ClassicalSend",
    "load_script",
    "dump_script",
    "compile_protocol",
    "defer_measurements",
    "CompileError",
]
