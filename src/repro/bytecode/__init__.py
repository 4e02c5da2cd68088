"""Stack bytecode for the mini-Java VM.

The instruction set mirrors the JVM operations that matter to the paper's
profiler: object/array allocation, field gets and puts, virtual invokes,
monitor enter/exit, and array element access — the events §2.1.1 counts as
*object uses* — plus ordinary arithmetic and control flow.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bytecode.instr": ("Instr",),
    "repro.bytecode.opcodes": ("Op",),
    "repro.bytecode.program": (
        "CompiledClass", "CompiledMethod", "CompiledProgram", "ExceptionEntry",
        "FieldLayout",
    ),
    "repro.bytecode.disasm": ("disassemble_method", "disassemble_program"),
})

__all__ = [
    "Instr",
    "Op",
    "CompiledClass",
    "CompiledMethod",
    "CompiledProgram",
    "ExceptionEntry",
    "FieldLayout",
    "disassemble_method",
    "disassemble_program",
]
