"""Compiled transition-table semantics for the object language.

Lowers a :class:`~repro.lang.program.Program` into per-pc transition
tables (:func:`compile_program`) that the exploration engines drive in
place of the AST-walking interpreter — selected via
``EngineSpec.semantics`` (``"compiled"``, the default, degrading
automatically to ``"interp"`` on :class:`CompileUnsupported`).

:func:`compile_instrumented` lowers an instrumented object, auxiliary
commands included, for the Fig-11 witness runner
(:class:`repro.instrument.runner.InstrumentedRunner`).

See :mod:`repro.compile.lower` for the construction and the exact
observational-equivalence contract with :mod:`repro.semantics.thread`.
"""

from ..errors import CompileUnsupported
from .lower import (
    DEFAULT_SEMANTICS,
    SEMANTICS_COMPILED,
    SEMANTICS_INTERP,
    SEMANTICS_MODES,
    CompiledProgram,
    compile_instrumented,
    compile_program,
    compiled_expand_until_visible,
    compiled_thread_step,
    validate_semantics,
)

__all__ = [
    "CompileUnsupported",
    "CompiledProgram",
    "DEFAULT_SEMANTICS",
    "SEMANTICS_COMPILED",
    "SEMANTICS_INTERP",
    "SEMANTICS_MODES",
    "compile_instrumented",
    "compile_program",
    "compiled_expand_until_visible",
    "compiled_thread_step",
    "validate_semantics",
]
