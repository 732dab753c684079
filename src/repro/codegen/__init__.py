"""Code generation: SDFG -> specialized executable modules (§3.3)."""

from .compiled import CompiledSDFG, compile_sdfg

__all__ = ["CompiledSDFG", "compile_sdfg"]
