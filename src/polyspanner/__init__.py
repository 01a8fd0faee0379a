"""Plane spanners of the visibility graph of points among disjoint
polygonal obstacles, with bounded degree and verified structure."""

from .cones import GeneralPositionError
from .generator import GeneratorConfig, GeneratorError, generate
from .io import ParseError
from .scene import SceneError
from .spanners import (
    build_all,
    build_g10,
    build_g15,
    build_g7,
    build_g_infinity,
)
from .verify import run_verification
from .visibility import visibility_graph

__version__ = "0.1.0"

__all__ = [
    "GeneralPositionError",
    "GeneratorConfig",
    "GeneratorError",
    "ParseError",
    "SceneError",
    "build_all",
    "build_g10",
    "build_g15",
    "build_g7",
    "build_g_infinity",
    "generate",
    "run_verification",
    "visibility_graph",
]
