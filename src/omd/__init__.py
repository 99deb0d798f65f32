"""Orthogonal matching designs: construction, search, and verification.

A design here is a square array whose cells are either empty or hold a
matching of k edges over a fixed point set, such that every row and every
column meets each point exactly once and every pair of points appears in
exactly one cell. Such arrays exist precisely when the number of points
is a multiple of 2k, except the two small single-edge orders 4 and 6.

construct(n, k) builds and verifies a design for any admissible pair,
verify() checks arbitrary arrays independently of how they were made, and
the omd command line exposes generation, file checking, and range sweeps.
The names below are the public surface; everything else is imported from
its submodule (omd.core, omd.errors, omd.room, omd.verify, ...).
"""

from .core import DesignArray
from .errors import NonExistent
from .bases import build_2k, build_4k, build_6k
from .room import (
    StarterAdder,
    build_room,
    strong_starter_search,
    validate_starter_adder,
)
from .verify import brute_force_exists, verify
from .compose import construct
from .formats import render_grid

__all__ = [
    "DesignArray",
    "NonExistent",
    "StarterAdder",
    "brute_force_exists",
    "build_2k",
    "build_4k",
    "build_6k",
    "build_room",
    "construct",
    "render_grid",
    "strong_starter_search",
    "validate_starter_adder",
    "verify",
]

__version__ = "0.1.0"
