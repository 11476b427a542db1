"""Small shared utilities: ASCII tables and deterministic RNG helpers."""

from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table

__all__ = ["format_table", "make_rng", "spawn_rngs"]
