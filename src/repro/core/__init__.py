"""Concept analysis: the paper's clustering engine (Section 3).

Contents:

* :mod:`~repro.core.context` — formal contexts (objects × attributes) and
  the derivation operators σ and τ;
* :mod:`~repro.core.concepts` — concepts, and the concept lattice with its
  Hasse diagram and navigation helpers;
* :mod:`~repro.core.godin` — Godin et al.'s incremental Algorithm 1, the
  construction the paper uses (Section 3.1.1);
* :mod:`~repro.core.batch` and :mod:`~repro.core.nextclosure` — reference
  constructions used for cross-checking and in the A1 ablation;
* :mod:`~repro.core.trace_clustering` — clustering traces with respect to
  a reference FA (Section 3.2);
* :mod:`~repro.core.wellformed` — well-formed lattices (Section 4.3).
"""

from repro.core.batch import build_lattice_batch
from repro.core.concepts import Concept, ConceptLattice
from repro.core.context import FormalContext
from repro.core.fca_io import context_from_cxt, context_to_cxt
from repro.core.godin import GodinLatticeBuilder, build_lattice_godin
from repro.core.nextclosure import build_lattice_nextclosure, closed_intents
from repro.core.trace_clustering import (
    TraceClustering,
    cluster_traces,
    extend_clustering,
    trace_object_names,
    transition_attribute_names,
)
from repro.core.wellformed import is_well_formed, well_formed_concepts

__all__ = [
    "Concept",
    "ConceptLattice",
    "FormalContext",
    "GodinLatticeBuilder",
    "TraceClustering",
    "build_lattice_batch",
    "build_lattice_godin",
    "build_lattice_nextclosure",
    "closed_intents",
    "cluster_traces",
    "context_from_cxt",
    "context_to_cxt",
    "extend_clustering",
    "is_well_formed",
    "trace_object_names",
    "transition_attribute_names",
    "well_formed_concepts",
]
