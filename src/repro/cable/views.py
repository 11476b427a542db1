"""Concept states, summaries, and lattice rendering.

Cable gives the user "visual feedback that makes it obvious which concepts
still have unlabeled traces" (Section 4.1): every concept is Unlabeled
(green), PartlyLabeled (yellow) or FullyLabeled (red); an empty concept is
always FullyLabeled.  This module defines those states, the per-concept
summary record the *inspect* operation returns, and text/dot renderings of
the colored lattice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cable.session import CableSession


class ConceptState(enum.Enum):
    """The labeling state of a concept (with Cable's display color)."""

    UNLABELED = "green"
    PARTLY_LABELED = "yellow"
    FULLY_LABELED = "red"

    @property
    def color(self) -> str:
        return self.value


@dataclass(frozen=True)
class ConceptSummary:
    """What the user sees when inspecting a concept."""

    concept: int
    state: ConceptState
    num_traces: int
    num_unlabeled: int
    labels_present: frozenset[str]
    similarity: int
    transitions: tuple[str, ...]
    children: tuple[int, ...]
    parents: tuple[int, ...]

    @property
    def unlabeled_uniform_candidate(self) -> bool:
        """True if the concept still has unlabeled traces to act on."""
        return self.num_unlabeled > 0

    def render(self) -> str:
        lines = [
            f"concept #{self.concept} [{self.state.name}, {self.state.color}]",
            f"  traces: {self.num_traces} ({self.num_unlabeled} unlabeled)",
            f"  labels present: {sorted(self.labels_present) or '-'}",
            f"  similarity (shared transitions): {self.similarity}",
            f"  parents: {list(self.parents)}  children: {list(self.children)}",
        ]
        lines.append("  transitions:")
        lines.extend(f"    {t}" for t in self.transitions)
        return "\n".join(lines)


def render_lattice(session: "CableSession") -> str:
    """Text rendering: one line per concept, top-down BFS order."""
    lattice = session.lattice
    lines = []
    for c in lattice.bfs_top_down():
        state = session.concept_state(c)
        extent = lattice.extent_masks[c].bit_count()
        marker = {"green": " ", "yellow": "~", "red": "*"}[state.color]
        lines.append(
            f"{marker} #{c:<4d} |extent|={extent:<4d} "
            f"sim={lattice.similarity(c):<3d} "
            f"children={list(lattice.children[c])}"
        )
    legend = "legend: ' '=Unlabeled(green)  ~=PartlyLabeled(yellow)  *=FullyLabeled(red)"
    return "\n".join(lines + [legend])


def render_lattice_tree(session: "CableSession") -> str:
    """A layered Hasse-diagram rendering.

    Concepts are arranged in levels by longest distance from the top;
    each line shows the concept's state marker, extent size, similarity,
    and its parents — enough to navigate the order visually in a
    terminal, which is what the Dotty view gave the paper's users.
    """
    lattice = session.lattice
    # Longest-path level assignment (top = level 0).
    level = {lattice.top: 0}
    for c in lattice.bfs_top_down():
        for child in lattice.children[c]:
            level[child] = max(level.get(child, 0), level[c] + 1)
    by_level: dict[int, list[int]] = {}
    for c, lv in level.items():
        by_level.setdefault(lv, []).append(c)

    marker = {"green": " ", "yellow": "~", "red": "*"}
    lines = []
    for lv in sorted(by_level):
        lines.append(f"level {lv}:")
        for c in sorted(by_level[lv]):
            state = session.concept_state(c)
            parents = ", ".join(f"#{p}" for p in lattice.parents[c]) or "-"
            lines.append(
                f"  {marker[state.color]} #{c:<4d} "
                f"traces={lattice.extent_masks[c].bit_count():<4d} "
                f"sim={lattice.similarity(c):<3d} parents: {parents}"
            )
    lines.append(
        "legend: ' '=Unlabeled(green)  ~=PartlyLabeled(yellow)  "
        "*=FullyLabeled(red)"
    )
    return "\n".join(lines)


def lattice_to_dot(session: "CableSession", name: str = "lattice") -> str:
    """Graphviz rendering with the paper's state colors."""
    lattice = session.lattice
    fills = {
        ConceptState.UNLABELED: "palegreen",
        ConceptState.PARTLY_LABELED: "khaki",
        ConceptState.FULLY_LABELED: "lightcoral",
    }
    lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
    for c in lattice:
        state = session.concept_state(c)
        extent = lattice.extent_masks[c].bit_count()
        label = f"#{c}\\n{extent} traces\\nsim={lattice.similarity(c)}"
        lines.append(
            f'  c{c} [label="{label}", style=filled, '
            f"fillcolor={fills[state]}, shape=box];"
        )
    for c in lattice:
        for child in lattice.children[c]:
            lines.append(f"  c{c} -> c{child};")
    lines.append("}")
    return "\n".join(lines)
