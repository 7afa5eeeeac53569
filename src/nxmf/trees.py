"""Rooted labeled trees built by leaf addition.

A tree of order n has vertices 1..n; vertex v >= 2 is attached below some
earlier vertex parent(v) < v, so edges are oriented away from the root 1.
These trees index the observable hierarchy: adding a leaf at vertex i is
exactly the coupling map that closes each observable's evolution equation.
Labeled duplicates up to isomorphism are kept deliberately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

ENUMERATION_CAP = 8


@dataclass(frozen=True)
class LabeledTree:
    """parents[v-1] is the parent of vertex v; parents[0] == 0 marks the root."""

    parents: tuple[int, ...]

    def __post_init__(self):
        p = self.parents
        if not p or p[0] != 0:
            raise ValueError("vertex 1 must be the root (parent slot 0)")
        for v in range(2, len(p) + 1):
            if not 1 <= p[v - 1] < v:
                raise ValueError(f"parent of vertex {v} must lie in 1..{v - 1}")

    @property
    def order(self) -> int:
        return len(self.parents)

    def parent(self, v: int) -> int:
        if not 2 <= v <= self.order:
            raise ValueError(f"vertex {v} has no parent")
        return self.parents[v - 1]

    def edges(self) -> list[tuple[int, int]]:
        """Oriented (parent, child) pairs, parent < child."""
        return [(self.parents[v - 1], v) for v in range(2, self.order + 1)]

    def children(self, v: int) -> list[int]:
        if not 1 <= v <= self.order:
            raise ValueError(f"vertex {v} out of range")
        return [u for u in range(2, self.order + 1) if self.parents[u - 1] == v]

    def to_text(self) -> str:
        return ",".join("-" if v == 1 else str(self.parents[v - 1]) for v in range(1, self.order + 1))

    @classmethod
    def from_text(cls, text: str) -> "LabeledTree":
        parts = [p.strip() for p in text.split(",")]
        if not parts or parts[0] != "-":
            raise ValueError("canonical form starts with '-' for the root")
        return cls((0,) + tuple(int(p) for p in parts[1:]))

    def __repr__(self):
        return f"LabeledTree({self.to_text()!r})"


T1 = LabeledTree((0,))


def add_leaf(t: LabeledTree, i: int) -> LabeledTree:
    """Attach new vertex order+1 below vertex i."""
    if not 1 <= i <= t.order:
        raise ValueError(f"cannot add a leaf at vertex {i} of a tree of order {t.order}")
    return LabeledTree(t.parents + (i,))


def enumerate_trees(n: int):
    """All (n-1)! labeled trees of order n, in lexicographic parent order."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"order must lie in 1..{ENUMERATION_CAP}")
    out = []
    for tail in itertools.product(*(range(1, v) for v in range(2, n + 1))):
        out.append(LabeledTree((0,) + tail))
    return out
