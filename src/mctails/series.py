"""Tail-probability series container shared by all solver front ends."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TailSeries:
    """Tail-probability vectors for consecutive levels of a structured chain.

    pis[i] is the tail vector of level ``first_level + i``: componentwise mass
    of all states at that level or above.  Generic chain solvers return series
    starting at level 1 together with the boundary vector x0; the closed-form
    queue models start at level 0 (their level-0 entry sums to one) and leave
    x0 unset.
    """

    pis: list[np.ndarray]
    x0: np.ndarray | None = None
    method: str = ""
    truncation_report: dict = field(default_factory=dict)
    first_level: int = 1

    @property
    def last_level(self) -> int:
        return self.first_level + len(self.pis) - 1

    def level(self, k: int) -> np.ndarray:
        if not self.first_level <= k <= self.last_level:
            raise IndexError(f"level {k} outside [{self.first_level}, {self.last_level}]")
        return self.pis[k - self.first_level]
