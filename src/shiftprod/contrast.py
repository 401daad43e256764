"""Rational-shift control experiments.

With a rational shift the defining equation becomes prod(q*x_i + p) =
prod(q*y_i + p) over plain integers, and non-diagonal solutions are
plentiful (ordinary multiplication-table collisions), in contrast with the
scarcity or outright absence seen for irrational shifts.  This module runs
the rational cells and emits side-by-side tables against an irrational
reference shift.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .counting import DEFAULT_MEMORY_BUDGET_MB, count_mean_value
from .shifts import Shift

CONTRAST_CSV_HEADER = "X,k,shift_rational_nondiag,shift_algebraic_nondiag"


@dataclasses.dataclass(frozen=True)
class ContrastRow:
    X: int
    k: int
    rational_nondiag: int
    algebraic_nondiag: int

    def csv_fields(self) -> list[str]:
        return [
            str(self.X),
            str(self.k),
            str(self.rational_nondiag),
            str(self.algebraic_nondiag),
        ]


def contrast_table(
    k: int,
    x_values: Sequence[int],
    rational_shift: Shift,
    algebraic_shift: Shift,
    *,
    memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
) -> list[ContrastRow]:
    """Non-diagonal counts of the two shifts on one (k, X) grid, row per X."""
    if len(x_values) < 1:
        raise ValueError("need at least one X value")
    if any(b <= a for a, b in zip(x_values, x_values[1:])):
        raise ValueError("X values must be strictly increasing")
    rows = []
    for X in x_values:
        rat = count_mean_value(k, X, rational_shift, memory_budget_mb=memory_budget_mb)
        alg = count_mean_value(k, X, algebraic_shift, memory_budget_mb=memory_budget_mb)
        rows.append(
            ContrastRow(
                X=X,
                k=k,
                rational_nondiag=rat.nondiagonal,
                algebraic_nondiag=alg.nondiagonal,
            )
        )
    return rows
