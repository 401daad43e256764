"""The benchmark's workloads: fixed (k, X) cells whose shift the seed draws from a family.

Every member of a family has the same cost profile (same k, X, key width and
roughly the same witness count), so runs on different seeds are comparable;
seed 0 gives the baseline cell of each family.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Cell:
    """One settled cell: the inputs every CLI command of a pipeline receives."""

    k: int
    X: int
    shift: str
    workers: int

    @property
    def key(self) -> str:
        """Identity of the cell's outputs; the worker count must not change them."""
        return f"k={self.k} X={self.X} {self.shift}"

    @property
    def has_identities(self) -> bool:
        """Whether `lemma-check` applies: transcendental shifts have no identities."""
        return self.shift != "transcendental"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    k: int
    X: int
    small_X: int
    family: tuple[str, ...]
    workers: int

    def cell(self, seed: int, small: bool = False) -> Cell:
        shift = self.family[seed % len(self.family)]
        return Cell(self.k, self.small_X if small else self.X, shift, self.workers)


_ALG_FAMILY = tuple(f"minpoly:-{n},0,1" for n in (2, 3, 5, 6, 7))

# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("alg-k3", 3, 400, 30, _ALG_FAMILY, 1),
        # A smaller cell than alg-k3, so that a run holds three pipelines: with both
        # CPUs busy, a single pipeline swings with the host's load.
        Workload("alg-k3-w2", 3, 300, 30, _ALG_FAMILY, 2),
        Workload("rat-k2", 2, 400, 40, tuple(f"rational:{2 * j + 1}/2" for j in range(4)), 1),
        Workload("trans-k4", 4, 100, 12, ("transcendental",), 1),
    )
}

# Exact answers of the seed-0 cells at full size, independent of the code under test.
KNOWN_ANSWERS = {
    "k=3 X=400 minpoly:-2,0,1": {"nondiag": 6246, "distinct_nu": 10_746_707},
    "k=2 X=400 rational:1/2": {"witness_pairs": 33_439},
    "k=4 X=100 transcendental": {"nondiag": 0, "distinct_nu": 4_421_275, "witness_pairs": 0},
}
