"""Data-layout policies: how many runs may pile up at each level.

Parameterized as in Dostoevsky (Dayan & Idreos, SIGMOD 2018): ``K`` bounds the
runs at every level but the last, ``Z`` bounds the last level. The classic
designs are corner points of that (K, Z) space:

* leveling: K = Z = 1 — every arrival merges in place; best reads.
* tiering: K = Z = T - 1 — merge only full levels; best writes.
* lazy leveling: K = T - 1, Z = 1 — tiered shallow levels, leveled last level;
  point reads ~ leveling, writes ~ tiering (the hybrid the tutorial features).
* LSM-bush-style: K grows with level depth for the shallowest levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class LayoutPolicy:
    """Bounds on runs per level.

    Attributes:
        name: human-readable policy name (reported by experiments).
        inner_runs: max runs tolerated at levels 1..L-1 before merging (K).
        last_runs: max runs tolerated at the last level (Z).
        inner_runs_fn: optional per-level override for bush-like layouts;
            receives the level number (1-based) and returns that level's K.
    """

    name: str
    inner_runs: int
    last_runs: int
    inner_runs_fn: Optional[Callable[[int], int]] = None

    def __post_init__(self) -> None:
        if self.inner_runs < 1 or self.last_runs < 1:
            raise ConfigError("run bounds must be at least 1")

    def max_runs(self, level: int, is_last: bool) -> int:
        """Run bound for ``level`` (1-based); merging triggers when exceeded."""
        if is_last:
            return self.last_runs
        if self.inner_runs_fn is not None:
            return max(1, self.inner_runs_fn(level))
        return self.inner_runs

    # -- canonical designs -----------------------------------------------------

    @staticmethod
    def leveling() -> "LayoutPolicy":
        """One run per level: merge on every arrival (read-optimized)."""
        return LayoutPolicy("leveling", inner_runs=1, last_runs=1)

    @staticmethod
    def tiering(size_ratio: int) -> "LayoutPolicy":
        """Up to T-1 runs everywhere: merge full levels only (write-optimized)."""
        if size_ratio < 2:
            raise ConfigError("size_ratio must be at least 2")
        return LayoutPolicy("tiering", inner_runs=size_ratio - 1, last_runs=size_ratio - 1)

    @staticmethod
    def lazy_leveling(size_ratio: int) -> "LayoutPolicy":
        """Tiering at inner levels, leveling at the last (Dostoevsky)."""
        if size_ratio < 2:
            raise ConfigError("size_ratio must be at least 2")
        return LayoutPolicy("lazy_leveling", inner_runs=size_ratio - 1, last_runs=1)

    @staticmethod
    def hybrid(inner_runs: int, last_runs: int) -> "LayoutPolicy":
        """Arbitrary (K, Z) point of the Dostoevsky continuum."""
        return LayoutPolicy(f"hybrid(K={inner_runs},Z={last_runs})", inner_runs, last_runs)

    @staticmethod
    def bush(size_ratio: int, depth: int = 3) -> "LayoutPolicy":
        """LSM-bush-flavoured layout: run bounds shrink with level depth.

        The shallowest level tolerates ``(T-1) * 2^(depth-1)`` runs, halving
        each level down until the plain tiering bound, with a leveled last
        level — capturing LSM-bush's "merge lazily where runs are small".
        """
        if size_ratio < 2:
            raise ConfigError("size_ratio must be at least 2")
        base = size_ratio - 1

        def per_level(level: int) -> int:
            boost = max(0, depth - level)
            return base * (2 ** boost)

        return LayoutPolicy(
            f"bush(T={size_ratio},depth={depth})",
            inner_runs=base,
            last_runs=1,
            inner_runs_fn=per_level,
        )

    @staticmethod
    def by_name(name: str, size_ratio: int) -> "LayoutPolicy":
        """Resolve a ``DESIGN_SPACE["layout"]`` choice (ConfigError if unknown)."""
        from repro.core.design_space import DESIGN_SPACE  # the table imports this module

        return DESIGN_SPACE["layout"].resolve(name)(size_ratio)
