"""Desk-scale resource limits shared by the exact engine and the samplers.

Two independent knobs, and where each is checked:

* the *support budget* caps the number of points in any exact count
  distribution (default 65 537, overridable through the ``TREECAST_BUDGET``
  environment variable or per call).  The exact engine checks it before it
  builds a count law, a critical-point search or a level-agreement table;
* the *vertex budget* caps the number of vertices of a tree's deepest level
  (default 2**26).  :class:`~treecast.trees.RegularTreeSpec` checks it once,
  when it is built, so a Monte Carlo run refuses an oversized tree before it
  allocates anything.  No command-line option sets it.

Requests beyond a budget raise :class:`BudgetError` rather than degrade.
"""

from __future__ import annotations

import os

DEFAULT_SUPPORT_BUDGET = 65_537
DEFAULT_VERTEX_BUDGET = 1 << 26
SUPPORT_BUDGET_ENV = "TREECAST_BUDGET"


class BudgetError(RuntimeError):
    """A computation would exceed a declared desk-scale budget."""


def support_budget(override: int | None = None) -> int:
    """Resolve the support budget: explicit override, else env var, else default."""
    if override is not None:
        if override < 2:
            raise ValueError(f"support budget must be >= 2, got {override}")
        return int(override)
    env = os.environ.get(SUPPORT_BUDGET_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(
                f"{SUPPORT_BUDGET_ENV} must be an integer, got {env!r}"
            ) from exc
        if value < 2:
            raise ValueError(f"{SUPPORT_BUDGET_ENV} must be >= 2, got {value}")
        return value
    return DEFAULT_SUPPORT_BUDGET


def _power_exceeds(r: int, n: int, limit: int) -> bool:
    """``r**n > limit`` for ``r, n >= 0``, without building ``r**n`` once
    ``n`` passes the bit length of ``limit``, where ``r >= 2`` settles it."""
    if r >= 2 and n > limit.bit_length():
        return True
    return r**n > limit


def check_support(r: int, n: int, budget: int | None = None) -> None:
    """Raise :class:`BudgetError` unless a count law on ``r**n`` vertices,
    ``r**n + 1`` points, fits the support budget."""
    limit = support_budget(budget)
    if _power_exceeds(r, n, limit - 1):
        raise BudgetError(
            f"distribution support of {r}**{n} + 1 points exceeds the budget of "
            f"{limit}; raise {SUPPORT_BUDGET_ENV} or pass a larger budget "
            "explicitly if this is intentional"
        )


def check_vertices(r: int, n: int, budget: int | None = None) -> None:
    """Raise :class:`BudgetError` unless a level of ``r**n`` vertices fits."""
    limit = DEFAULT_VERTEX_BUDGET if budget is None else int(budget)
    if _power_exceeds(r, n, limit):
        raise BudgetError(
            f"tree level of {r}**{n} vertices exceeds the per-level budget of "
            f"{limit}"
        )
