"""Independent reference computations that exist only to check the library.

``log_space_count_laws`` is the direct count chain: given ``X = m`` plus
vertices on a level of ``N``, the next count is
``Binomial(r*m, 1-eps) + Binomial(r*(N-m), eps)``.  Each parent count's
convolution is accumulated in log space under a running global rescale (a
vectorized log-sum-exp).  One step costs O(r**2 * N**3) in the worst case,
so it is only usable on supports of a few thousand points.

``seed_sequence_generator`` builds a stream the way numpy documents it:
a Philox generator seeded by a ``SeedSequence`` object whose spawn key is
the stream's address.  ``SeedSpec.generator`` computes the same key directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

from treecast.rng import _purpose_code


def log_space_chain_step(log_w: np.ndarray, r: int, eps: float) -> np.ndarray:
    """Log-probabilities of the next level's count from this level's."""
    n_parents = len(log_w) - 1
    acc = np.zeros(r * n_parents + 1)
    acc_scale = -np.inf
    for m in range(n_parents + 1):
        if log_w[m] == -np.inf:
            continue
        n_plus, n_minus = r * m, r * (n_parents - m)
        la = binom.logpmf(np.arange(n_plus + 1), n_plus, 1.0 - eps)
        lb = binom.logpmf(np.arange(n_minus + 1), n_minus, eps)
        sa, sb = la.max(), lb.max()
        term = np.convolve(np.exp(la - sa), np.exp(lb - sb))
        scale = log_w[m] + sa + sb
        if scale > acc_scale:
            if acc_scale > -np.inf:
                acc *= math.exp(acc_scale - scale)
            acc_scale = scale
            acc += term
        else:
            acc += term * math.exp(scale - acc_scale)

    with np.errstate(divide="ignore"):
        return np.log(acc) + acc_scale


def log_space_count_laws(level: int, r: int, eps: float) -> list[np.ndarray]:
    """Linear-space count laws of levels ``0..level`` under a +1 root."""
    log_w = np.array([-np.inf, 0.0])
    laws = [np.exp(log_w)]
    for _ in range(level):
        log_w = log_space_chain_step(log_w, r, eps)
        laws.append(np.exp(log_w))
    return laws


def seed_sequence_generator(
    master_seed: int, purpose: str, level: int, block: int
) -> np.random.Generator:
    """The stream ``(purpose, level, block)`` keyed through numpy's own
    ``SeedSequence``."""
    seq = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(_purpose_code(purpose), level, block)
    )
    return np.random.Generator(np.random.Philox(seq))
