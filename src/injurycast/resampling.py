"""ADASYN adaptive synthetic oversampling of the minority (injury) class."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Role
from .errors import TooFewMinority
from .features import TrainingTable


# neighbours per point, both for a point's difficulty and for its partners
K_NEIGHBORS = 5


@dataclass(frozen=True)
class ResamplingConfig:
    seed: int = 0


def standardize(X: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Centre and scale X by the column means and standard deviations of ref;
    constant columns keep scale 1."""
    mu = ref.mean(axis=0)
    sd = ref.std(axis=0)
    sd[sd == 0] = 1.0
    return (X - mu) / sd


def _nearest(Z: np.ndarray, i: int, k: int, buf: np.ndarray) -> np.ndarray:
    """The k rows of Z nearest to row i, ties in row order, row i excluded; buf is
    a C-ordered float array of Z's shape, overwritten.

    The distances are np.linalg.norm(Z - Z[i], axis=1) to the bit, by its own
    operations for real input, and only the rows at or below the k-th distance
    are sorted (stably, as a full stable sort would order them)."""
    np.subtract(Z, Z[i], out=buf)
    np.square(buf, out=buf)
    dist = np.sqrt(np.add.reduce(buf, axis=1))
    dist[i] = np.inf
    near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
    return near[np.argsort(dist[near], kind="stable")][:k]


def adasyn(table: TrainingTable, cfg: ResamplingConfig) -> TrainingTable:
    """Append synthetic minority examples along segments between minority neighbors.

    The number of synthetics per minority point is proportional to the fraction
    of majority examples among its k nearest neighbors, so harder-to-learn
    points receive more. Deterministic for a fixed seed; originals are never
    mutated and synthetic rows carry label 1 and a synthetic flag.
    """
    y = table.y
    minority = np.flatnonzero(y == 1)
    majority = np.flatnonzero(y == 0)
    if len(minority) < 2:
        raise TooFewMinority(
            f"ADASYN needs at least 2 minority examples, got {len(minority)}")
    if len(majority) < 1:
        raise TooFewMinority("ADASYN needs at least 1 majority example")

    n_new = len(majority) - len(minority)
    if n_new <= 0:
        return table

    rng = np.random.default_rng(cfg.seed)
    Z = standardize(table.X, table.X)
    Zmin = Z[minority]

    # majority fraction among the k nearest neighbors in the full table
    k_full = min(K_NEIGHBORS, len(table) - 1)
    buf = np.empty_like(Z)  # every _nearest call's differences, one (n, p) block
    r = np.empty(len(minority))
    for i, row_idx in enumerate(minority):
        nbrs = _nearest(Z, row_idx, k_full, buf)
        r[i] = np.mean(y[nbrs] == 0)
    if r.sum() == 0:
        # pure-minority neighborhoods everywhere: fall back to uniform allocation
        r_hat = np.full(len(minority), 1.0 / len(minority))
    else:
        r_hat = r / r.sum()

    # integer allocation summing exactly to n_new (largest-remainder rounding)
    raw = r_hat * n_new
    alloc = np.floor(raw).astype(int)
    remainder = n_new - alloc.sum()
    if remainder > 0:
        order = np.argsort(-(raw - alloc), kind="stable")
        alloc[order[:remainder]] += 1

    # interpolation partners come from minority points only
    k_min = min(K_NEIGHBORS, len(minority) - 1)
    if (Zmin == Zmin[0]).all():
        warnings.warn("all minority points are identical; ADASYN will duplicate them")

    role_col = (table.feature_names.index("role")
                if "role" in table.feature_names else None)

    # partners and weights drawn in the order the rows are written: per minority
    # point with synthetics, in row order, a partner then a weight for each
    partners, lam = [], []
    for i in np.flatnonzero(alloc):
        nbrs = minority[_nearest(Zmin, i, k_min, buf[:len(minority)])]
        for _ in range(alloc[i]):
            partners.append(nbrs[rng.integers(len(nbrs))])
            lam.append(rng.random())  # the draw of rng.uniform(), with less overhead
    del Z, Zmin, buf  # dead: freed before the output is allocated

    # x_i + lam * (partner - x_i), written in place: IEEE + and * commute exactly
    n = len(table)
    X = np.empty((n + n_new, table.X.shape[1]))
    X[:n] = table.X
    new = X[n:]
    # every index is valid: "clip" only skips the copy that "raise" buffers out= through
    table.X.take(partners, axis=0, out=new, mode="clip")
    xi = table.X[np.repeat(minority, alloc)]
    np.subtract(new, xi, out=new)
    new *= np.array(lam)[:, None]
    new += xi
    if role_col is not None:
        new[:, role_col] = np.clip(np.rint(new[:, role_col]), 0, len(Role) - 1)

    return TrainingTable(
        list(table.feature_names), X, np.concatenate([y, np.ones(n_new, dtype=int)]),
        list(table.player_ids) + ["synthetic"] * n_new,
        list(table.dates) + [None] * n_new,
        np.concatenate([table.synthetic, np.ones(n_new, dtype=bool)]),
    )
