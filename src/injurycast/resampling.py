"""ADASYN adaptive synthetic oversampling of the minority (injury) class."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Role
from .errors import FeatureOverflow, TooFewMinority
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


def _require_finite(M: np.ndarray, names: list[str], what: str) -> None:
    """Raise FeatureOverflow naming the first column of M that is not finite."""
    bad = ~np.isfinite(M).all(axis=0)
    if bad.any():
        raise FeatureOverflow(f"ADASYN {what} column '{names[int(np.argmax(bad))]}' "
                              "overflows: its values are too near the float limit")


# cells of the neighbour search's (query rows x table rows) matrix: 1 MiB of floats
_BLOCK = 1 << 17


def _neighbours(Z: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """The k rows of Z nearest to each row Z[i], i in rows, ties in row order and
    row i excluded: a (len(rows), k) index array. Z is finite and its squared
    row norms sum without overflow, as standardized rows do; 1 <= k < len(Z).

    Filter and refine. A block of at most min(p, _BLOCK // n) query rows gets
    approximate squared distances G = |z_i|^2 + |z_j|^2 - 2 z_i.z_j from one
    matrix product, in one (block x n) matrix, so it is never larger than Z or
    1 MiB. np.einsum without `optimize` forms that product in numpy's own loop,
    on the calling thread: np.matmul would hand it to BLAS, whose worker threads
    spin after each product and keep their buffers for the life of the process,
    for the one BLAS call of an ADASYN run. Each query keeps as candidates the
    rows whose lower bound G - e is at most U, the k-th smallest upper bound
    G + e (row i at +inf). Only those get the exact distances
    np.linalg.norm(Z - Z[i], axis=1) computes for real input, by its own
    operations, and the rows at or below the k-th of them are sorted stably, as
    a full stable sort orders them.

    The margin e makes every row at or below the exact k-th distance a
    candidate. Let u = 2**-53, eps = 2 u, D the true squared distance and
    S = |z_i|^2 + |z_j|^2. A p-term sum of products, in any order (einsum's
    loop or a BLAS kernel), errs by at most gamma_p = p u / (1 - p u) times the
    sum of the terms' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3), so:
      - the doubled dot product errs by 2 gamma_p sum|z_i z_j| <= gamma_p S;
      - the two squared norms by gamma_p S together;
      - the two additions by u |result| <= 2 u S each;
    so |G - D| <= (2 gamma_p + 4 u) S ~ (p + 2) eps S. The exact path rounds
    each difference and square (3 u) and sums p terms (gamma_p), so its squared
    distance s errs by at most (p + 2) u D <= (p + 2) eps S, as D <= 2 S. With
    S' = |z_i|^2 + max_j |z_j|^2 >= S, if row m out-ranks row j,
    G_m + e < G_j - e, then s_j - s_m > 2 e - 4 (p + 2) eps S'. The rounded
    sqrt keeps d_m < d_j when s_j - s_m >= 4 u s_j, at most about 4 eps S', so
    e >= (2 p + 6) eps S' suffices: fewer than k rows then out-rank a row at or
    below the k-th distance, and it stays a candidate. Here
    e = 8 (p + 2) (eps S' + 2**-1074), at least twice that, which also covers
    the rounding of the sums, of e and of G +- e. Its second term adds
    8 (p + 2) subnormal units for products that underflow, whose errors are
    absolute (under 2**-1075 each, 5 p of them per pair), not relative."""
    n, p = Z.shape
    sq = np.einsum("ij,ij->i", Z, Z)
    top = float(sq.max())
    scale = 8.0 * (p + 2)
    step = max(1, min(p, _BLOCK // n))
    out = np.empty((len(rows), k), dtype=np.intp)
    G = np.empty((min(step, len(rows)), n))
    for s in range(0, len(rows), step):
        blk = rows[s:s + step]
        g = G[:len(blk)]
        np.einsum("ik,jk->ij", Z[blk], Z, out=g)
        g *= -2.0
        g += sq
        g += sq[blk, None]
        for r, i in enumerate(blk):
            row = g[r]
            row[i] = np.inf
            e = scale * (2.0 ** -52 * (float(sq[i]) + top) + 2.0 ** -1074)
            cand = np.flatnonzero(row - e <= np.partition(row, k - 1)[k - 1] + e)
            dist = np.sqrt(np.add.reduce(np.square(Z[cand] - Z[i]), axis=1))
            near = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
            out[s + r] = cand[near[np.argsort(dist[near], kind="stable")][:k]]
    return out


def adasyn(table: TrainingTable, cfg: ResamplingConfig) -> TrainingTable:
    """Append synthetic minority examples along segments between minority neighbors.

    The number of synthetics per minority point is proportional to the fraction
    of majority examples among its k nearest neighbors, so harder-to-learn
    points receive more. Deterministic for a fixed seed; originals are never
    mutated and synthetic rows carry label 1 and a synthetic flag. Features so
    near the float limit that standardizing or interpolating them overflows
    raise FeatureOverflow.
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
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        Z = standardize(table.X, table.X)
    _require_finite(Z, table.feature_names, "standardizing")
    Zmin = Z[minority]

    # majority fraction among the k nearest neighbors in the full table
    k_full = min(K_NEIGHBORS, len(table) - 1)
    r = np.mean(y[_neighbours(Z, minority, k_full)] == 0, axis=1)
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
    sources = np.flatnonzero(alloc)
    for i, nbrs in zip(sources, minority[_neighbours(Zmin, sources, k_min)]):
        for _ in range(alloc[i]):
            partners.append(nbrs[rng.integers(len(nbrs))])
            lam.append(rng.random())  # the draw of rng.uniform(), with less overhead
    del Z, Zmin  # dead: freed before the output is allocated

    # x_i + lam * (partner - x_i), written in place: IEEE + and * commute exactly
    n = len(table)
    X = np.empty((n + n_new, table.X.shape[1]))
    X[:n] = table.X
    new = X[n:]
    # every index is valid: "clip" only skips the copy that "raise" buffers out= through
    table.X.take(partners, axis=0, out=new, mode="clip")
    xi = table.X[np.repeat(minority, alloc)]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        np.subtract(new, xi, out=new)
        new *= np.array(lam)[:, None]
        new += xi
    if role_col is not None:
        new[:, role_col] = np.clip(np.rint(new[:, role_col]), 0, len(Role) - 1)
    _require_finite(new, table.feature_names, "interpolating")

    return TrainingTable(
        list(table.feature_names), X, np.concatenate([y, np.ones(n_new, dtype=int)]),
        list(table.player_ids) + ["synthetic"] * n_new,
        list(table.dates) + [None] * n_new,
        np.concatenate([table.synthetic, np.ones(n_new, dtype=bool)]),
    )
