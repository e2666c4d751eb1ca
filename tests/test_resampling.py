import tracemalloc
import warnings

import numpy as np
import pytest

from injurycast.data_model import assign_labels
from injurycast.errors import TooFewMinority
from injurycast.features import build_training_table
from injurycast.generator import GeneratorConfig, generate
from injurycast.resampling import ResamplingConfig, _nearest, adasyn, standardize

from conftest import rand_table


def convexity_violations(before, after):
    """Count synthetic coordinates outside the minority per-column range."""
    minority = before.X[before.y == 1]
    lo, hi = minority.min(axis=0), minority.max(axis=0)
    synth = after.X[after.synthetic]
    eps = 1e-9 * (1.0 + np.abs(hi - lo))
    return int(np.sum((synth < lo - eps) | (synth > hi + eps)))


def tensor_adasyn(table, seed):
    """ADASYN from (minority x rows x features) distance tensors, as first written.

    The reference that the row-at-a-time distances must match byte for byte.
    Returns the oversampled X and whether every minority distance is zero.
    """
    y = table.y
    minority = np.flatnonzero(y == 1)
    n_new = int((y == 0).sum()) - len(minority)
    rng = np.random.default_rng(seed)
    Z = standardize(table.X, table.X)
    Zmin = Z[minority]

    def nearest(dist_row, self_idx, k):
        order = np.argsort(dist_row, kind="stable")
        return np.array([j for j in order if j != self_idx][:k])

    k_full = min(5, len(table) - 1)
    dists_full = np.linalg.norm(Zmin[:, None, :] - Z[None, :, :], axis=2)
    r = np.array([np.mean(y[nearest(dists_full[i], row, k_full)] == 0)
                  for i, row in enumerate(minority)])
    r_hat = np.full(len(minority), 1.0 / len(minority)) if r.sum() == 0 else r / r.sum()
    raw = r_hat * n_new
    alloc = np.floor(raw).astype(int)
    remainder = n_new - alloc.sum()
    if remainder > 0:
        alloc[np.argsort(-(raw - alloc), kind="stable")[:remainder]] += 1

    k_min = min(5, len(minority) - 1)
    dists_min = np.linalg.norm(Zmin[:, None, :] - Zmin[None, :, :], axis=2)
    role_col = (table.feature_names.index("role")
                if "role" in table.feature_names else None)
    new_rows = []
    for i, g in enumerate(alloc):
        nbrs = nearest(dists_min[i], i, k_min)
        xi = table.X[minority[i]]
        for _ in range(g):
            partner = table.X[minority[nbrs[rng.integers(len(nbrs))]]]
            row = xi + rng.uniform() * (partner - xi)
            if role_col is not None:
                row[role_col] = np.clip(np.rint(row[role_col]), 0, 4)
            new_rows.append(row)
    return np.vstack([table.X, np.array(new_rows)]), bool(np.all(dists_min == 0))


def tied_table(seed):
    """Small-integer features: many equal distances and repeated rows."""
    rng = np.random.default_rng(seed)
    t = rand_table(n=120, p=4, n_pos=18, seed=seed)
    t.X[:] = rng.integers(0, 3, size=t.X.shape)
    return t


def duplicated_table(seed):
    """Rows copied onto other rows, minority onto minority and onto majority."""
    t = rand_table(n=100, p=5, n_pos=15, seed=seed)
    pos, neg = np.flatnonzero(t.y == 1), np.flatnonzero(t.y == 0)
    t.X[pos[1:4]] = t.X[pos[0]]
    t.X[neg[:5]] = t.X[pos[5]]
    t.X[neg[10:20]] = t.X[neg[9]]
    return t


def role_table(seed):
    t = rand_table(n=90, p=4, n_pos=14, seed=seed, names=["a", "role", "b", "c"])
    t.X[:, 1] = np.random.default_rng(seed).integers(0, 5, size=len(t))
    return t


def identical_minority_table(seed):
    t = rand_table(n=40, p=3, n_pos=6, seed=seed)
    t.X[t.y == 1] = 0.5
    return t


def season_table(seed):
    log, _ = generate(GeneratorConfig(n_players=10, weeks=10, seed=seed))
    table, _ = build_training_table(assign_labels(log), log.players)
    return table


class TestRowAtATimeDistances:
    @pytest.mark.parametrize("build", [tied_table, duplicated_table, role_table,
                                       identical_minority_table, season_table])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_byte_equal_output_and_warning(self, build, seed):
        table = build(seed)
        want_X, want_warning = tensor_adasyn(table, seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = adasyn(table, ResamplingConfig(seed=seed))
        assert out.X.tobytes() == want_X.tobytes()
        assert any("identical" in str(w.message) for w in caught) == want_warning

    @pytest.mark.parametrize("build", [tied_table, duplicated_table,
                                       identical_minority_table])
    def test_nearest_is_the_head_of_a_full_stable_sort(self, build):
        X = build(3).X
        Z = standardize(X, X)
        buf = np.empty_like(Z)
        for k in (1, 5, len(Z) - 1):
            for i in range(len(Z)):
                order = np.argsort(np.linalg.norm(Z - Z[i], axis=1), kind="stable")
                np.testing.assert_array_equal(_nearest(Z, i, k, buf), order[order != i][:k])

    @pytest.mark.parametrize("seed", [7, 11])
    def test_byte_equal_on_a_default_season(self, seed):
        # 26 players x 23 weeks: about 40 injuries, 1,600 synthetic rows
        log, _ = generate(GeneratorConfig(seed=seed))
        table, _ = build_training_table(assign_labels(log), log.players)
        want_X, _ = tensor_adasyn(table, seed)
        out = adasyn(table, ResamplingConfig(seed=seed))
        assert out.X.tobytes() == want_X.tobytes()

    def test_peak_memory_is_a_few_tables(self):
        # the distance tensor alone would be 100 x 2,000 x 20 doubles = 32 MB
        table = rand_table(n=2000, p=20, n_pos=100, seed=0)
        tracemalloc.start()
        try:
            adasyn(table, ResamplingConfig(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * table.X.nbytes


class TestAdasyn:
    def test_fills_class_gap_exactly(self):
        t = rand_table(n=100, p=4, n_pos=15, seed=0)
        out = adasyn(t, ResamplingConfig(seed=0))
        assert int(out.y.sum()) == 85  # 15 originals + 70 synthetic
        assert len(out) == 170

    def test_originals_untouched_and_first(self):
        t = rand_table(n=60, p=3, n_pos=10, seed=1)
        out = adasyn(t, ResamplingConfig(seed=1))
        np.testing.assert_array_equal(out.X[:60], t.X)
        np.testing.assert_array_equal(out.y[:60], t.y)
        assert not out.synthetic[:60].any()
        assert out.synthetic[60:].all()

    def test_synthetic_row_metadata(self):
        t = rand_table(n=60, p=3, n_pos=10, seed=1)
        out = adasyn(t, ResamplingConfig(seed=1))
        n_new = int(out.synthetic.sum())
        assert out.player_ids[-n_new:] == ["synthetic"] * n_new
        assert all(d is None for d in out.dates[-n_new:])
        assert np.all(out.y[out.synthetic] == 1)

    def test_per_coordinate_convexity(self):
        for seed in range(5):
            t = rand_table(n=90, p=6, n_pos=12, seed=seed)
            out = adasyn(t, ResamplingConfig(seed=seed))
            assert convexity_violations(t, out) == 0

    def test_seed_determinism_bit_exact(self):
        t = rand_table(n=90, p=6, n_pos=12, seed=4)
        a = adasyn(t, ResamplingConfig(seed=11))
        b = adasyn(t, ResamplingConfig(seed=11))
        assert np.array_equal(a.X, b.X)  # exact, not approximate
        c = adasyn(t, ResamplingConfig(seed=12))
        assert not np.array_equal(a.X, c.X)

    def test_synthetics_lie_on_minority_segments(self):
        # every synthetic point is a convex combination of two minority points
        t = rand_table(n=70, p=3, n_pos=9, seed=5)
        out = adasyn(t, ResamplingConfig(seed=5))
        minority = t.X[t.y == 1]
        for s in out.X[out.synthetic]:
            found = False
            for i in range(len(minority)):
                for z in range(len(minority)):
                    if i == z:
                        continue
                    d = minority[z] - minority[i]
                    denom = float(d @ d)
                    if denom == 0.0:
                        continue
                    lam = float((s - minority[i]) @ d) / denom
                    if (-1e-9 <= lam <= 1 + 1e-9
                            and np.allclose(minority[i] + lam * d, s,
                                            atol=1e-9)):
                        found = True
                        break
                if found:
                    break
            assert found

    def test_role_column_stays_integral(self):
        t = rand_table(n=60, p=3, n_pos=10, seed=2,
                       names=["a", "role", "b"])
        t.X[:, 1] = np.random.default_rng(0).integers(0, 5, size=60)
        out = adasyn(t, ResamplingConfig(seed=0))
        roles = out.X[out.synthetic, 1]
        assert np.array_equal(roles, np.rint(roles))
        assert roles.min() >= 0 and roles.max() <= 4

    def test_too_few_minority(self):
        t = rand_table(n=30, p=3, n_pos=1, seed=0)
        with pytest.raises(TooFewMinority):
            adasyn(t, ResamplingConfig())
        all_pos = rand_table(n=5, p=2, n_pos=5, seed=0)
        with pytest.raises(TooFewMinority):
            adasyn(all_pos, ResamplingConfig())

    def test_already_balanced_is_identity(self):
        t = rand_table(n=40, p=3, n_pos=20, seed=0)
        out = adasyn(t, ResamplingConfig(seed=0))
        assert out is t

    def test_identical_minority_warns(self):
        t = rand_table(n=30, p=2, n_pos=4, seed=3)
        t.X[t.y == 1] = 1.234
        with pytest.warns(UserWarning, match="identical"):
            adasyn(t, ResamplingConfig(seed=0))
