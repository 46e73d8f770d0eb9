"""Sampling and rounding primitives: marginals, degrees, correlations."""

import hashlib
import math

import numpy as np
import pytest

from conftest import golden_note, small_instance
from osbm import pipage_round
from osbm.instances import build_instance, generate_synthetic
from osbm.rounding import (
    dependent_round_stars,
    independent_sample,
    sample_support,
    select_per_star,
)

# sha256 of the packed masks of TestPairingStep.test_golden_masks; any change
# to the draws or the results of either rounding moves it
PAIRING_GOLDEN = "262393ed45b84fe1e1a01c5f39b11c3bf15e4a006208390cc86163c2568b707f"


def star_instance(k, capacity=1, rate=1.0):
    return build_instance(
        offline=[("u0", capacity)],
        online=[(f"v{j}", rate) for j in range(k)],
        edges=[(f"e{j}", "u0", f"v{j}") for j in range(k)],
        horizon=k,
    )


def binom_sigma(p, n):
    return math.sqrt(p * (1 - p) / n)


def rngs(n, start=0):
    """One generator per trial s, seeded with s."""
    return [np.random.default_rng(s) for s in range(start, start + n)]


class TestIndependentSample:
    def test_all_ones_certain(self):
        X = independent_sample(np.ones(5), seed=0)
        assert X.all()

    def test_zero_mass_never_sampled(self):
        X = independent_sample(np.zeros(5), seed=0)
        assert not X.any()

    def test_frequency_within_three_sigma(self):
        n = 100_000
        rng = np.random.default_rng(5)
        hits = sum(independent_sample([0.3], rng)[0] for _ in range(n))
        assert abs(hits / n - 0.3) <= 3 * binom_sigma(0.3, n)

    def test_coordinates_uncorrelated(self):
        n = 50_000
        rng = np.random.default_rng(6)
        draws = np.array([independent_sample([0.4, 0.6], rng) for _ in range(n)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 3 / math.sqrt(n)

    def test_deterministic_given_seed(self):
        x = np.full(20, 0.5)
        assert np.array_equal(independent_sample(x, 9), independent_sample(x, 9))


class TestSelectPerStar:
    def test_singleton_always_selected(self):
        inst = star_instance(1)
        Y = select_per_star(np.array([True]), inst, seed=0)
        assert Y[0]

    def test_empty_star_selects_nothing(self):
        inst = star_instance(2)
        Y = select_per_star(np.array([False, False]), inst, seed=0)
        assert not Y.any()

    def test_uniform_choice_within_star(self):
        inst = star_instance(3)
        X = np.array([True, True, True])
        n = 12_000
        counts = np.zeros(3)
        for s in range(n):
            counts += select_per_star(X, inst, seed=s)
        sd = binom_sigma(1 / 3, n)
        for c in counts:
            assert abs(c / n - 1 / 3) <= 3 * sd

    def test_conditional_law_is_exactly_one_over_k(self):
        # condition on |E_X(u0)| = k by construction; check each k
        n = 9000
        for k in (1, 2, 4):
            inst = star_instance(4)
            X = np.zeros(4, dtype=bool)
            X[:k] = True
            counts = np.zeros(4)
            for s in range(n):
                counts += select_per_star(X, inst, seed=1000 + s)
            assert counts[k:].sum() == 0
            sd = binom_sigma(1 / k, n)
            for c in counts[:k]:
                assert abs(c / n - 1 / k) <= 3 * sd

    def test_at_most_one_per_star_on_random_graphs(self, rng):
        for _ in range(20):
            inst = small_instance(rng)
            X = independent_sample(rng.random(inst.n_edges), rng)
            Y = select_per_star(X, inst, rng)
            assert np.all(Y <= X)
            for ui in range(inst.n_offline):
                assert Y[inst.edges_at_u[ui]].sum() <= 1


class TestSelectPerStarCapacity:
    """Stars of capacity b_u keep a uniform min(b_u, k)-subset of their k
    sampled edges."""

    def test_subset_of_x_with_min_capacity_count(self, rng):
        for _ in range(30):
            inst = small_instance(rng, max_degree=5)
            inst = inst.with_capacities(rng.integers(1, 4, inst.n_offline))
            X = independent_sample(rng.random(inst.n_edges), rng)
            Y = select_per_star(X, inst, rng)
            assert np.all(Y <= X)
            for ui, cap in enumerate(inst.capacities):
                star = inst.edges_at_u[ui]
                assert Y[star].sum() == min(cap, X[star].sum())

    def test_each_present_edge_kept_with_probability_b_over_k(self):
        n = 9000
        for cap, k in ((2, 3), (2, 4), (3, 4)):
            inst = star_instance(5, capacity=cap)
            X = np.zeros(5, dtype=bool)
            X[:k] = True
            counts = np.zeros(5)
            for s in range(n):
                counts += select_per_star(X, inst, seed=3000 + s)
            assert counts[k:].sum() == 0
            p = cap / k
            for c in counts[:k]:
                assert abs(c / n - p) <= 3 * binom_sigma(p, n)

    def test_star_within_capacity_kept_whole_without_drawing(self):
        inst = star_instance(4, capacity=3)
        X = np.array([True, False, True, True])
        rng = np.random.default_rng(12)
        assert np.array_equal(select_per_star(X, inst, rng), X)
        assert rng.random() == np.random.default_rng(12).random()

    def test_unit_capacity_draws_one_integer_per_contested_star(self, rng):
        for s in range(50):
            inst = small_instance(rng, max_degree=4)
            X = independent_sample(rng.random(inst.n_edges), rng)
            ref_rng = np.random.default_rng(s)
            expected = np.zeros_like(X)
            for ui in range(inst.n_offline):
                present = inst.edges_at_u[ui][X[inst.edges_at_u[ui]]]
                if len(present):
                    expected[present[ref_rng.integers(len(present))]] = True
            got_rng = np.random.default_rng(s)
            assert np.array_equal(select_per_star(X, inst, got_rng), expected)
            assert got_rng.random() == ref_rng.random()


def x_edges_at(support, edge_list):
    """The edges of `edge_list` in the sampled support X."""
    return edge_list[support.X[edge_list]]


class TestSampledSupport:
    def test_support_respects_order_x_then_y(self):
        inst = star_instance(3)
        s = sample_support(np.array([1.0, 1.0, 0.0]), inst, seed=4)
        assert s.X[0] and s.X[1] and not s.X[2]
        assert s.Y.sum() == 1

    def test_x_edges_at_filters(self):
        inst = star_instance(3)
        s = sample_support(np.array([1.0, 0.0, 1.0]), inst, seed=4)
        present = x_edges_at(s, inst.edges_at_u[0])
        assert set(present.tolist()) == {0, 2}


def reference_round_stars(x, inst, rng):
    """One trial of star-wise dependent rounding, one scalar draw per walk:
    the loop form the batched pass must reproduce draw for draw."""
    def fractional(v):
        return 1e-12 < v < 1.0 - 1e-12

    def shift(walk):
        even, odd = walk[::2], walk[1::2]
        up = min([1.0 - p[e] for e in even] + [p[e] for e in odd])
        down = min([p[e] for e in even] + [1.0 - p[e] for e in odd])
        step = up if rng.random() < down / (up + down) else -down
        for k, e in enumerate(walk):
            v = p[e] - step if k % 2 else p[e] + step
            p[e] = 0.0 if v <= 1e-12 else 1.0 if v >= 1.0 - 1e-12 else v

    p = list(map(float, x))
    for star in inst.edges_at_u:
        carried = []
        for e in star.tolist():
            if fractional(p[e]):
                carried.append(e)
                if len(carried) == 2:
                    shift(carried)
                    carried = [f for f in carried if fractional(p[f])]
        if carried:
            shift(carried)
    return np.array(p) > 0.5


class TestBatchedStart:
    """A list of generators rounds one trial per generator; each row and
    each generator's state afterwards equal the single call's.  A support
    is sampled per trial, from that trial's generator."""

    @staticmethod
    def recipe_guide(b):
        inst = generate_synthetic("budget_additive", 11).instance
        w = np.random.default_rng(11).random(inst.n_edges)
        deg_u = np.bincount(inst.edge_u, minlength=inst.n_offline)[inst.edge_u]
        # exact zeros and ones mixed in, so some edges start settled
        x = np.where(w < 0.15, 0.0, np.where(w > 0.95, 1.0,
                                              w * np.minimum(1.0, b / deg_u)))
        x = np.minimum(x, 1.0)
        cap = np.ceil(np.bincount(inst.edge_u, weights=x, minlength=inst.n_offline))
        return inst.with_capacities(np.maximum(cap, b).astype(int)), x

    @staticmethod
    def assert_same_states(*generator_lists):
        for gens in zip(*generator_lists):
            assert all(g.bit_generator.state == gens[0].bit_generator.state
                       for g in gens)
            assert len({g.random() for g in gens}) == 1

    @pytest.mark.parametrize("b", [1, 5])
    def test_dependent_round_stars_rows_match_single_calls(self, b):
        inst, x = self.recipe_guide(b)
        batch, single, ref = rngs(30, 100), rngs(30, 100), rngs(30, 100)
        chosen = dependent_round_stars(x, inst, batch)
        assert chosen.shape == (30, inst.n_edges)
        for row, rng, ref_rng in zip(chosen, single, ref):
            assert np.array_equal(row, dependent_round_stars(x, inst, [rng])[0])
            assert np.array_equal(row, reference_round_stars(x, inst, ref_rng))
        self.assert_same_states(batch, single, ref)

    def test_dependent_round_stars_matches_scalar_reference(self):
        # quarter-grid values make both edges of a walk settle at once
        g = np.random.default_rng(32)
        for _ in range(100):
            k, cap = int(g.integers(1, 8)), int(g.integers(1, 4))
            inst = star_instance(k, capacity=cap)
            x = np.where(g.random(k) < 0.6, g.integers(0, 5, k) / 4, g.random(k))
            if x.sum() > cap:
                x *= cap / x.sum()
            start = int(g.integers(1 << 30))
            batch, single = rngs(8, start), rngs(8, start)
            chosen = dependent_round_stars(x, inst, batch)
            for row, rng in zip(chosen, single):
                assert np.array_equal(row, reference_round_stars(x, inst, rng))
            self.assert_same_states(batch, single)

    @pytest.mark.parametrize("capacities", ["unit", "b5", "mixed"])
    def test_sample_support_matches_single_calls(self, capacities):
        # unit: one integers(0, ks) call; b5: one permutation per contested
        # star; mixed: capacity-1 and capacity-2 stars interleaved
        inst = generate_synthetic("budget_additive", 11).instance
        caps = {"unit": 1, "b5": 5,
                "mixed": [1 + u % 2 for u in range(inst.n_offline)]}[capacities]
        inst = inst.with_capacities(caps)
        x = np.random.default_rng(5).random(inst.n_edges) * 0.6
        # one call per trial draws as its two steps do, X then Y
        batch, single = rngs(30, 200), rngs(30, 200)
        for trial, rng in zip(batch, single):
            got = sample_support(x, inst, trial)
            X = independent_sample(x, rng)
            assert np.array_equal(got.X, X)
            assert np.array_equal(got.Y, select_per_star(X, inst, rng))
            assert not np.any(got.Y & ~got.X)
            load = np.bincount(inst.edge_u[got.Y], minlength=inst.n_offline)
            assert np.all(load <= inst.capacity_array)
        self.assert_same_states(batch, single)

    def test_empty_batch(self):
        inst = star_instance(2)
        assert dependent_round_stars(np.array([0.5, 0.5]), inst, []).shape == (0, 2)


class TestDependentRounding:
    def test_forced_degree_one(self):
        inst = star_instance(2)
        x = np.array([0.5, 0.5])
        n = 20_000
        chosen = dependent_round_stars(x, inst, rngs(n))
        assert np.all(chosen.sum(axis=1) == 1)
        counts = chosen.sum(axis=0)
        sd = binom_sigma(0.5, n)
        for c in counts:
            assert abs(c / n - 0.5) <= 3 * sd

    def test_marginals_preserved_on_random_stars(self, rng):
        inst = star_instance(5, capacity=2)
        x = np.array([0.15, 0.7, 0.35, 0.55, 0.2])
        n = 20_000
        counts = dependent_round_stars(x, inst, rngs(n)).sum(axis=0)
        for e in range(5):
            sd = binom_sigma(x[e], n)
            assert abs(counts[e] / n - x[e]) <= 3 * sd

    def test_degree_always_floor_or_ceil(self, rng):
        inst = star_instance(4, capacity=2)
        x = np.array([0.4, 0.3, 0.5, 0.3])  # sum 1.5
        degrees = dependent_round_stars(x, inst, rngs(400)).sum(axis=1)
        assert set(degrees.tolist()) <= {1, 2}

    def test_unit_capacity_never_selects_two(self):
        inst = star_instance(2)
        x = np.array([0.3, 0.3])
        n = 100_000
        both = int(np.sum(dependent_round_stars(x, inst, rngs(n)).sum(axis=1) == 2))
        assert both / n <= 0.09  # never exceeds the independent product bound

    def test_negative_correlation_within_star(self):
        inst = star_instance(3, capacity=2)
        x = np.array([0.5, 0.5, 0.5])  # sum 1.5, degree in {1, 2}
        n = 30_000
        chosen = dependent_round_stars(x, inst, rngs(n)).astype(float)
        joint = chosen.T @ chosen
        for i in range(3):
            for j in range(i + 1, 3):
                product = x[i] * x[j]
                sd = binom_sigma(product, n)
                assert joint[i, j] / n <= product + 3 * sd

    def test_capacity_precondition_enforced(self):
        inst = star_instance(2, capacity=1)
        with pytest.raises(ValueError, match="capacity"):
            dependent_round_stars(np.array([0.9, 0.9]), inst, rngs(1))

    @pytest.mark.parametrize("seed", [0, np.random.default_rng(0)])
    def test_a_lone_seed_or_generator_is_refused(self, seed):
        # the list is the one call shape: a lone trial is a list of one
        with pytest.raises(TypeError, match="list of generators"):
            dependent_round_stars(np.array([0.5, 0.5]), star_instance(2), seed)

    def test_stars_rounded_independently(self, rng):
        for _ in range(10):
            inst = small_instance(rng)
            x = 0.9 * rng.random(inst.n_edges)
            # scale down within-star mass to fit unit capacities
            for ui in range(inst.n_offline):
                edges = inst.edges_at_u[ui]
                s = x[edges].sum()
                if s > 1.0:
                    x[edges] *= 0.99 / s
            chosen = dependent_round_stars(x, inst, [rng])[0]
            for ui in range(inst.n_offline):
                deg = chosen[inst.edges_at_u[ui]].sum()
                frac = x[inst.edges_at_u[ui]].sum()
                assert deg in (math.floor(frac), math.ceil(frac))

    def test_deterministic_given_seed(self):
        inst = star_instance(4, capacity=2)
        x = np.array([0.4, 0.3, 0.5, 0.3])
        a = dependent_round_stars(x, inst, rngs(1, 123))
        b = dependent_round_stars(x, inst, rngs(1, 123))
        assert np.array_equal(a, b)


class TestUnroundableGuide:
    """Both roundings refuse an x they cannot round."""

    @pytest.mark.parametrize("round_x", [
        lambda x, inst: pipage_round(x, inst, 0),
        lambda x, inst: dependent_round_stars(x, inst, rngs(1))],
        ids=["pipage", "dependent"])
    @pytest.mark.parametrize("x, match", [
        ([0.5, 0.5, 0.5, 0.5], "edge vector of shape"),  # one entry too many
        ([0.9, 0.9, 0.9], "capacity at 'u1'")])  # u1 carries 1.8
    def test_rejected(self, round_x, x, match):
        inst = build_instance([("u0", 1), ("u1", 1)], [("v0", 1.0), ("v1", 1.0)],
                              [("e0", "u0", "v0"), ("e1", "u1", "v0"),
                               ("e2", "u1", "v1")], horizon=2)
        with pytest.raises(ValueError, match=match):
            round_x(np.array(x), inst)


class TestPairingStep:
    """Dependent rounding and pipage rounding make the same pairing step."""

    def test_one_star_matches_pipage_draw_for_draw(self):
        g = np.random.default_rng(31)
        for _ in range(500):
            k, cap = int(g.integers(1, 8)), int(g.integers(1, 4))
            inst = star_instance(k, capacity=cap)
            # quarter-grid values mixed in, so ties and integral entries occur
            x = np.where(g.random(k) < 0.4, g.integers(0, 5, k) / 4, g.random(k))
            if x.sum() > cap:
                x *= cap / x.sum()
            seed = int(g.integers(1 << 30))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(dependent_round_stars(x, inst, [a])[0],
                                  pipage_round(x, inst, b))
            assert a.bit_generator.state == b.bit_generator.state

    def test_golden_masks(self):
        # the guide is drawn, not solved, so a solver change cannot move it
        inst = generate_synthetic("budget_additive", 11).instance
        w = np.random.default_rng(11).random(inst.n_edges)
        deg_u = np.bincount(inst.edge_u, minlength=inst.n_offline)[inst.edge_u]
        digest = hashlib.sha256()
        for b in (1, 5):
            x = np.where(w < 0.15, 0.0, w * np.minimum(1.0, b / deg_u))
            inst_b = inst.with_capacities(b)
            trials = [np.random.default_rng((s, 1)) for s in range(50)]
            for chosen in dependent_round_stars(x, inst_b, trials):
                digest.update(np.packbits(chosen).tobytes())
        cycle = build_instance(
            offline=[("u0", 1), ("u1", 1)],
            online=[("v0", 1.0), ("v1", 1.0)],
            edges=[("e0", "u0", "v0"), ("e1", "u1", "v0"), ("e2", "u0", "v1"),
                   ("e3", "u1", "v1")],
            horizon=2)
        x2 = np.array([0.3, 0.45, 0.55, 0.2])
        for s in range(50):
            digest.update(np.packbits(pipage_round(x2, cycle, seed=s)).tobytes())
        assert digest.hexdigest() == PAIRING_GOLDEN, golden_note("PAIRING_GOLDEN")
