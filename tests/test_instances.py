"""Instance model: validation, arrival sampling, generators, ingestion, I/O."""

import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import golden_note
from test_acceptance import write_natural_ratings
from osbm import cli
from osbm import instances as instances_mod
from osbm.instances import (
    OBJECTIVE_PAYLOADS,
    EdgeFeatures,
    IngestError,
    InstanceError,
    Problem,
    build_instance,
    generate_synthetic,
    ingest_ratings,
    load_problem,
    sample_arrivals,
    save_problem,
    validate,
)
from osbm.lp import feasible_for_matching, saturate_marginals, solve_offline_lp
from osbm.objectives import build_objective
from osbm.offline import (OfflineSolution, SolutionError, load_solution,
                          save_solution)
from osbm.rounding import dependent_round_stars


def tiny_instance(**kw):
    args = dict(
        offline=[("u1", 1), ("u2", 2)],
        online=[("v1", 0.5), ("v2", 1.0)],
        edges=[("e1", "u1", "v1"), ("e2", "u2", "v1"), ("e3", "u2", "v2")],
        horizon=4,
    )
    args.update(kw)
    return build_instance(**args)


class TestValidate:
    def test_clean_instance_has_no_violations(self):
        assert validate(tiny_instance()) == []

    def test_rates_exceeding_horizon_flagged(self):
        inst = tiny_instance(
            online=[("v1", 1.0), ("v2", 1.0), ("v3", 1.0)], horizon=2,
            edges=[("e1", "u1", "v1")],
        )
        msgs = validate(inst)
        assert any("rates exceed horizon" in m for m in msgs)

    def test_empty_edge_list_is_legal(self):
        inst = tiny_instance(edges=[])
        assert validate(inst) == []

    def test_dangling_endpoint_reported(self):
        inst = tiny_instance(edges=[("e1", "u1", "ghost")])
        msgs = validate(inst)
        assert any("dangling endpoint" in m for m in msgs)

    def test_all_violations_reported_not_just_first(self):
        inst = tiny_instance(
            online=[("v1", 1.5), ("v2", 1.0), ("v3", 1.0)], horizon=2,
            edges=[("e1", "u1", "ghost"), ("e2", "u9", "v1")],
        )
        msgs = validate(inst)
        assert sum("dangling endpoint" in m for m in msgs) == 2
        assert any("out of range" in m for m in msgs)
        assert any("rates exceed horizon" in m for m in msgs)

    @pytest.mark.parametrize("rate", [math.inf, 1.5])
    def test_a_rate_out_of_range_is_listed_once(self, rate):
        inst = build_instance([("u0", 1)], [("v0", rate), ("v1", 0.5)],
                              [("e0", "u0", "v0")], 3)
        msg = f"rate of 'v0' out of range (0, 1]: got {rate:g}"
        assert validate(inst).count(msg) == 1

    def test_duplicate_pair_and_bad_capacity(self):
        inst = tiny_instance(
            offline=[("u1", 0)],
            edges=[("e1", "u1", "v1"), ("e2", "u1", "v1")],
        )
        msgs = validate(inst)
        assert any("duplicate (u, v) pair" in m for m in msgs)
        assert any("capacity" in m for m in msgs)

    def test_structural_check_runs_once_per_instance(self, monkeypatch, tmp_path):
        calls = []
        check = instances_mod._structural_violations
        monkeypatch.setattr(instances_mod, "_structural_violations",
                            lambda inst: calls.append(inst) or check(inst))
        inst = tiny_instance()
        assert inst.edge_u.tolist() == [0, 1, 1]
        assert inst.edge_v.tolist() == [0, 0, 1]
        assert len(calls) == 1
        copy = inst.with_capacities(3).with_eta(2)
        assert np.array_equal(copy.edge_u, inst.edge_u)
        assert np.array_equal(copy.edge_v, inst.edge_v)
        assert len(calls) == 2
        path = tmp_path / "p.txt"
        save_problem(Problem(inst, EdgeFeatures(edge_weights=np.ones(3)), "linear"),
                     path)
        del calls[:]
        loaded = load_problem(path).instance
        loaded.edge_u, loaded.edge_v
        assert len(calls) == 1


def reference_groups(inst):
    """Edges of each offline vertex and of each type, by a per-edge loop."""
    at_u = [[] for _ in range(inst.n_offline)]
    at_v = [[] for _ in range(inst.n_online)]
    for e, (u, v) in enumerate(zip(inst.edge_u.tolist(), inst.edge_v.tolist())):
        at_u[u].append(e)
        at_v[v].append(e)
    return at_u, at_v


class TestGrouping:
    def test_groups_match_per_edge_loop(self):
        inst = tiny_instance(offline=[("u1", 1), ("u2", 2), ("lonely", 1)],
                             online=[("v1", 0.5), ("v2", 1.0), ("v0", 0.5)])
        recipe = generate_synthetic("coverage", 11).instance
        for one in (inst, recipe):
            at_u, at_v = reference_groups(one)
            assert [g.tolist() for g in one.edges_at_u] == at_u
            assert [g.tolist() for g in one.edges_at_v] == at_v
        assert inst.edges_at_u[2].size == 0 and inst.edges_at_v[2].size == 0

    @pytest.mark.parametrize("kind", ["coverage", "budget_additive"])
    def test_loads_equal_per_star_sums_bit_for_bit(self, kind):
        problem = generate_synthetic(kind, 11)
        objective = build_objective(problem)
        for b in (1, 5):
            for eta in (1, 2):
                inst = problem.instance.with_capacities(b).with_eta(eta)
                x, _, _ = solve_offline_lp(inst, objective)
                at_u, at_v = reference_groups(inst)
                load_u, load_v = inst.loads(x)
                assert load_u.tolist() == [x[star].sum() for star in at_u]
                assert load_v.tolist() == [x[edges].sum() for edges in at_v]

    def test_loads_rejects_a_vector_of_another_length(self):
        # every polytope check reads loads, so each rejects it too
        inst = generate_synthetic("budget_additive", 11).instance
        m = inst.n_edges
        for n in (m - 5, m + 5):
            for check in (inst.loads,
                          lambda x: feasible_for_matching(inst, x),
                          lambda x: saturate_marginals(inst, x, np.ones(len(x))),
                          lambda x: dependent_round_stars(x, inst, 0)):
                with pytest.raises(ValueError, match=f"for {m} edges"):
                    check(np.full(n, 0.01))
        lonely = tiny_instance(offline=[("u1", 1), ("u2", 2), ("lonely", 1)])
        load_u, _ = lonely.loads(np.ones(3))
        assert load_u.tolist() == [1.0, 2.0, 0.0]


class TestSampleArrivals:
    def test_rate_equal_to_horizon_fills_every_slot(self):
        inst = build_instance([("u1", 1)], [("v1", 1.0)],
                              [("e1", "u1", "v1")], horizon=1)
        seq = sample_arrivals(inst, seed=3)
        assert list(seq.slots) == [0]

    def test_identical_seed_identical_sequence(self):
        inst = tiny_instance()
        a = sample_arrivals(inst, seed=9)
        b = sample_arrivals(inst, seed=9)
        assert np.array_equal(a.slots, b.slots)

    def test_empirical_arrival_mean_matches_binomial(self):
        # rate 1 over T=100: mean arrivals 1, binomial sd per sequence
        T, n_seq = 100, 20000
        inst = build_instance([("u1", 1)], [("v1", 1.0)],
                              [("e1", "u1", "v1")], horizon=T)
        p = 1.0 / T
        counts = np.array([
            len(sample_arrivals(inst, seed=s).arrival_times)
            for s in range(n_seq)
        ])
        sd_mean = math.sqrt(T * p * (1 - p) / n_seq)
        assert abs(counts.mean() - 1.0) <= 3 * sd_mean

    def test_per_type_frequency_within_three_sigma(self):
        inst = tiny_instance()
        n_seq = 12000
        totals = np.zeros(inst.n_online)
        for s in range(n_seq):
            totals += sample_arrivals(inst, seed=1000 + s).counts(inst.n_online)
        n_draws = n_seq * inst.horizon
        for vi, r in enumerate(inst.rates):
            p = r / inst.horizon
            sd = math.sqrt(p * (1 - p) / n_draws)
            assert abs(totals[vi] / n_draws - p) <= 3 * sd


class TestGenerators:
    def test_budget_additive_recipe_shape(self):
        p = generate_synthetic("budget_additive", seed=7)
        inst = p.instance
        assert (inst.n_offline, inst.n_online, inst.horizon) == (100, 200, 200)
        assert p.budget == 50.0
        assert p.kind == "budget_additive"
        assert len(p.features.edge_weights) == inst.n_edges
        assert p.validate() == []

    def test_coverage_recipe_shape(self):
        p = generate_synthetic("coverage", seed=7)
        inst = p.instance
        assert (inst.n_offline, inst.n_online, inst.horizon) == (40, 200, 1000)
        assert p.kind == "coverage"
        degrees = np.bincount(inst.edge_v, minlength=inst.n_online)
        assert degrees.max() <= 10 and degrees.min() >= 1
        assert all(1 <= len(q) <= 20 for q in p.features.feature_sets)
        assert p.validate() == []

    def test_rates_fractional_and_in_unit_interval(self):
        p = generate_synthetic("budget_additive", seed=3)
        r = np.array(p.instance.rates)
        assert np.all(r > 0) and np.all(r <= 1)

    def test_seed_changes_edges_not_shape(self):
        a = generate_synthetic("coverage", seed=1)
        b = generate_synthetic("coverage", seed=2)
        assert a.instance.n_offline == b.instance.n_offline
        assert a.instance.n_online == b.instance.n_online
        assert (a.instance.edge_offline != b.instance.edge_offline
                or a.instance.edge_online != b.instance.edge_online)

    def test_same_seed_byte_identical_file(self, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_problem(generate_synthetic("coverage", seed=5), f1)
        save_problem(generate_synthetic("coverage", seed=5), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic("mystery", seed=0)


def write_ratings_fixture(tmp_path, n_users=6, n_movies=5, leave_out=None):
    """Dense ratings with optional (user, movie) holes; 2 genres."""
    leave_out = leave_out or set()
    ratings = tmp_path / "ratings.csv"
    genres = tmp_path / "genres.csv"
    rows = []
    for ui in range(n_users):
        for mi in range(n_movies):
            if (f"user{ui}", f"m{mi}") in leave_out:
                continue
            rows.append(f"user{ui},m{mi},{(ui + mi) % 5 + 1}")
    ratings.write_text("\n".join(rows) + "\n")
    genres.write_text(
        "\n".join(f"m{mi},g{mi % 2}" for mi in range(n_movies)) + "\n")
    return ratings, genres


class TestIngest:
    def test_user_who_rated_everything_has_degree_zero(self, tmp_path):
        holes = {("user1", "m0"), ("user2", "m3")}
        ratings, genres = write_ratings_fixture(tmp_path, leave_out=holes)
        prob = ingest_ratings(ratings, genres, num_users=6, num_movies=5, seed=0)
        inst = prob.instance
        deg = {vid: 0 for vid in inst.online_ids}
        for v in inst.edge_online:
            deg[v] += 1
        assert deg["user0"] == 0
        assert deg["user1"] == 1 and deg["user2"] == 1

    def test_no_edge_where_a_rating_exists(self, tmp_path):
        holes = {("user1", "m0")}
        ratings, genres = write_ratings_fixture(tmp_path, leave_out=holes)
        prob = ingest_ratings(ratings, genres, num_users=6, num_movies=5, seed=0)
        pairs = set(zip(prob.instance.edge_online, prob.instance.edge_offline))
        assert pairs == {("user1", "m0")}

    def test_genre_weight_is_mean_rating(self, tmp_path):
        ratings = tmp_path / "r.csv"
        genres = tmp_path / "g.csv"
        ratings.write_text("alice,m1,4\nalice,m2,2\nbob,m1,5\nbob,m2,5\n")
        genres.write_text("m1,gz\nm2,gz\n")
        prob = ingest_ratings(ratings, genres, num_users=2, num_movies=2, seed=0)
        (z,) = range(len(prob.features.feature_names))
        vi = prob.instance.online_index["alice"]
        assert prob.features.user_weights[vi, z] == pytest.approx(3.0)

    def test_requested_counts_respected(self, tmp_path):
        ratings, genres = write_ratings_fixture(
            tmp_path, leave_out={("user0", "m0")})
        prob = ingest_ratings(ratings, genres, num_users=4, num_movies=3, seed=1)
        assert prob.instance.n_online == 4
        assert prob.instance.n_offline == 3

    def test_integral_rates_mode(self, tmp_path):
        ratings, genres = write_ratings_fixture(
            tmp_path, leave_out={("user0", "m0")})
        prob = ingest_ratings(ratings, genres, num_users=6, num_movies=5,
                              rates_mode="integral", seed=0)
        assert prob.instance.horizon == 6
        assert all(r == 1.0 for r in prob.instance.rates)
        assert prob.validate() == []

    def test_normalized_probabilities_sum_to_one(self, tmp_path):
        ratings, genres = write_ratings_fixture(
            tmp_path, leave_out={("user0", "m0")})
        prob = ingest_ratings(ratings, genres, num_users=6, num_movies=5,
                              horizon=12, seed=0)
        assert sum(prob.instance.arrival_probs) == pytest.approx(1.0)

    def test_malformed_row_raises(self, tmp_path):
        ratings = tmp_path / "r.csv"
        genres = tmp_path / "g.csv"
        ratings.write_text("alice,m1\n")
        genres.write_text("m1,gz\n")
        with pytest.raises(IngestError, match="malformed row"):
            ingest_ratings(ratings, genres, num_users=1, num_movies=1)
        # a repeated (user, movie) row: counting every row made u1, who
        # rated one movie, the most prolific rater, weighted by the last row
        ratings.write_text("u0,m0,1\nu0,m1,2\nu1,m0,5\nu1,m0,4\nu1,m0,1\nu2,m2,3\n")
        genres.write_text("m0,a\nm1,b\nm2,a\n")
        with pytest.raises(IngestError, match=re.escape(
                f"ratings file {ratings}: malformed row 4: u1 rates m0 again")):
            ingest_ratings(ratings, genres, num_users=1, num_movies=2, seed=0)

    def test_negative_rating_raises(self, tmp_path):
        # it would make a negative genre weight, which load_problem refuses
        ratings, genres = write_ratings_fixture(tmp_path, n_users=2, n_movies=2)
        ratings.write_text(ratings.read_text().replace("user1,m1,3", "user1,m1,-2"))
        with pytest.raises(IngestError, match="bad rating '-2'"):
            ingest_ratings(ratings, genres, num_users=2, num_movies=2)

    def test_ingest_is_independent_of_the_hash_seed(self, tmp_path):
        # non-dyadic ratings summed in a different order change the last
        # bits of a genre weight, so the file bytes pin the summation order
        ratings = tmp_path / "ratings.csv"
        genres = tmp_path / "genres.csv"
        ratings.write_text("".join(
            f"user{u},movie{m},{(7 * u + 3 * m) % 10 / 10 + 0.1:.1f}\n"
            for u in range(3) for m in range(40) if (u + m) % 4))
        genres.write_text("".join(f"movie{m},g{m % 2}\n" for m in range(40)))
        src = str(Path(instances_mod.__file__).parents[1])
        outputs = []
        for hash_seed in ("1", "2", "3"):
            out = tmp_path / f"inst{hash_seed}.txt"
            subprocess.run(
                [sys.executable, "-m", "osbm.cli", "ingest", "--ratings", str(ratings),
                 "--genres", str(genres), "--users", "3", "--movies", "20",
                 "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                check=True, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_too_few_users_raises(self, tmp_path):
        ratings, genres = write_ratings_fixture(tmp_path, n_users=3)
        with pytest.raises(IngestError, match="users"):
            ingest_ratings(ratings, genres, num_users=10, num_movies=3)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["coverage", "budget_additive"])
    def test_synthetic_round_trip_is_lossless(self, tmp_path, kind):
        prob = generate_synthetic(kind, seed=2)
        f1 = tmp_path / "p1.txt"
        f2 = tmp_path / "p2.txt"
        save_problem(prob, f1)
        save_problem(load_problem(f1), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_ingested_round_trip_is_lossless(self, tmp_path):
        ratings, genres = write_ratings_fixture(
            tmp_path, leave_out={("user0", "m0"), ("user3", "m2")})
        prob = ingest_ratings(ratings, genres, num_users=6, num_movies=5, seed=0)
        f1 = tmp_path / "p1.txt"
        f2 = tmp_path / "p2.txt"
        save_problem(prob, f1)
        back = load_problem(f1)
        save_problem(back, f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert back.kind == "per_user_coverage"
        assert back.instance == prob.instance

    def test_all_zero_user_weights_round_trip(self, tmp_path):
        # save_problem omits zero uw records, so this file holds none at all
        prob = Problem(instance=tiny_instance(),
                       features=EdgeFeatures(n_features=2,
                                             feature_sets=(frozenset({0}),) * 3,
                                             user_weights=np.zeros((2, 2))),
                       kind="per_user_coverage")
        f1 = tmp_path / "p1.txt"
        save_problem(prob, f1)
        assert "\nuw " not in f1.read_text()
        back = load_problem(f1)
        assert np.array_equal(back.features.user_weights, np.zeros((2, 2)))
        assert build_objective(back).value([0, 1, 2]) == 0.0

    def test_coverage_needs_a_feature_to_round_trip(self, tmp_path):
        # with no feature there is no fw record to write, so the problem is
        # invalid; one feature that no edge covers is valid and reloads
        def coverage(weights):
            return Problem(instance=tiny_instance(), kind="coverage",
                           features=EdgeFeatures(n_features=len(weights),
                                                 feature_sets=(frozenset(),) * 3,
                                                 feature_weights=np.array(weights)))
        empty, one = coverage([]), coverage([2.5])
        assert empty.validate() == ["coverage objective needs at least one feature"]
        save_problem(empty, tmp_path / "empty.txt")
        with pytest.raises(InstanceError, match="needs at least one feature"):
            load_problem(tmp_path / "empty.txt")
        assert one.validate() == []
        save_problem(one, tmp_path / "one.txt")
        back = load_problem(tmp_path / "one.txt")
        assert np.array_equal(back.features.feature_weights, [2.5])
        assert back.features.feature_sets == (frozenset(),) * 3
        assert build_objective(back).value([0, 1, 2]) == 0.0

    @pytest.mark.parametrize("kind", ["linear", "budget_additive"])
    def test_weight_kinds_without_edges_round_trip(self, tmp_path, kind):
        # no e record carries a weight, and the kind still reads them
        inst = build_instance([("u1", 1)], [("v1", 1.0)], [], horizon=1)
        prob = Problem(instance=inst, kind=kind, budget=2.0 if kind != "linear" else None,
                       features=EdgeFeatures(edge_weights=np.zeros(0)))
        assert prob.validate() == []
        save_problem(prob, tmp_path / "p.txt")
        back = load_problem(tmp_path / "p.txt")
        assert back.features.edge_weights.shape == (0,)
        assert build_objective(back).value([]) == 0.0

    def test_validate_rejects_payloads_the_format_cannot_hold(self):
        # one fn and fw record per feature (fn a token), one uw record per
        # (type, feature); each of these would reload as another problem
        def problem(kind="linear", n_features=2, **payload):
            features = dict(edge_weights=np.ones(3)) if kind == "linear" else \
                dict(feature_sets=(frozenset(),) * 3)
            return Problem(instance=tiny_instance(), kind=kind, features=EdgeFeatures(
                n_features=n_features, **features, **payload))
        names = "feature names must name each of at least one feature"
        assert problem(feature_names=("a", "b")).validate() == []
        assert problem(feature_names=("a",)).validate() == [names]
        assert problem(n_features=0, feature_names=()).validate() == [names]
        assert problem(feature_names=("a b", "")).validate() == [
            "feature name 'a b' is empty or has whitespace",
            "feature name '' is empty or has whitespace"]
        assert problem("coverage", feature_weights=np.ones(1)).validate() == [
            "feature weight vector length mismatch"]
        for shape in ((2, 1), (3, 2)):  # two types, two features
            assert problem("per_user_coverage", user_weights=np.ones(shape)).validate() \
                == ["user weight matrix shape mismatch"]


def problem_strategy(st):
    """Problems of every objective kind carrying exactly the payloads their
    kind reads, with empty and degenerate ones allowed: no vertices, types
    or edges, no features, empty feature sets, zero and -0.0 weights, a
    zero budget.  Ids and feature names are whitespace-free tokens, which
    `validate` demands of ids; the caller skips what `validate` rejects."""
    token = st.text(st.characters(blacklist_categories=("Z", "C")),
                    min_size=1, max_size=3)
    weight = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) \
        | st.sampled_from([0.0, -0.0, 1.0])

    def ids(draw, n):
        return draw(st.lists(token, min_size=n, max_size=n, unique=True))

    def weights(draw, *shape):
        n = math.prod(shape)
        return np.array(draw(st.lists(weight, min_size=n, max_size=n)),
                        dtype=float).reshape(shape)

    @st.composite
    def problems(draw):
        kind = draw(st.sampled_from(sorted(OBJECTIVE_PAYLOADS)))
        reads = OBJECTIVE_PAYLOADS[kind]
        n_u, n_v = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        u_ids, v_ids = ids(draw, n_u), ids(draw, n_v)
        pairs = draw(st.lists(st.tuples(st.integers(0, n_u - 1), st.integers(0, n_v - 1)),
                              unique=True)) if n_u and n_v else []
        inst = build_instance(
            [(u, draw(st.integers(1, 3))) for u in u_ids],
            [(v, draw(st.floats(0.0, 1.0, exclude_min=True))) for v in v_ids],
            [(e, u_ids[i], v_ids[j]) for e, (i, j) in zip(ids(draw, len(pairs)), pairs)],
            horizon=draw(st.integers(max(1, n_v), 5)), eta=draw(st.integers(1, 3)))
        m, n_f = inst.n_edges, draw(st.integers(0, 3)) if "feature_sets" in reads else 0
        feature_set = st.sets(st.sampled_from(range(n_f))) if n_f else st.just(set())
        features = EdgeFeatures(
            n_features=n_f,
            edge_weights=weights(draw, m) if "edge_weights" in reads else None,
            feature_sets=(tuple(frozenset(draw(feature_set)) for _ in range(m))
                          if "feature_sets" in reads else None),
            feature_weights=weights(draw, n_f) if "feature_weights" in reads else None,
            user_weights=weights(draw, n_v, n_f) if "user_weights" in reads else None,
            feature_names=draw(st.none() | st.lists(token, min_size=n_f, max_size=n_f)
                               .map(tuple)))
        return Problem(instance=inst, features=features, kind=kind,
                       budget=draw(weight) if "budget" in reads else None)

    return problems()


def assert_same_problem(a, b):
    assert (a.instance, a.kind, a.budget) == (b.instance, b.kind, b.budget)
    fa, fb = a.features, b.features
    assert (fa.n_features, fa.feature_sets, fa.feature_names) == \
        (fb.n_features, fb.feature_sets, fb.feature_names)
    for name in ("edge_weights", "feature_weights", "user_weights"):
        x, y = getattr(fa, name), getattr(fb, name)
        assert (x is None) == (y is None), name
        assert x is None or np.array_equal(x, y), name


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestRoundTripProperty:
    def test_valid_problems_and_feasible_solutions_round_trip(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        token = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1,
                        max_size=3)
        count = st.none() | st.integers(-2**63, 2**63)
        path, x_path = tmp_path / "p.txt", tmp_path / "x.txt"

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(problem_strategy(st), st.data())
        def check(problem, data):
            hypothesis.assume(problem.validate() == [])
            save_problem(problem, path)
            assert_same_problem(load_problem(path), problem)
            # a feasible x: each edge within its box, its star's capacity
            # and its type's eta * rate, each spread over the degree
            inst = problem.instance
            deg_u = np.bincount(inst.edge_u, minlength=inst.n_offline)[inst.edge_u]
            deg_v = np.bincount(inst.edge_v, minlength=inst.n_online)[inst.edge_v]
            top = np.minimum(1.0, np.minimum(
                inst.capacity_array[inst.edge_u] / deg_u,
                inst.eta * inst.rate_array[inst.edge_v] / deg_v))
            share = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])
            x = top * np.array(data.draw(st.lists(share, min_size=inst.n_edges,
                                                  max_size=inst.n_edges)), dtype=float)
            label = token | st.text(max_size=2)
            benchmark = data.draw(st.none() | st.tuples(label, st.floats()))
            sol = OfflineSolution(
                x=x, objective_estimate=data.draw(st.floats()),
                estimate_std_error=data.draw(st.floats()), solver=data.draw(label),
                seed=data.draw(count), steps=data.draw(count),
                grad_samples=data.draw(count),
                benchmark_kind=benchmark and benchmark[0],
                benchmark_value=benchmark and benchmark[1])
            # the saver refuses what the loader would misread or reject
            labels = [sol.solver] + ([] if benchmark is None else [benchmark[0]])
            if not all(s and not any(ch.isspace() for ch in s) for s in labels) or \
                    benchmark is not None and not math.isfinite(benchmark[1]):
                with pytest.raises(SolutionError, match="whitespace|is not finite"):
                    save_solution(x_path, inst, sol)
                return
            save_solution(x_path, inst, sol)
            back = load_solution(x_path, inst)
            assert np.array_equal(back.x, x)
            assert (back.solver, back.seed, back.steps, back.grad_samples,
                    back.benchmark_kind) == (sol.solver, sol.seed, sol.steps,
                                             sol.grad_samples, sol.benchmark_kind)
            for field in ("objective_estimate", "estimate_std_error", "benchmark_value"):
                mine, theirs = getattr(back, field), getattr(sol, field)
                assert (mine is None) == (theirs is None), field
                assert mine is None or same_float(mine, theirs), field

        check()


class TestRecordLines:
    def test_bad_record_names_its_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "p.txt"
        save_problem(generate_synthetic("budget_additive", 11), path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["", "   "]
        k = next(k for k, ln in enumerate(lines) if ln.startswith("u "))
        lines[k] = "u notanumber"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceError, match=f"bad record at line {k + 1}: "):
            load_problem(path)
        assert k + 1 == 8

    @pytest.mark.parametrize("record", ["sede 3", "seed three", "x e1"])
    def test_bad_solution_record_names_its_line(self, tmp_path, record):
        # every tag is parsed by its table row: a misspelt tag is not skipped
        # and a metadata value is parsed where its line is known
        path = tmp_path / "x.txt"
        save_solution(path, tiny_instance(), OfflineSolution(
            x=np.array([0.25, 0.25, 0.5]), objective_estimate=1.0,
            estimate_std_error=0.0, solver="lp"))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [record] + lines[2:]) + "\n")
        with pytest.raises(SolutionError, match=re.escape(
                f"{path}: bad record at line 3: {record!r}")):
            load_solution(path, tiny_instance())


class TestRecordTable:
    def test_readme_table_matches_the_code(self, tmp_path):
        # README lists each tag once with its fields, key and the records a
        # file needs; so do PROBLEM_RECORDS and SOLUTION_RECORDS, whose
        # parsers give each record of the every-record files that many fields
        from osbm.offline import SOLUTION_RECORDS
        readme = (Path(instances_mod.__file__).parents[2] / "README.md").read_text()
        rows = [[c.strip() for c in ln.strip("|").split("|")] for ln in readme.splitlines()
                if ln.startswith(("| instance |", "| solution |"))]
        tables = {"instance": instances_mod.PROBLEM_RECORDS, "solution": SOLUTION_RECORDS}
        assert [(f, t.strip("`")) for f, t, *_ in rows] == \
            [(f, tag) for f, table in tables.items() for tag in table]
        save_problem(every_record_problem(), tmp_path / "p.txt")
        save_solution(tmp_path / "x.txt", tiny_instance(), OfflineSolution(
            x=np.array([0.25, 0.25, 0.5]), objective_estimate=1.0, estimate_std_error=0.0,
            solver="lp", seed=1, steps=2, grad_samples=3, benchmark_kind="lp",
            benchmark_value=2.0))
        lines = {f: (tmp_path / name).read_text().splitlines()
                 for f, name in (("instance", "p.txt"), ("solution", "x.txt"))}
        needs = {"one": "one", "none, or one per feature": "feature", "one per edge": "edge"}
        for file, tag, fields, key, records in rows:
            tag = tag.strip("`")
            rec = tables[file][tag]
            line = next(ln for ln in lines[file] if ln.split()[0] == tag)
            assert len(rec.parse(line.split()[1:])) == len(fields.split(",")), tag
            assert {"tag": 0, "none": None}.get(key, len(key.split(","))) == rec.key, tag
            assert needs.get(records) == rec.needs, tag


def every_record_problem():
    """A problem whose file holds one record of every kind the format has."""
    feats = EdgeFeatures(
        n_features=3,
        edge_weights=np.array([0.5, 1.0, 0.25]),
        feature_sets=(frozenset({0}), frozenset({1, 2}), frozenset()),
        feature_weights=np.array([1.0, 2.0, 0.5]),
        user_weights=np.array([[0.0, 1.0, 0.5], [2.0, 0.0, 1.0]]),
        feature_names=("a", "b", "c"))
    return Problem(tiny_instance(), feats, "budget_additive", 1.0)


FILE_GOLDENS = {
    ("coverage", 1): "858de1f77480ee529c76764206fade7c27a27ce646f5bdd7c381bd5d37e760be",
    ("coverage", 7): "6084c0d1900009361941dc1d7b2722d076aeb92c3a281a13521552b7c317119d",
    ("coverage", 11): "b194df84912be25bd9c263272f3757ea7cd5bfabca0cf7d11895a4f065d80938",
    ("budget_additive", 1): "b80d14b562e44768c84410b5183c2bfde36c26ccf585a1a6597840e62ce840e2",
    ("budget_additive", 7): "f3bdc029546e3081e05352412273c8195bb6fdefb3f6c191bdb18e8df4092e9c",
    ("budget_additive", 11): "fc74cc073a441b89a05620c9454f0743a1b21231c2b6dcdb1b0b42a43c989a2e",
    ("ingest", "integral"): "e65e4ec7c8e999ff7c06f113e3b5a97881dbc2a2a4d5d3a553cbb50c08b66b18",
    ("ingest", "normalized"): "60f0997c5261242a90c7571d361a3a78bd24e1a6ac880ed9ba76c1d9314530f5",
    ("ingest", "horizon 500"): "f66addcb6a8fc7dfd7c6c1bb92bbfce363773e7ebf051b817386d8196163fe74",
    ("every record", None): "121f10fa415b2fbe13f82bf1d3599bca0388c8134a9c7c052e72ab70c6abc2b3",
    ("solution", None): "b56efa7b21813c30aae983c83dfd518a32cae54403f3dfad2a656969dd4ff6d4",
}


class TestFileGoldens:
    # the bytes save_problem and save_solution write, pinned by sha256:
    # both recipes, the three ingest modes, every record kind and a solution
    # artifact with every metadata record
    @pytest.mark.parametrize("case", FILE_GOLDENS, ids=lambda case: "-".join(
        str(part) for part in case if part is not None).replace(" ", "-"))
    def test_file_bytes(self, tmp_path, case):
        what, variant = case
        path = tmp_path / "f.txt"
        if what in ("coverage", "budget_additive"):
            save_problem(generate_synthetic(what, variant), path)
        elif what == "ingest":
            mode = dict(integral=dict(rates_mode="integral"), normalized={})
            save_problem(ingest_ratings(*write_natural_ratings(tmp_path, seed=99),
                                        num_users=60, num_movies=40, seed=3,
                                        **mode.get(variant, dict(horizon=500))), path)
        elif what == "every record":
            save_problem(every_record_problem(), path)
        else:
            save_solution(path, tiny_instance(), OfflineSolution(
                x=np.array([0.25, 0.2, 0.5]), objective_estimate=1.5,
                estimate_std_error=0.125, solver="continuous-greedy", seed=3,
                steps=10, grad_samples=20, benchmark_kind="guide-scaled",
                benchmark_value=2.5))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == FILE_GOLDENS[case], golden_note(f"FILE_GOLDENS[{case!r}]")


class TestRepeatedRecords:
    # a record may set a value once: a second one must not replace the first
    @pytest.mark.parametrize("tag", ["T", "eta", "objective", "budget", "features",
                                     "fn", "q", "fw", "uw"])
    def test_problem_record_repeated(self, tmp_path, tag):
        path = tmp_path / "p.txt"
        save_problem(every_record_problem(), path)
        lines = path.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.split()[0] == tag)
        lines.insert(k + 1, lines[k])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceError,
                           match=f"{re.escape(str(path))}: repeated record at line {k + 2}: "):
            load_problem(path)

    def test_coverage_recipe_repeats_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        save_problem(generate_synthetic("coverage", 11), path)
        lines = path.read_text().splitlines()
        for extra in ("q e0 0", "fw 0 0.5", "T 2000"):
            path.write_text("\n".join(lines + [extra]) + "\n")
            with pytest.raises(InstanceError, match=f"repeated record at line {len(lines) + 1}"):
                load_problem(path)

    def test_distinct_keys_are_not_repeats(self, tmp_path):
        path = tmp_path / "p.txt"
        save_problem(every_record_problem(), path)
        lines = path.read_text().splitlines()
        assert sum(ln.startswith("uw v1 ") for ln in lines) == 2
        assert sum(ln.startswith("fw ") for ln in lines) == 3
        assert_same_problem(load_problem(path), every_record_problem())

    @pytest.mark.parametrize("record", ["x e1 0.25", "benchmark lp 1.0", "solver lp",
                                        "seed 3", "objective-estimate 0.5"])
    def test_solution_record_repeated(self, tmp_path, record):
        inst = tiny_instance()
        path = tmp_path / "x.txt"
        save_solution(path, inst, OfflineSolution(
            x=np.array([0.5, 0.5, 0.25]), objective_estimate=1.0,
            estimate_std_error=0.0, solver="lp", seed=1, benchmark_kind="lp",
            benchmark_value=2.0))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [record]) + "\n")
        where = re.escape(str(path))
        with pytest.raises(SolutionError,
                           match=f"{where}: repeated record at line {len(lines) + 1}: "):
            load_solution(path, inst)


class TestEdgeWeightsAllOrNone:
    def test_a_dropped_weight_is_rejected(self, tmp_path):
        # a dropped weight must not load as 0.0
        path = tmp_path / "p.txt"
        problem = generate_synthetic("budget_additive", 11)
        save_problem(problem, path)
        lines = path.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.startswith("e "))
        assert lines[k].split()[:4] == ["e", "e0", "u0", "v0"]
        assert problem.features.edge_weights[0] == pytest.approx(0.2887, abs=1e-4)
        lines[k] = "e e0 u0 v0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceError, match=f"{re.escape(str(path))}: edge e0 has no"):
            load_problem(path)

    def test_one_weight_among_none_is_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        problem = Problem(tiny_instance(), EdgeFeatures(
            n_features=1, feature_sets=(frozenset({0}),) * 3,
            feature_weights=np.ones(1)), "coverage")
        save_problem(problem, path)
        assert_same_problem(load_problem(path), problem)
        text = path.read_text().replace("e e2 u2 v1\n", "e e2 u2 v1 1.5\n")
        path.write_text(text)
        with pytest.raises(InstanceError, match=f"{re.escape(str(path))}: edge e1 has no"):
            load_problem(path)

    @pytest.mark.parametrize("tag", ["fw", "fn"])
    def test_a_dropped_feature_record_is_rejected(self, tmp_path, tag):
        # fw and fn records are one per feature, as weights are one per
        # edge: a dropped fw must not load as weight 0.0, nor a dropped fn
        # as the name str(z), which save_problem never writes
        path = tmp_path / "p.txt"
        if tag == "fw":
            problem, dropped = generate_synthetic("coverage", 11), "fw 5 "
            assert problem.features.feature_weights[5] == pytest.approx(0.4559, abs=1e-4)
        else:
            problem, dropped = Problem(tiny_instance(), EdgeFeatures(
                n_features=2, edge_weights=np.ones(3), feature_names=("a", "b")),
                "linear"), "fn 1 "
        save_problem(problem, path)
        lines = path.read_text().splitlines()
        assert sum(ln.startswith(dropped) for ln in lines) == 1
        path.write_text("".join(ln + "\n" for ln in lines if not ln.startswith(dropped)))
        z = dropped.split()[1]
        with pytest.raises(InstanceError,
                           match=re.escape(f"{path}: feature {z} has no {tag} record")):
            load_problem(path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["simulate", "--instance", str(path), "--algorithm", "greedy",
                             "--trials", "1"]) == 2


class TestFeatureIndexRange:
    @pytest.mark.parametrize("record", ["fn 7 ghost", "fw 7 0.5", "uw v1 7 0.5"])
    def test_index_outside_the_feature_count_is_rejected(self, tmp_path, record):
        # an out-of-range fn name must not be dropped without a word
        path = tmp_path / "p.txt"
        save_problem(every_record_problem(), path)
        path.write_text(path.read_text() + record + "\n")
        tag = record.split()[0]
        with pytest.raises(InstanceError, match=re.escape(
                f"{path}: {tag} feature index 7 outside [0, 3)")):
            load_problem(path)

    def test_a_q_record_for_an_unknown_edge_is_rejected(self, tmp_path):
        # as a uw record for an unknown type is: it must not be dropped
        path = tmp_path / "p.txt"
        save_problem(every_record_problem(), path)
        path.write_text(path.read_text() + "q ghost 0 1\n")
        with pytest.raises(InstanceError, match=re.escape(
                f"{path}: q record for unknown edge 'ghost'")):
            load_problem(path)


class TestLoadProblemFuzz:
    def test_one_edit_loads_or_raises_instance_error(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = tmp_path / "p.txt"
        save_problem(every_record_problem(), path)
        lines = path.read_text().splitlines()
        tokens = st.sampled_from(["", "-1", "0", "7", "nan", "x", "e1", "u1",
                                  "v1", "T", "e", "uw", "fw"])
        tokens = tokens | st.text(alphabet="0123456789-.eux", max_size=3)

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            k = data.draw(st.integers(0, len(lines) - 1))
            edited = list(lines)
            tok = edited[k].split()
            op = data.draw(st.sampled_from(["drop line", "drop token", "replace token"]))
            if op == "drop line":
                del edited[k]
            else:
                j = data.draw(st.integers(0, len(tok) - 1))
                tok[j:j + 1] = [] if op == "drop token" else [data.draw(tokens)]
                edited[k] = " ".join(tok)
            path.write_text("\n".join(edited) + "\n")
            try:
                assert isinstance(load_problem(path), Problem)
            except InstanceError as exc:
                assert str(path) in str(exc)

        assert isinstance(load_problem(path), Problem)
        check()


class TestIngestRatingsFuzz:
    def test_one_edit_ingests_or_raises_ingest_error(self, tmp_path):
        # one edit to a valid ratings or genres file: ingest_ratings returns
        # a problem that saves and reloads unchanged, or raises IngestError;
        # `osbm ingest` on the same files exits 0 or 2, never a traceback
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ratings, genres = write_ratings_fixture(
            tmp_path, n_users=4, n_movies=3, leave_out={("user0", "m1")})
        originals = {"ratings": ratings.read_text().splitlines(),
                     "genres": genres.read_text().splitlines()}
        out = tmp_path / "inst.txt"
        tokens = st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "-2",
                                  "m0", "user0", "g0", "a b", "#", "\"", "x,y"])
        tokens = tokens | st.text(alphabet="0123456789-.e, m", max_size=3)

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            which = data.draw(st.sampled_from(["ratings", "genres"]))
            lines = list(originals[which])
            k = data.draw(st.integers(0, len(lines) - 1))
            fields = lines[k].split(",")
            op = data.draw(st.sampled_from(
                ["drop line", "drop field", "replace field", "duplicate line"]))
            if op == "drop line":
                del lines[k]
            elif op == "duplicate line":
                lines.insert(k, lines[k])
            else:
                j = data.draw(st.integers(0, len(fields) - 1))
                fields[j:j + 1] = [] if op == "drop field" else [data.draw(tokens)]
                lines[k] = ",".join(fields)
            for name, path in (("ratings", ratings), ("genres", genres)):
                body = lines if name == which else originals[name]
                path.write_text("\n".join(body) + "\n")
            try:
                problem = ingest_ratings(ratings, genres, num_users=4,
                                         num_movies=3, seed=0)
            except IngestError:
                problem = None
            if problem is not None:
                assert np.all(np.isfinite(problem.features.user_weights))
                save_problem(problem, out)
                back = load_problem(out)
                assert back.instance == problem.instance
            argv = ["ingest", "--ratings", str(ratings), "--genres", str(genres),
                    "--users", "4", "--movies", "3", "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code == (0 if problem is not None else 2)
            if code == 2:
                assert err.getvalue().startswith("error: ")

        check()
