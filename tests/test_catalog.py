"""Item vectors, user initialization, and social graph construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recloop import (
    ItemCatalog,
    ModelParams,
    build_social_graph,
    init_user_random,
)
from recloop.errors import (
    IndexOutOfRange,
    InvalidItem,
    InvalidRequest,
    ParseError,
)

from recloop.experiment import IngestResult, build_initial_users

from oracles import catalog_reference, influence_reference


def history_start(positives, negatives, catalog):
    """The start ``build_initial_users`` gives one user with this history,
    or None when it substitutes a random start."""
    items = [*positives, *negatives]
    ingest = IngestResult(
        catalog, user=np.zeros(len(items), np.int64),
        item=np.array(items, np.int64),
        positive=np.arange(len(items)) < len(positives), user_index={"u": 0})
    states, substituted = build_initial_users(ingest)
    return None if substituted else states.user_matrix[:, 0]


def item_vector(categories, c):
    """The one column of a one-item catalog."""
    return ItemCatalog.from_category_sets([categories], c).item_vectors[:, 0]


class TestBuildItemVector:
    def test_single_category_is_basis_vector(self):
        np.testing.assert_array_equal(item_vector({2}, 4), [0, 0, 1, 0])

    def test_two_categories_split_mass(self):
        v = item_vector({0, 2}, 4)
        np.testing.assert_allclose(v, [np.sqrt(0.5), 0, np.sqrt(0.5), 0])

    def test_empty_categories_rejected(self):
        with pytest.raises(InvalidItem):
            item_vector(set(), 4)

    def test_out_of_range_category(self):
        with pytest.raises(IndexOutOfRange):
            item_vector({4}, 4)

    @given(st.sets(st.integers(0, 9), min_size=1, max_size=10))
    def test_unit_norm_for_any_category_set(self, cats):
        v = item_vector(cats, 10)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


# Unsorted category lists with repeated ids, one to four entries each.
raw_sets = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4),
                    max_size=25)
BAD_ITEMS = [[], [-1], [6], [0, 9], [2, -4, 2]]     # for c = 6


class TestOnePassBuild:
    """``from_category_sets`` against the item-at-a-time reference."""

    @given(raw_sets, st.integers(6, 8))
    @example([], 3)
    @example([[2, 0, 2], [1], [5, 5, 5, 5], [3, 1, 4, 1]], 6)
    @settings(max_examples=100)
    def test_matches_per_item_build_bit_for_bit(self, sets, c):
        vectors, mass, ref_sets = catalog_reference(sets, c)
        cat = ItemCatalog.from_category_sets(sets, c)
        assert (cat.c, cat.m) == vectors.shape
        assert cat.item_vectors.dtype == vectors.dtype
        assert cat.item_vectors.tobytes() == vectors.tobytes()
        assert cat.category_mass.tobytes() == mass.tobytes()
        assert cat.category_sets == ref_sets
        assert all(type(o) is int for cats in cat.category_sets for o in cats)
        assert cat.all_single_category() == all(len(s) == 1 for s in ref_sets)

    @given(raw_sets, st.lists(st.tuples(st.sampled_from(BAD_ITEMS),
                                        st.integers(0, 30)), min_size=1, max_size=3))
    @example([[0], [1]], [([], 1), ([6], 2)])
    @example([[0], [1]], [([0, 9], 0), ([], 2)])
    @settings(max_examples=100)
    def test_errors_name_the_first_bad_item(self, sets, insertions):
        """Bad items (no categories, or an id outside [0, 6)) placed among
        good ones: the build raises the reference's error, naming the first
        bad item."""
        c = 6
        for item, at in insertions:
            sets = [*sets[:at], item, *sets[at:]]
        first = next(j for j, s in enumerate(sets)
                     if not s or not all(0 <= o < c for o in s))
        with pytest.raises((InvalidItem, IndexOutOfRange)) as ref:
            catalog_reference(sets, c)
        with pytest.raises(type(ref.value), match=rf"^item {first} has"):
            ItemCatalog.from_category_sets(sets, c)

    def test_fields_are_the_item_matrix_only(self):
        assert [f.name for f in dataclasses.fields(ItemCatalog)] == ["item_vectors"]


class TestCategoryMass:
    def test_counts_single_category_items(self):
        cat = ItemCatalog.from_category_sets([(0,), (0,), (0,)], 2)
        np.testing.assert_array_equal(cat.category_mass, [3, 0])

    def test_multi_category_masses(self):
        cat = ItemCatalog.from_category_sets([(0,), (1,), (0, 1)], 2)
        np.testing.assert_allclose(cat.category_mass,
                                   [1 + np.sqrt(0.5), 1 + np.sqrt(0.5)])

    def test_empty_catalog(self):
        cat = ItemCatalog.from_category_sets([], 3)
        np.testing.assert_array_equal(cat.category_mass, [0, 0, 0])

    def test_single_category_masses_sum_to_m(self):
        rng = np.random.default_rng(7)
        sets = [(int(rng.integers(0, 5)),) for _ in range(40)]
        cat = ItemCatalog.from_category_sets(sets, 5)
        assert cat.category_mass.sum() == pytest.approx(40, abs=1e-12)

    @given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=3),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_columns_always_unit_norm(self, sets):
        cat = ItemCatalog.from_category_sets(sets, 6)
        norms = np.linalg.norm(cat.item_vectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestInitUserFromHistory:
    @pytest.fixture
    def catalog(self):
        return ItemCatalog.from_category_sets([(0,), (1,), (2,), (0,)], 4)

    def test_single_positive_item(self, catalog):
        u = history_start({0}, set(), catalog)
        np.testing.assert_array_equal(u, [1, 0, 0, 0])

    def test_exact_cancellation_rejected(self, catalog):
        assert history_start({0}, {0}, catalog) is None

    def test_cancellation_across_equal_items(self, catalog):
        # items 0 and 3 share the category, so they cancel too
        assert history_start({0}, {3}, catalog) is None

    def test_two_positives(self, catalog):
        u = history_start({0, 1}, set(), catalog)
        np.testing.assert_allclose(u, [np.sqrt(0.5), np.sqrt(0.5), 0, 0])

    def test_empty_history_rejected(self, catalog):
        assert history_start(set(), set(), catalog) is None

    def test_item_index_out_of_range(self, catalog):
        with pytest.raises(IndexOutOfRange):
            history_start({99}, set(), catalog)

    @given(st.sets(st.integers(0, 19), min_size=1, max_size=10),
           st.sets(st.integers(0, 19), max_size=5))
    @settings(max_examples=50)
    def test_scale_invariance_via_duplicated_history(self, pos, neg):
        """Listing every item twice rescales the difference vector only."""
        rng = np.random.default_rng(3)
        sets = [(int(rng.integers(0, 6)),) for _ in range(20)]
        catalog = ItemCatalog.from_category_sets(sets, 6)
        neg = neg - pos
        u_once = history_start(pos, neg, catalog)
        if u_once is None:
            return
        # duplicates collapse in the set representation; emulate doubling
        # by checking the output is invariant to scaling the difference
        diff = np.zeros(6)
        for j in pos:
            diff += catalog.item_vectors[:, j]
        for j in neg:
            diff -= catalog.item_vectors[:, j]
        doubled = 2.0 * diff
        np.testing.assert_allclose(u_once, doubled / np.linalg.norm(doubled),
                                   atol=1e-12)


class TestInitUserRandom:
    def test_unit_norm(self):
        u = init_user_random(123, 10)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_deterministic_for_seed(self):
        np.testing.assert_array_equal(init_user_random(5, 8),
                                      init_user_random(5, 8))

    def test_seeds_differ(self):
        assert not np.allclose(init_user_random(1, 10), init_user_random(2, 10))

    def test_c_must_be_positive(self):
        with pytest.raises(InvalidRequest):
            init_user_random(0, 0)


class TestBuildSocialGraph:
    def test_row_normalization(self):
        g = build_social_graph({(0, 1), (0, 2)}, 3)
        row = g.influence_matrix.toarray()[0]
        np.testing.assert_allclose(row, [0, 0.5, 0.5])

    def test_isolated_users_get_self_loops(self):
        g = build_social_graph(set(), 2)
        np.testing.assert_array_equal(g.influence_matrix.toarray(), np.eye(2))
        assert g.isolated.all()

    def test_duplicate_edges_deduplicated(self):
        g = build_social_graph([(0, 1), (0, 1)], 2)
        np.testing.assert_allclose(g.influence_matrix.toarray()[0], [0, 1])
        assert g.num_edges == 1

    def test_endpoint_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_social_graph({(0, 5)}, 3)

    def test_error_names_first_bad_edge_in_input_order(self):
        with pytest.raises(IndexOutOfRange,
                           match=r"^edge \(2,5\) out of range for n=3$"):
            build_social_graph([(0, 1), (2, 5), (1, 0), (0, -1)], 3)

    @pytest.mark.parametrize("edges", [
        # six ints that would re-pair as three edges
        pytest.param([(0, 1, 2), (1, 0, 2)], id="two-triples"),
        pytest.param([(0, 1, 2)], id="one-triple"),
        pytest.param([(0, 1), (1,)], id="ragged"),
        pytest.param([0, 1], id="flat"),
    ])
    def test_edges_that_are_not_pairs_rejected(self, edges):
        with pytest.raises(ParseError, match="edges must be"):
            build_social_graph(edges, 3)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        edges = {(int(i), int(j)) for i, j in rng.integers(0, 20, (60, 2))
                 if i != j}
        g = build_social_graph(edges, 20)
        np.testing.assert_allclose(
            np.asarray(g.influence_matrix.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    @given(n=st.integers(1, 30),
           pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                          max_size=80))
    @example(n=1, pairs=[])
    @example(n=1, pairs=[(0, 0)])
    @example(n=4, pairs=[(2, 1), (0, 3), (2, 1), (3, 3), (0, 1)])
    @settings(max_examples=200, deadline=None)
    def test_matches_per_user_construction(self, n, pairs):
        """Bit-equal to building each user's row from its own neighbor list,
        with duplicate pairs, self-pairs and empty edge sets in the input."""
        pairs = [(i % n, j % n) for i, j in pairs]
        g = build_social_graph(pairs, n)
        expected = sorted({(i, j) for i, j in pairs if i != j})
        np.testing.assert_array_equal(g.edge_array,
                                      np.array(expected, dtype=np.int64).reshape(-1, 2))
        isolated, influence = influence_reference(g.edge_array, n)
        np.testing.assert_array_equal(g.isolated, isolated)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(g.influence_matrix, name), getattr(influence, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.alpha, p.beta, p.gamma, p.epsilon, p.h) == (5.0, 5.0, 0.5, 0.0, 20)

    @pytest.mark.parametrize("bad", [
        dict(alpha=-1), dict(beta=-0.5), dict(gamma=1.5),
        dict(epsilon=2.0), dict(eta=-0.1), dict(h=0),
        dict(alpha=float("nan")), dict(eta=float("inf")),
    ])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(InvalidRequest):
            ModelParams(**bad)

    def test_zero_eta_allowed(self):
        assert ModelParams(eta=0.0).eta == 0.0

    @pytest.mark.parametrize("h", [2.5, 3.0, True, "3"])
    def test_rejects_h_that_is_not_an_integer(self, h):
        """A float h, even 3.0, would pass and fail the first step untyped."""
        with pytest.raises(InvalidRequest, match="h must be an integer"):
            ModelParams(h=h)

    def test_numpy_integer_h_allowed(self):
        assert ModelParams(h=np.int64(3)).h == 3
