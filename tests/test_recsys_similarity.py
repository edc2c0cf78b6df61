"""Tests for repro.recsys.similarity (Kappa-style item similarity)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.difficulty import generation_difficulty
from repro.core.serialize import (
    attach_model_shm,
    load_model,
    load_similarity_payload,
    publish_model_shm,
    save_model,
    shm_similarity_payload,
)
from repro.exceptions import ConfigurationError, DataError
from repro.recsys.similarity import (
    _BLOCK_ROWS,
    ItemSimilarityIndex,
    build_similarity_index,
    similar_harder,
)


@pytest.fixture
def index(fitted_tiny_model):
    return build_similarity_index(fitted_tiny_model, k=5)


def _reference_tables(model, k, prior="empirical"):
    """The original per-row full-``lexsort`` build, kept as the oracle."""
    prior_vector = model.empirical_skill_prior() if prior == "empirical" else None
    profiles = model.posterior_skill_given_item(prior=prior_vector)
    n = profiles.shape[0]
    k = min(int(k), n - 1)
    unit = profiles / np.maximum(np.linalg.norm(profiles, axis=1), 1e-300)[:, None]
    neighbors = np.empty((n, k), dtype=np.int32)
    scores = np.empty((n, k), dtype=np.float64)
    positions = np.arange(n)
    # Same row blocks as the build: a row's cosines may differ in the last
    # bit with the shape of the product that computed them.
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = unit[start:stop] @ unit.T
        block[positions[start:stop] - start, positions[start:stop]] = -np.inf
        for offset in range(stop - start):
            row = block[offset]
            order = np.lexsort((positions, -row))[:k]
            neighbors[start + offset] = order
            scores[start + offset] = row[order]
    scores[~np.isfinite(scores)] = 0.0
    return neighbors, scores


class _ProfileModel:
    """Just enough of a SkillModel for the index build: fixed profiles."""

    def __init__(self, profiles):
        self._profiles = np.asarray(profiles, dtype=np.float64)
        items = tuple(f"x{pos}" for pos in range(len(self._profiles)))
        self.encoded = SimpleNamespace(vocabulary=lambda name: items)

    def empirical_skill_prior(self):
        return None

    def posterior_skill_given_item(self, prior=None):
        return self._profiles.copy()


class TestBuild:
    def test_shapes_and_alignment(self, fitted_tiny_model, index):
        vocab = list(fitted_tiny_model.encoded.vocabulary("__item_id__"))
        n = len(vocab)
        assert list(index.items) == vocab
        assert index.neighbors.shape == (n, 5)
        assert index.scores.shape == (n, 5)
        assert index.k == 5
        assert index.neighbors.dtype == np.int32
        assert index.scores.dtype == np.float64
        assert index.meta["metric"] == "cosine"

    def test_item_is_never_its_own_neighbor(self, index):
        for pos in range(len(index.items)):
            assert pos not in index.neighbors[pos]

    def test_scores_are_valid_cosines_sorted_descending(self, index):
        assert np.all(index.scores >= 0.0)
        assert np.all(index.scores <= 1.0 + 1e-9)
        for row in index.scores:
            assert list(row) == sorted(row, reverse=True)

    def test_build_is_deterministic(self, fitted_tiny_model):
        a = build_similarity_index(fitted_tiny_model, k=4)
        b = build_similarity_index(fitted_tiny_model, k=4)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.scores, b.scores)

    def test_k_clamped_to_catalog_size(self, fitted_tiny_model):
        idx = build_similarity_index(fitted_tiny_model, k=500)
        assert idx.k == len(idx.items) - 1

    def test_k_validation(self, fitted_tiny_model):
        with pytest.raises(ConfigurationError):
            build_similarity_index(fitted_tiny_model, k=0)

    def test_unknown_prior_rejected(self, fitted_tiny_model):
        with pytest.raises(ConfigurationError):
            build_similarity_index(fitted_tiny_model, prior="bogus")

    def test_mismatched_tables_rejected(self):
        with pytest.raises(ConfigurationError):
            ItemSimilarityIndex(
                items=["a", "b"],
                neighbors=np.zeros((2, 3), dtype=np.int32),
                scores=np.zeros((2, 2)),
            )

    def test_unknown_item_position(self, index):
        with pytest.raises(DataError):
            index.position("ghost")


class TestReferenceParity:
    """The partition-based build is bit-identical to the full-sort loop."""

    @pytest.mark.parametrize("k", [1, 3, 5, 11, 50])
    @pytest.mark.parametrize("prior", ["empirical", "uniform"])
    def test_fitted_model(self, fitted_tiny_model, k, prior):
        built = build_similarity_index(fitted_tiny_model, k=k, prior=prior)
        neighbors, scores = _reference_tables(fitted_tiny_model, k, prior)
        assert np.array_equal(built.neighbors, neighbors)
        assert np.array_equal(built.scores, scores)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_tie_heavy_profiles(self, seed, k):
        # Few distinct small-integer rows: duplicate profiles give exactly
        # equal cosines, zero rows give all-zero ones, and 700 rows span
        # two blocks of the blocked build.
        rng = np.random.default_rng(seed)
        profiles = rng.integers(0, 3, size=(700, 3)).astype(np.float64)
        profiles[rng.integers(0, 700, size=5)] = 0.0
        model = _ProfileModel(profiles)
        built = build_similarity_index(model, k=k)
        neighbors, scores = _reference_tables(model, k)
        assert np.array_equal(built.neighbors, neighbors)
        assert np.array_equal(built.scores, scores)

    @pytest.mark.parametrize("n", [50, 129, 700])
    @pytest.mark.parametrize("k", [1, 20])
    def test_partial_last_block(self, n, k):
        # Sizes off the block grid: the reused slab's last block is a
        # partial one (129 = 2 x 64 + 1, 700 = 10 x 64 + 60) or the only one.
        assert n % _BLOCK_ROWS
        profiles = np.random.default_rng(n).dirichlet(np.ones(4), size=n)
        model = _ProfileModel(profiles)
        built = build_similarity_index(model, k=k)
        neighbors, scores = _reference_tables(model, k)
        assert np.array_equal(built.neighbors, neighbors)
        assert np.array_equal(built.scores, scores)

    def test_artifact_with_reference_index_answers_unchanged(
        self, fitted_tiny_model, tmp_path
    ):
        """An artifact whose index came from the full-sort build loads and
        answers ``similar_harder`` exactly like a freshly built index."""
        neighbors, scores = _reference_tables(fitted_tiny_model, 5)
        fresh = build_similarity_index(fitted_tiny_model, k=5)
        prefix = tmp_path / "legacy"
        save_model(
            fitted_tiny_model,
            prefix,
            similarity={"neighbors": neighbors, "scores": scores, "meta": fresh.meta},
        )
        model = load_model(prefix)
        stored = ItemSimilarityIndex.from_payload(
            load_similarity_payload(prefix), model.encoded.vocabulary("__item_id__")
        )
        mapping = generation_difficulty(model, prior="empirical")
        difficulty = np.asarray([mapping[item] for item in stored.items])
        for anchor in stored.items:
            for margin in (0.0, 0.2):
                assert similar_harder(
                    stored, difficulty, anchor, k=5, margin=margin
                ) == similar_harder(fresh, difficulty, anchor, k=5, margin=margin)


class TestPayloadRoundTrip:
    def test_to_from_payload(self, index):
        payload = index.to_payload()
        back = ItemSimilarityIndex.from_payload(payload, index.items)
        assert np.array_equal(back.neighbors, index.neighbors)
        assert np.array_equal(back.scores, index.scores)
        assert back.meta == index.meta
        assert back.neighbors_of(index.items[0]) == index.neighbors_of(index.items[0])

    def test_artifact_round_trip(self, fitted_tiny_model, index, tmp_path):
        prefix = tmp_path / "model"
        save_model(fitted_tiny_model, prefix, similarity=index.to_payload())
        payload = load_similarity_payload(prefix)
        assert payload is not None
        assert np.array_equal(
            np.asarray(payload["neighbors"], dtype=np.int32), index.neighbors
        )
        assert np.array_equal(np.asarray(payload["scores"]), index.scores)
        assert payload["meta"] == index.meta
        # The extra simidx_* arrays must not disturb plain model loading.
        model = load_model(prefix)
        assert list(model.encoded.vocabulary("__item_id__")) == list(index.items)

    def test_artifact_without_index_loads_none(self, fitted_tiny_model, tmp_path):
        prefix = tmp_path / "plain"
        save_model(fitted_tiny_model, prefix)
        assert load_similarity_payload(prefix) is None

    def test_shm_round_trip(self, fitted_tiny_model, index):
        segment, descriptor = publish_model_shm(
            fitted_tiny_model, similarity=index.to_payload()
        )
        try:
            model, attached = attach_model_shm(descriptor)
            payload = shm_similarity_payload(attached)
            assert payload is not None
            neighbors = np.array(payload["neighbors"])
            scores = np.array(payload["scores"])
            meta = dict(payload["meta"])
            # Drop the zero-copy views before unmapping the segment.
            del payload, model
            attached.close()
        finally:
            segment.close()
            segment.unlink()
        assert np.array_equal(neighbors, index.neighbors)
        assert np.array_equal(scores, index.scores)
        assert meta == index.meta

    def test_shm_without_index_yields_none(self, fitted_tiny_model):
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            model, attached = attach_model_shm(descriptor)
            assert shm_similarity_payload(attached) is None
            del model
            attached.close()
        finally:
            segment.close()
            segment.unlink()


class TestSimilarHarder:
    @pytest.fixture
    def difficulty(self, fitted_tiny_model, index):
        mapping = generation_difficulty(fitted_tiny_model, prior="empirical")
        return np.asarray([mapping[item] for item in index.items])

    def test_returns_only_harder_items(self, index, difficulty):
        anchor = index.items[int(np.argmin(difficulty))]
        floor = float(difficulty[index.position(anchor)])
        picks = similar_harder(index, difficulty, anchor, k=index.k)
        for pick in picks:
            assert pick.difficulty > floor

    def test_margin_tightens_the_filter(self, index, difficulty):
        anchor = index.items[int(np.argmin(difficulty))]
        loose = similar_harder(index, difficulty, anchor, k=index.k, margin=0.0)
        tight = similar_harder(index, difficulty, anchor, k=index.k, margin=1e9)
        assert tight == []
        assert len(tight) <= len(loose)

    def test_preserves_similarity_order(self, index, difficulty):
        anchor = index.items[int(np.argmin(difficulty))]
        picks = similar_harder(index, difficulty, anchor, k=index.k)
        sims = [p.similarity for p in picks]
        assert sims == sorted(sims, reverse=True)

    def test_hardest_item_gets_empty_list(self, index, difficulty):
        anchor = index.items[int(np.argmax(difficulty))]
        assert similar_harder(index, difficulty, anchor, k=3) == []

    def test_unknown_anchor_rejected(self, index, difficulty):
        with pytest.raises(DataError):
            similar_harder(index, difficulty, "ghost", k=3)

    def test_misaligned_difficulty_rejected(self, index, difficulty):
        with pytest.raises(ConfigurationError):
            similar_harder(index, difficulty[:-1], index.items[0], k=3)

    def test_k_validation(self, index, difficulty):
        with pytest.raises(ConfigurationError):
            similar_harder(index, difficulty, index.items[0], k=0)
