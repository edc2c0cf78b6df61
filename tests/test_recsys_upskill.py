"""Tests for repro.recsys.upskill (the assembled recommender)."""

import numpy as np
import pytest

from repro.core.difficulty import generation_difficulty
from repro.exceptions import ConfigurationError, DataError
from repro.recsys.upskill import (
    Recommendation,
    RecommendQuery,
    UpskillConfig,
    UpskillRecommender,
)


@pytest.fixture
def recommender(fitted_tiny_model):
    difficulties = generation_difficulty(fitted_tiny_model, prior="empirical")
    return UpskillRecommender(fitted_tiny_model, difficulties)


class TestUpskillConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UpskillConfig(window_low=1.0, window_high=0.0)
        with pytest.raises(ConfigurationError):
            UpskillConfig(interest_weight=1.5)
        with pytest.raises(ConfigurationError):
            UpskillConfig(decay=0.0)


class TestChallengeFit:
    def test_inside_window_full_credit(self, fitted_tiny_model):
        difficulties = {item: 2.0 for item in fitted_tiny_model.encoded.vocabulary("__item_id__")}
        rec = UpskillRecommender(
            fitted_tiny_model, difficulties, UpskillConfig(window_low=-0.5, window_high=0.5)
        )
        np.testing.assert_allclose(rec.challenge_fit(2), 1.0)

    def test_decays_outside_window(self, fitted_tiny_model):
        vocab = fitted_tiny_model.encoded.vocabulary("__item_id__")
        difficulties = {item: 3.0 for item in vocab}
        rec = UpskillRecommender(
            fitted_tiny_model,
            difficulties,
            UpskillConfig(window_low=-0.25, window_high=0.25, decay=2.0),
        )
        fit_at_own_level = rec.challenge_fit(3)[0]
        fit_far_below = rec.challenge_fit(1)[0]  # items 2 levels above a level-1 user
        assert fit_at_own_level == pytest.approx(1.0)
        assert fit_far_below < 0.05


class TestRecommend:
    def test_returns_k_unseen_items(self, recommender, fitted_tiny_model, tiny_log):
        recs = recommender.recommend("u0", k=4, log=tiny_log)
        assert len(recs) <= 4
        seen = tiny_log.sequence("u0").unique_items
        assert all(r.item not in seen for r in recs)
        assert all(isinstance(r, Recommendation) for r in recs)

    def test_scores_sorted(self, recommender, tiny_log):
        recs = recommender.recommend("u1", k=5, log=tiny_log)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_time_parameter(self, recommender, tiny_log):
        early = recommender.recommend("u0", time=-100.0, k=3, log=tiny_log)
        assert len(early) >= 1

    def test_exclude_seen_needs_log(self, recommender):
        with pytest.raises(ConfigurationError):
            recommender.recommend("u0", k=3)

    def test_include_seen_mode(self, fitted_tiny_model):
        difficulties = generation_difficulty(fitted_tiny_model)
        rec = UpskillRecommender(
            fitted_tiny_model, difficulties, UpskillConfig(exclude_seen=False)
        )
        recs = rec.recommend("u0", k=3)
        assert len(recs) == 3

    def test_k_validation(self, recommender, tiny_log):
        with pytest.raises(ConfigurationError):
            recommender.recommend("u0", k=0, log=tiny_log)

    def test_unknown_user(self, recommender, tiny_log):
        with pytest.raises(DataError):
            recommender.recommend("ghost", k=3, log=tiny_log)

    def test_missing_difficulties_rejected(self, fitted_tiny_model):
        with pytest.raises(DataError):
            UpskillRecommender(fitted_tiny_model, {"i0": 1.0})

    def test_challenge_window_steers_recommendations(self, fitted_tiny_model, tiny_log):
        """A challenge-only recommender must pick items nearer the user's
        level than an interest-only one, measured on estimated difficulty."""
        difficulties = generation_difficulty(fitted_tiny_model, prior="empirical")
        challenge_only = UpskillRecommender(
            fitted_tiny_model, difficulties, UpskillConfig(interest_weight=0.0)
        )
        interest_only = UpskillRecommender(
            fitted_tiny_model, difficulties, UpskillConfig(interest_weight=1.0)
        )
        user = "u0"
        level = int(fitted_tiny_model.skill_trajectory(user)[-1])
        gap = lambda recs: np.mean([abs(r.difficulty - level) for r in recs])  # noqa: E731
        challenge_gap = gap(challenge_only.recommend(user, k=3, log=tiny_log))
        interest_gap = gap(interest_only.recommend(user, k=3, log=tiny_log))
        assert challenge_gap <= interest_gap + 1e-9


class TestEdgeCases:
    def test_excluding_whole_catalog_yields_empty(self, recommender):
        """A user who has seen everything gets [], not an error."""
        recs = recommender.recommend_for_level(
            2, k=5, exclude=frozenset(recommender.items)
        )
        assert recs == []

    def test_all_items_outside_window_decay_ordering(self, fitted_tiny_model):
        """When nothing fits the window, nearer items still rank first."""
        vocab = fitted_tiny_model.encoded.vocabulary("__item_id__")
        # Every difficulty sits far above the window of a level-1 user,
        # strictly increasing with catalog position.
        difficulties = {item: 10.0 + pos for pos, item in enumerate(vocab)}
        rec = UpskillRecommender(
            fitted_tiny_model,
            difficulties,
            UpskillConfig(
                window_low=-0.25,
                window_high=0.25,
                interest_weight=0.0,
                exclude_seen=False,
            ),
        )
        recs = rec.recommend_for_level(1, k=len(vocab))
        assert len(recs) == len(vocab)
        assert all(r.challenge_fit < 1.0 for r in recs)
        diffs = [r.difficulty for r in recs]
        assert diffs == sorted(diffs)

    def test_interest_weight_zero_is_challenge_only(self, fitted_tiny_model):
        difficulties = generation_difficulty(fitted_tiny_model, prior="empirical")
        rec = UpskillRecommender(
            fitted_tiny_model,
            difficulties,
            UpskillConfig(interest_weight=0.0, exclude_seen=False),
        )
        for r in rec.recommend_for_level(2, k=5):
            assert r.score == pytest.approx(r.challenge_fit)

    def test_interest_weight_one_is_interest_only(self, fitted_tiny_model):
        difficulties = generation_difficulty(fitted_tiny_model, prior="empirical")
        rec = UpskillRecommender(
            fitted_tiny_model,
            difficulties,
            UpskillConfig(interest_weight=1.0, exclude_seen=False),
        )
        recs = rec.recommend_for_level(2, k=5)
        for r in recs:
            assert r.score == pytest.approx(r.interest)
        top_interest = float(np.max(fitted_tiny_model.item_probabilities(2)))
        assert recs[0].interest == pytest.approx(top_interest)

    def test_batch_matches_sequential_calls(self, recommender):
        """recommend_batch must reproduce recommend_for_level exactly."""
        queries = [
            RecommendQuery(level=1, k=4),
            RecommendQuery(level=2, k=3, exclude=frozenset({"i0", "i5"})),
            RecommendQuery(level=1, k=6, exclude=frozenset({"i1"})),
            RecommendQuery(level=3, k=2),
        ]
        batched = recommender.recommend_batch(queries)
        singles = [
            recommender.recommend_for_level(q.level, k=q.k, exclude=q.exclude)
            for q in queries
        ]
        assert batched == singles

    @pytest.mark.parametrize(
        "exclude",
        [
            ["ghost", "i4", 17],  # unknown ids are ignored
            ["i2", "i2", "i7", "i2"],  # duplicates count once
            "all",  # the whole catalog, plus an unknown id
            [],
        ],
    )
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_exclusion_matches_full_scan_reference(self, recommender, exclude, k):
        if exclude == "all":
            exclude = [*recommender.items, "ghost"]
        for level in (1, 2, 3):
            got = recommender.recommend_for_level(level, k=k, exclude=exclude)
            assert got == _reference_recommend(recommender, level, k, exclude)

    def test_tied_scores_follow_catalog_position(self, fitted_tiny_model):
        """Exactly tied scores are ordered by catalog position."""
        vocab = fitted_tiny_model.encoded.vocabulary("__item_id__")
        rec = UpskillRecommender(
            fitted_tiny_model,
            {item: 2.0 for item in vocab},
            UpskillConfig(interest_weight=0.0, exclude_seen=False),
        )
        recs = rec.recommend_for_level(2, k=5, exclude=frozenset({vocab[1]}))
        assert [r.item for r in recs] == [vocab[0], *vocab[2:6]]
        assert len({r.score for r in recs}) == 1

    def test_batch_k_validation(self, recommender):
        with pytest.raises(ConfigurationError):
            recommender.recommend_batch([RecommendQuery(level=1, k=0)])


def _reference_recommend(recommender, level, k, exclude):
    """Full-catalog scan and full sort: the simplest correct answer."""
    interest, challenge, base = recommender.score_components(level)
    score = base.copy()
    for pos, item in enumerate(recommender.items):
        if item in exclude:
            score[pos] = -np.inf
    order = np.lexsort((np.arange(len(score)), -score))[:k]
    return [
        Recommendation(
            item=recommender.items[pos],
            score=float(score[pos]),
            difficulty=float(recommender.difficulty_vector[pos]),
            challenge_fit=float(challenge[pos]),
            interest=float(interest[pos]),
        )
        for pos in order
        if np.isfinite(score[pos])
    ]
