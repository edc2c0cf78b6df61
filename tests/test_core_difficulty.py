"""Tests for repro.core.difficulty: all three estimators."""

from collections.abc import Mapping

import numpy as np
import pytest
from repro.core.difficulty import (
    PRIOR_EMPIRICAL,
    PRIOR_UNIFORM,
    assignment_difficulty,
    difficulty_array,
    generation_difficulty,
)
from repro.data.actions import Action, ActionLog
from repro.exceptions import ConfigurationError, DataError


class TestAssignmentDifficulty:
    def test_bounds(self, fitted_tiny_model, tiny_log):
        estimates = assignment_difficulty(fitted_tiny_model, tiny_log)
        for value in estimates.values():
            assert 1.0 <= value <= fitted_tiny_model.num_levels

    def test_matches_equation8_by_hand(self, fitted_tiny_model, tiny_log):
        estimates = assignment_difficulty(fitted_tiny_model, tiny_log)
        # recompute for one item by hand
        item = next(iter(estimates))
        total, count = 0.0, 0
        for seq in tiny_log:
            levels = fitted_tiny_model.skill_trajectory(seq.user)
            for action, level in zip(seq, levels):
                if action.item == item:
                    total += level
                    count += 1
        assert estimates[item] == pytest.approx(total / count)

    def test_vectorized_matches_dict_loop_exactly(self, fitted_tiny_model, tiny_log):
        """The bincount implementation accumulates each item's levels in
        log order, so every estimate must equal the naive dict-of-sums
        loop to the last bit — not just approximately."""
        estimates = assignment_difficulty(fitted_tiny_model, tiny_log)
        sums: dict = {}
        counts: dict = {}
        for seq in tiny_log:
            levels = fitted_tiny_model.skill_trajectory(seq.user)
            for action, level in zip(seq, levels):
                sums[action.item] = sums.get(action.item, 0.0) + float(level)
                counts[action.item] = counts.get(action.item, 0) + 1
        expected = {item: sums[item] / counts[item] for item in sums}
        assert set(estimates) == set(expected)
        for item in expected:
            assert estimates[item] == expected[item]

    def test_only_selected_items_estimated(self, fitted_tiny_model, tiny_log):
        estimates = assignment_difficulty(fitted_tiny_model, tiny_log)
        assert set(estimates) == set(tiny_log.selected_items)

    def test_misaligned_log_rejected(self, fitted_tiny_model):
        other = ActionLog.from_actions(
            [Action(time=0.0, user="u0", item="i0")]  # u0 has more training actions
        )
        with pytest.raises(DataError):
            assignment_difficulty(fitted_tiny_model, other)


class TestGenerationDifficulty:
    def test_bounds_uniform_and_empirical(self, fitted_tiny_model):
        for prior in (PRIOR_UNIFORM, PRIOR_EMPIRICAL):
            estimates = generation_difficulty(fitted_tiny_model, prior=prior)
            assert len(estimates) == fitted_tiny_model.encoded.num_items
            for value in estimates.values():
                assert 1.0 <= value <= fitted_tiny_model.num_levels

    def test_explicit_prior_vector(self, fitted_tiny_model):
        prior = np.array([1.0, 0.0, 0.0])
        estimates = generation_difficulty(fitted_tiny_model, prior=prior)
        # all posterior mass at level 1 → every difficulty is exactly 1
        for value in estimates.values():
            assert value == pytest.approx(1.0)

    def test_unknown_prior_name(self, fitted_tiny_model):
        with pytest.raises(ConfigurationError):
            generation_difficulty(fitted_tiny_model, prior="bogus")

    def test_expected_value_matches_posterior(self, fitted_tiny_model):
        estimates = generation_difficulty(fitted_tiny_model, prior=PRIOR_UNIFORM)
        posterior = fitted_tiny_model.posterior_skill_given_item()
        levels = np.arange(1, fitted_tiny_model.num_levels + 1)
        expected = posterior @ levels
        values = np.asarray(
            [estimates[i] for i in fitted_tiny_model.encoded.item_ids]
        )
        np.testing.assert_allclose(values, expected)

    def test_covers_never_selected_items(self, tiny_catalog, tiny_feature_set):
        """Generation-based estimates exist for items with zero actions —
        the paper's motivating advantage over assignment-based ones."""
        from repro.core.training import fit_skill_model

        actions = [
            Action(time=float(t), user="u", item=f"i{t % 3}") for t in range(12)
        ]
        log = ActionLog.from_actions(actions)  # only items i0..i2 selected
        model = fit_skill_model(
            log, tiny_catalog, tiny_feature_set, 2, init_min_actions=5, max_iterations=10
        )
        estimates = generation_difficulty(model)
        assert "i11" in estimates  # never selected, still estimated


class TestDifficultyArray:
    def test_alignment(self, fitted_tiny_model):
        estimates = generation_difficulty(fitted_tiny_model)
        ids = list(fitted_tiny_model.encoded.item_ids)[:5]
        values = difficulty_array(estimates, ids)
        assert values.shape == (5,)
        assert values[0] == estimates[ids[0]]

    def test_missing_estimate_raises(self):
        with pytest.raises(DataError):
            difficulty_array({"a": 1.0}, ["a", "b"])

    def test_missing_estimate_names_first_offending_id(self):
        with pytest.raises(DataError, match="^no difficulty estimate for item 'b'$"):
            difficulty_array({"a": 1.0}, ["a", "b", "a", "c"])

    def test_gathers_without_scanning_the_estimates(self, fitted_tiny_model):
        """The gather looks ids up one by one: a mapping that refuses to
        be iterated still answers, so the cost follows the request."""
        estimates = generation_difficulty(fitted_tiny_model)
        ids = ["i3", "i0", "i3", "i11"]
        values = difficulty_array(_LookupOnly(estimates), ids)
        assert values.tolist() == [estimates[item] for item in ids]
        with pytest.raises(DataError, match="'ghost'"):
            difficulty_array(_LookupOnly(estimates), ["i0", "ghost", "zz"])


class _LookupOnly(Mapping):
    """A mapping whose whole-catalog views all raise."""

    def __init__(self, data):
        self._data = data

    def __getitem__(self, key):
        return self._data[key]

    def __len__(self):
        return len(self._data)

    def _scan(self, *args):
        raise AssertionError("difficulty_array scanned the whole mapping")

    __iter__ = keys = values = items = _scan


@pytest.mark.parametrize("seed", range(12))
def test_difficulty_always_in_range_property(seed, fitted_tiny_model):
    """Property: any valid prior keeps difficulties inside [1, S]."""
    rng = np.random.default_rng(seed)
    prior = rng.dirichlet(np.ones(fitted_tiny_model.num_levels))
    estimates = generation_difficulty(fitted_tiny_model, prior=prior)
    values = np.asarray(list(estimates.values()))
    assert np.all(values >= 1.0 - 1e-9)
    assert np.all(values <= fitted_tiny_model.num_levels + 1e-9)
