"""Item-prediction task (paper Section VI-E, Tables X/XI) and re-ranking.

Protocol, following the paper exactly:

1. Hold one action out per user — at a random position ("missing data
   recovery") or the last position ("forecasting").
2. Fit a skill model on the remaining actions.
3. For each held-out action, infer the user's skill level from the
   chronologically closest *training* action, take the model's item-ID
   categorical distribution at that level, and rank all items by
   probability.
4. Score the rank of the true item with top-10 accuracy (Acc@10) and
   reciprocal rank (RR).

Ties — ubiquitous among items never seen at a level, which all share the
smoothing floor — are scored with *mid-ranks* (the expected rank under
random shuffling of tied items), so results don't depend on sort order.
The registered experiments ``table10`` / ``table11`` reproduce the
paper's two tables from this module; ``repro.recsys.metrics`` re-scores
the same rank arrays at other cutoffs.

Beyond the paper's protocol, :func:`rerank_recommendations` folds the two
Section VII extension signals — skip-level progression
(``extension_skip``: users rarely leap several levels at once, so
recommending far above the user's level mostly produces skips) and
satisfaction weighting (``extension_satisfaction``: actions the user did
not enjoy should not pull recommendations) — into an upskilling
recommendation list *after* scoring, as a composable post-pass rather
than new model machinery, in the same spirit as
``repro.recsys.upskill``.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.features import ID_FEATURE
from repro.core.model import SkillModel
from repro.data.splits import HeldOutAction
from repro.exceptions import ConfigurationError, DataError
from repro.recsys.upskill import Recommendation

__all__ = [
    "ItemPredictionResult",
    "predict_items",
    "random_guess_expectation",
    "rerank_recommendations",
]


@dataclass(frozen=True)
class ItemPredictionResult:
    """Per-action ranks and the two aggregate measures."""

    ranks: np.ndarray  # mid-rank of the true item per held-out action
    num_items: int

    @property
    def acc_at_10(self) -> float:
        """Fraction of held-out actions whose true item mid-ranks in the top 10."""
        return float(np.mean(self.ranks <= 10))

    @property
    def mean_reciprocal_rank(self) -> float:
        return float(np.mean(1.0 / self.ranks))

    @property
    def reciprocal_ranks(self) -> np.ndarray:
        """Per-action RR values, e.g. for significance testing."""
        return 1.0 / self.ranks

    def accuracy_at(self, k: int) -> float:
        """Fraction of true items mid-ranking within the top ``k``."""
        return float(np.mean(self.ranks <= k))


def predict_items(
    model: SkillModel, held: Sequence[HeldOutAction]
) -> ItemPredictionResult:
    """Run the ranking protocol for a list of held-out actions.

    The model must expose the item-ID feature (all Table X/XI models do);
    held-out items must exist in the training catalog — the split
    functions guarantee this because the catalog covers the whole domain.
    """
    if not held:
        raise DataError("no held-out actions to evaluate")
    # The item-id vocabulary is the catalog order (EncodedItems guarantees
    # it), so ``index_of`` gives each item's code without a per-call table.
    vocab = model.encoded.vocabulary(ID_FEATURE)
    code_of = model.encoded.index_of

    levels = np.empty(len(held), dtype=np.int64)
    codes = np.empty(len(held), dtype=np.int64)
    for pos, held_action in enumerate(held):
        action = held_action.action
        levels[pos] = model.skill_at(action.user, action.time)
        code = code_of.get(action.item)
        if code is None:
            raise DataError(f"held-out item {action.item!r} missing from the catalog")
        codes[pos] = code

    # All actions at a level share its probability vector; one sort of it
    # plus two binary searches rank every true item at once.  For a true
    # item with probability p, ``n − searchsorted(right)`` items rank
    # strictly higher and ``searchsorted(right) − searchsorted(left)`` tie
    # with it (including itself), giving the same mid-rank arithmetic as
    # counting per action.
    ranks = np.empty(len(held), dtype=np.float64)
    for level in np.unique(levels):
        selected = levels == level
        probs = model.item_probabilities(int(level))
        sorted_probs = np.sort(probs)
        p = probs[codes[selected]]
        right = np.searchsorted(sorted_probs, p, side="right")
        left = np.searchsorted(sorted_probs, p, side="left")
        ranks[selected] = (len(probs) - right) + (right - left + 1) / 2.0
    return ItemPredictionResult(ranks=ranks, num_items=len(vocab))


def rerank_recommendations(
    recommendations: Sequence[Recommendation],
    *,
    level: float | None = None,
    max_jump: float | None = None,
    satisfaction: Mapping[Hashable, float] | None = None,
    satisfaction_weight: float = 1.0,
) -> list[Recommendation]:
    """Skip- and satisfaction-aware post-pass over an upskilling list.

    Two adjustments, both off by default:

    - **skip cap** (``extension_skip``): with ``level`` and ``max_jump``
      set, items whose difficulty exceeds ``level + max_jump`` are
      dropped — the skip-level experiment shows monotone progressions
      rarely leap levels, so such items are overwhelmingly skipped, not
      attempted.
    - **satisfaction blend** (``extension_satisfaction``): with a
      ``satisfaction`` map (item → expected satisfaction in ``[0, 1]``,
      e.g. mean observed rating rescaled), each score is multiplied by
      ``satisfaction ** satisfaction_weight``.  Items absent from the map
      keep their score (neutral 1.0) — partial satisfaction data must
      not zero out the rest of the catalog.

    Re-sorting is stable on the adjusted score, so untouched scores keep
    their upstream (challenge/interest) order.  Returns new
    :class:`~repro.recsys.upskill.Recommendation` rows with the adjusted
    ``score``; the decomposition fields are preserved as computed by the
    recommender.
    """
    if (max_jump is None) != (level is None):
        raise ConfigurationError(
            "the skip cap needs both level and max_jump (or neither)"
        )
    if satisfaction_weight < 0:
        raise ConfigurationError("satisfaction_weight must be >= 0")
    kept: list[Recommendation] = []
    for rec in recommendations:
        if max_jump is not None and rec.difficulty > level + max_jump:
            continue
        score = rec.score
        if satisfaction is not None:
            value = satisfaction.get(rec.item)
            if value is not None:
                if not 0.0 <= value <= 1.0:
                    raise ConfigurationError(
                        f"satisfaction for {rec.item!r} is {value}; expected [0, 1]"
                    )
                score = score * value**satisfaction_weight
        kept.append(rec if score == rec.score else replace(rec, score=score))
    kept.sort(key=lambda rec: -rec.score)
    return kept


def random_guess_expectation(num_items: int, k: int = 10) -> tuple[float, float]:
    """Expected (Acc@k, RR) of uniform random ranking over ``num_items``.

    The paper quotes these as ``k/|I|`` and ``(1/|I|)·Σ_i 1/i``; our models
    should beat them by a wide margin.
    """
    if num_items < 1:
        raise DataError("num_items must be >= 1")
    acc = min(k, num_items) / num_items
    rr = float(np.sum(1.0 / np.arange(1, num_items + 1)) / num_items)
    return acc, rr
