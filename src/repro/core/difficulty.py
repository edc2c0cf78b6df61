"""Item-difficulty estimation (paper Section V).

Difficulty lives on the same scale as skill: a real number in ``[1, S]``.
Three estimators are provided, all driven by a fitted
:class:`~repro.core.model.SkillModel`:

- :func:`assignment_difficulty` (Section V-A, Equation 8): the mean
  assigned skill level of the users who selected the item.  Intuitive, but
  undefined for never-selected items and noisy for rare ones.
- :func:`generation_difficulty` with a **uniform** prior (Section V-B.1):
  the expected posterior skill level ``Σ_s s·P(s|i)`` with ``P(s) = 1/S``.
- :func:`generation_difficulty` with the **empirical** prior
  (Section V-B.2): same, with ``P(s)`` estimated from the training
  assignments — the paper's best-performing combination on sparse data.

Generation-based estimates only need item *features*, so they extend to
items with zero training actions (new products), which the paper motivates
as the practical reason to prefer them.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

import numpy as np

from repro.core.features import EncodedItems
from repro.core.model import SkillModel
from repro.data.actions import ActionLog
from repro.exceptions import ConfigurationError, DataError

__all__ = [
    "assignment_difficulty",
    "generation_difficulty",
    "difficulty_array",
    "PRIOR_UNIFORM",
    "PRIOR_EMPIRICAL",
]

PRIOR_UNIFORM = "uniform"
PRIOR_EMPIRICAL = "empirical"


def assignment_difficulty(
    model: SkillModel, log: ActionLog
) -> dict[Hashable, float]:
    """Equation 8: ``d_i`` = mean skill level over the actions selecting i.

    Only items that occur in ``log`` receive an estimate.  ``log`` must be
    the log the model was fitted on (or a subset of its users): each user's
    assigned-level array must align with their sequence.
    """
    encoded = model.encoded
    row_parts: list[np.ndarray] = []
    level_parts: list[np.ndarray] = []
    for seq in log:
        levels = model.skill_trajectory(seq.user)
        if len(levels) != len(seq):
            raise DataError(
                f"user {seq.user!r}: {len(seq)} actions but {len(levels)} assigned levels; "
                "pass the log the model was trained on"
            )
        row_parts.append(encoded.rows_for_sequence(seq))
        level_parts.append(np.asarray(levels, dtype=np.float64))
    rows = (
        np.concatenate(row_parts) if row_parts else np.empty(0, dtype=np.int64)
    )
    levels = (
        np.concatenate(level_parts) if level_parts else np.empty(0, dtype=np.float64)
    )
    # bincount accumulates weights sequentially in array order, so each
    # item's sum adds its occurrences in log order — the same partial sums
    # (to the last bit) as a per-action accumulation loop.
    sums = np.bincount(rows, weights=levels, minlength=encoded.num_items)
    counts = np.bincount(rows, minlength=encoded.num_items)
    item_ids = encoded.item_ids
    return {
        item_ids[i]: float(sums[i] / counts[i]) for i in np.flatnonzero(counts)
    }


def generation_difficulty(
    model: SkillModel,
    *,
    prior: str | np.ndarray = PRIOR_UNIFORM,
    encoded: EncodedItems | None = None,
) -> dict[Hashable, float]:
    """Equations 9-10: ``d_i = Σ_s s · P(s | i)``.

    ``prior`` selects ``P(s)``:

    - ``"uniform"`` — ``1/S`` (the query-likelihood simplification),
    - ``"empirical"`` — estimated from the model's training assignments,
    - an explicit probability vector of length ``S``.

    ``encoded`` defaults to the model's training catalog; pass a different
    :class:`~repro.core.features.EncodedItems` (same feature set) to score
    unseen items.
    """
    prior_vector = _resolve_prior(model, prior)
    posterior = model.posterior_skill_given_item(prior=prior_vector, encoded=encoded)
    levels = np.arange(1, model.num_levels + 1, dtype=np.float64)
    values = posterior @ levels
    item_ids = (encoded or model.encoded).item_ids
    return {item_id: float(value) for item_id, value in zip(item_ids, values)}


def _resolve_prior(model: SkillModel, prior) -> np.ndarray | None:
    if isinstance(prior, str):
        if prior == PRIOR_UNIFORM:
            return None  # SkillModel treats None as the uniform prior
        if prior == PRIOR_EMPIRICAL:
            return model.empirical_skill_prior()
        raise ConfigurationError(
            f"prior must be {PRIOR_UNIFORM!r}, {PRIOR_EMPIRICAL!r}, or a vector; got {prior!r}"
        )
    return np.asarray(prior, dtype=np.float64)


def difficulty_array(
    estimates: Mapping[Hashable, float], item_ids
) -> np.ndarray:
    """Estimates as an array aligned to ``item_ids``.

    Raises :class:`~repro.exceptions.DataError` for ids with no estimate
    (e.g. asking the assignment estimator about a never-selected item) —
    silently imputing would mask exactly the weakness the paper discusses.
    Each id is looked up in ``estimates`` directly, so the cost follows
    the request, not the catalog.
    """
    item_ids = list(item_ids)
    try:
        return np.fromiter(
            (estimates[item_id] for item_id in item_ids),
            dtype=np.float64,
            count=len(item_ids),
        )
    except KeyError:
        missing = next(item_id for item_id in item_ids if item_id not in estimates)
        raise DataError(f"no difficulty estimate for item {missing!r}") from None
