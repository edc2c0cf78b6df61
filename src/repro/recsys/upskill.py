"""The upskilling recommender (the paper's Figure 1 vision).

The paper stops at modelling skill and difficulty, leaving the
recommender itself as future work but sketching its shape: "estimate the
skill of a target user and recommend to him/her an item with appropriate
difficulty for upskilling ... e.g. d_i = 3.1 for s_ut = 3" (Sections I and
III-B), with interest coming from a conventional recommender (Section
VII).  This module assembles exactly that from the library's parts:

- **skill** — the fitted model's level for the user (at a given time),
- **challenge fit** — a window around the user's level: full credit for
  difficulty inside ``[s + window_low, s + window_high]``, exponentially
  decaying credit outside it,
- **interest** — the model's own item-selection distribution at the
  user's level, ``P(item | s)`` (what users like them actually pick), and
- a geometric blend of the two, skipping items the user already selected.

This is deliberately a *composition*, not new machinery: the point of the
paper is that once skill and difficulty live on one scale, recommendation
for upskilling is arithmetic.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.model import SkillModel
from repro.data.actions import ActionLog
from repro.exceptions import ConfigurationError, DataError
from repro.recsys.topk import top_k

__all__ = [
    "UpskillConfig",
    "Recommendation",
    "RecommendQuery",
    "UpskillRecommender",
]


@dataclass(frozen=True)
class UpskillConfig:
    """Shape of the challenge window and the interest/challenge blend.

    The default window ``(-0.25, +0.75]`` around the user's level targets
    "moderately challenging" items: mostly at or just above the user's
    ability, the zone where practice still stretches the user (the paper's
    ``d_i = 3.1 for s = 3`` example sits inside it).  ``interest_weight``
    is the geometric-mean exponent on interest (0 = challenge only,
    1 = interest only).  ``decay`` controls how fast credit falls off per
    unit of difficulty outside the window.
    """

    window_low: float = -0.25
    window_high: float = 0.75
    interest_weight: float = 0.5
    decay: float = 2.0
    exclude_seen: bool = True

    def __post_init__(self) -> None:
        if self.window_low > self.window_high:
            raise ConfigurationError("window_low must be <= window_high")
        if not 0.0 <= self.interest_weight <= 1.0:
            raise ConfigurationError("interest_weight must be in [0, 1]")
        if self.decay <= 0:
            raise ConfigurationError("decay must be positive")


@dataclass(frozen=True)
class Recommendation:
    """One recommended item with its score decomposition."""

    item: Hashable
    score: float
    difficulty: float
    challenge_fit: float
    interest: float


@dataclass(frozen=True)
class RecommendQuery:
    """One request in a vectorized :meth:`UpskillRecommender.recommend_batch`.

    ``level`` is the user's already-resolved 1-based skill level (the
    serve layer resolves users to levels before batching so the batch
    kernel stays pure array work); ``exclude`` lists item ids to drop
    (the caller-side stand-in for ``exclude_seen`` when no action log is
    at hand, e.g. over HTTP).
    """

    level: int
    k: int = 10
    exclude: frozenset = frozenset()


class UpskillRecommender:
    """Recommends items with appropriate difficulty for upskilling."""

    def __init__(
        self,
        model: SkillModel,
        difficulties: Mapping[Hashable, float],
        config: UpskillConfig | None = None,
    ):
        self.model = model
        self.config = config or UpskillConfig()
        vocab = model.encoded.vocabulary("__item_id__")
        missing = [item for item in vocab if item not in difficulties]
        if missing:
            raise DataError(
                f"{len(missing)} catalog items lack difficulty estimates "
                f"(e.g. {missing[0]!r}); use generation-based estimates"
            )
        self._items = list(vocab)
        self._difficulty = np.asarray([difficulties[item] for item in vocab])

    @property
    def items(self) -> list[Hashable]:
        """Catalog item ids in index order (the model's item vocabulary)."""
        return self._items

    @property
    def difficulty_vector(self) -> np.ndarray:
        """Per-item difficulty aligned with :attr:`items` (read-only view)."""
        return self._difficulty

    def challenge_fit(self, level: int) -> np.ndarray:
        """Per-item challenge credit in [0, 1] for a user at ``level``."""
        cfg = self.config
        low = level + cfg.window_low
        high = level + cfg.window_high
        distance = np.where(
            self._difficulty < low,
            low - self._difficulty,
            np.where(self._difficulty > high, self._difficulty - high, 0.0),
        )
        return np.exp(-cfg.decay * distance)

    def level_of(self, user: Hashable, time: float | None = None) -> int:
        """The user's 1-based level at ``time`` (default: their latest)."""
        if time is None:
            return int(self.model.skill_trajectory(user)[-1])
        return self.model.skill_at(user, time)

    def score_components(
        self, level: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(interest, challenge, blended score)`` per item at ``level``.

        This is the request-independent part of a recommendation: every
        query at the same level shares these three vectors, which is what
        the serve layer's micro-batched path reuses across a flush.
        """
        interest = self.model.item_probabilities(level)
        challenge = self.challenge_fit(level)
        w = self.config.interest_weight
        # Geometric blend; epsilon keeps log finite for zero-interest items.
        score = np.exp(
            w * np.log(np.maximum(interest, 1e-300))
            + (1.0 - w) * np.log(np.maximum(challenge, 1e-300))
        )
        return interest, challenge, score

    def recommend(
        self,
        user: Hashable,
        *,
        time: float | None = None,
        k: int = 10,
        log: ActionLog | None = None,
    ) -> list[Recommendation]:
        """Top-``k`` items for ``user`` at ``time`` (default: their latest).

        Items rank by score descending; exactly tied scores keep catalog
        (vocabulary) order.  ``log`` supplies the user's history for
        seen-item exclusion when ``config.exclude_seen`` is set.
        """
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        level = self.level_of(user, time)
        if self.config.exclude_seen:
            if log is None:
                raise ConfigurationError(
                    "exclude_seen=True needs the action log to know what was seen"
                )
            exclude = log.sequence(user).unique_items
        else:
            exclude = frozenset()
        return self._recommend_at(level, k=k, exclude=exclude)

    def recommend_for_level(
        self, level: int, *, k: int = 10, exclude: frozenset = frozenset()
    ) -> list[Recommendation]:
        """Top-``k`` for an already-resolved ``level`` (the serve-layer entry).

        ``exclude`` replaces ``config.exclude_seen``'s log lookup with an
        explicit item-id set — over HTTP the server has no action log, so
        clients ship the history they want excluded; ids outside the
        catalog are ignored.  Identical math to
        :meth:`recommend`; the two share one scoring path so offline and
        served recommendations can never drift.
        """
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        return self._recommend_at(level, k=k, exclude=exclude)

    def recommend_batch(
        self, queries: list[RecommendQuery]
    ) -> list[list[Recommendation]]:
        """Vectorized batch path: one score evaluation per distinct level.

        Each query's answer is computed exactly as its singleton
        :meth:`recommend_for_level` call would — only the level-dependent
        vectors are shared — so batched dispatch stays byte-identical to
        sequential dispatch (the serve layer's parity contract).
        """
        by_level: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        results: list[list[Recommendation]] = []
        for query in queries:
            if query.k < 1:
                raise ConfigurationError("k must be >= 1")
            components = by_level.get(query.level)
            if components is None:
                components = self.score_components(query.level)
                by_level[query.level] = components
            results.append(
                self._recommend_at(
                    query.level,
                    k=query.k,
                    exclude=query.exclude,
                    components=components,
                )
            )
        return results

    def _recommend_at(
        self,
        level: int,
        *,
        k: int,
        exclude,
        components: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> list[Recommendation]:
        interest, challenge, base = (
            components if components is not None else self.score_components(level)
        )
        score = base
        if exclude:
            # Touch only the excluded ids; ids outside the catalog are ignored.
            index_of = self.model.encoded.index_of
            rows = [index_of[item] for item in exclude if item in index_of]
            if rows:
                score = base.copy()
                score[rows] = -np.inf
        order = top_k(score, k)
        return [
            Recommendation(
                item=self._items[pos],
                score=float(score[pos]),
                difficulty=float(self._difficulty[pos]),
                challenge_fit=float(challenge[pos]),
                interest=float(interest[pos]),
            )
            for pos in order
            if np.isfinite(score[pos])
        ]
