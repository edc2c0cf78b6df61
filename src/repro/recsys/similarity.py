"""Performance-based item similarity (the Kappa Learning construction).

Kappa Learning builds item-to-item similarity not from content features
but from *performance profiles*: two exercises are similar when the same
population succeeds (or struggles) on both.  The analogue in this
repository's generative model is the skill posterior ``P(s | i)``
(Equation 10): each item's column of per-level posterior mass is its
performance profile, and cosine similarity between profiles says "these
two items are selected by users at the same stage of progression".

:func:`build_similarity_index` precomputes, for every catalog item, its
top-``k`` neighbours under that cosine — an ``(n, k)`` ``int32`` neighbour
table plus an ``(n, k)`` ``float64`` score table.  The index is meant to
be built **once at model-publish time** (the arrays ride inside the model
artifact / shared-memory segment via ``core.serialize``, so prefork
workers map one physical copy) and queried at serve time in O(k):
:meth:`ItemSimilarityIndex.neighbors` for raw lookup, and
:func:`similar_harder` for the upskilling retrieval mode — "items like
this one, but harder" — which filters the anchor's neighbour list down to
items whose difficulty exceeds the anchor's.

Determinism matters here: the serve layer asserts byte-identical
responses between batched and sequential dispatch, and the bench asserts
parity between in-process and prefork serving, so neighbour order must
not depend on how the index was built.  Ties in cosine are broken by
ascending item position (:func:`~repro.recsys.topk.top_k`), never by
partition order.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import SkillModel
from repro.exceptions import ConfigurationError, DataError
from repro.recsys.topk import top_k

__all__ = [
    "ItemSimilarityIndex",
    "build_similarity_index",
    "similar_harder",
    "SimilarItem",
]

#: Rows of the profile matrix are processed in blocks of this many items,
#: bounding the ``block x n`` cosine slab (a 50k-item catalog never
#: materialises the full 20GB ``n x n`` matrix).  One slab is allocated
#: per build and reused by every block, so a build costs one small buffer,
#: not a fresh one per block left behind in the building thread's arena.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SimilarItem:
    """One neighbour from the index, with its difficulty attached."""

    item: Hashable
    similarity: float
    difficulty: float


@dataclass(frozen=True)
class ItemSimilarityIndex:
    """Precomputed top-``k`` cosine neighbours over skill-posterior profiles.

    ``items`` fixes the row order (the model's item vocabulary);
    ``neighbors[i, j]`` is the position in ``items`` of item ``i``'s
    ``j``-th nearest neighbour, ``scores[i, j]`` its cosine in ``[0, 1]``
    (profiles are non-negative).  ``meta`` records how the index was
    built (``k``, metric, prior) so artifacts stay self-describing.
    """

    items: Sequence[Hashable]
    neighbors: np.ndarray  # int32 (n, k) positions into ``items``
    scores: np.ndarray  # float64 (n, k) cosine similarities
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.neighbors.ndim != 2 or self.neighbors.shape != self.scores.shape:
            raise ConfigurationError(
                "neighbors and scores must be matching (n, k) tables"
            )
        if self.neighbors.shape[0] != len(self.items):
            raise ConfigurationError(
                f"index has {self.neighbors.shape[0]} rows for "
                f"{len(self.items)} items"
            )
        object.__setattr__(
            self, "_position", {item: pos for pos, item in enumerate(self.items)}
        )

    @property
    def k(self) -> int:
        return int(self.neighbors.shape[1])

    @property
    def nbytes(self) -> int:
        """Resident footprint of the two tables (for LRU accounting)."""
        return int(self.neighbors.nbytes + self.scores.nbytes)

    def position(self, item: Hashable) -> int:
        try:
            return self._position[item]  # type: ignore[attr-defined]
        except KeyError:
            raise DataError(f"item {item!r} is not in the similarity index") from None

    def neighbors_of(self, item: Hashable) -> list[tuple[Hashable, float]]:
        """The stored ``(neighbour, cosine)`` list for ``item``, best first."""
        row = self.position(item)
        return [
            (self.items[pos], float(score))
            for pos, score in zip(self.neighbors[row], self.scores[row])
            if pos >= 0
        ]

    # ------------------------------------------------------------ payloads

    def to_payload(self) -> dict:
        """The serialization-layer view: raw arrays + meta, no item ids.

        Item ids are *not* stored — the index row order is defined to be
        the model's item vocabulary, which the model artifact already
        carries, so the payload stays pure arrays (shm-friendly).
        """
        return {
            "neighbors": self.neighbors,
            "scores": self.scores,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_payload(cls, payload: dict, items: Sequence[Hashable]) -> ItemSimilarityIndex:
        """Rebuild from a ``core.serialize`` payload and the model's vocab."""
        return cls(
            items=list(items),
            neighbors=np.asarray(payload["neighbors"], dtype=np.int32),
            scores=np.asarray(payload["scores"], dtype=np.float64),
            meta=dict(payload.get("meta", {})),
        )


def build_similarity_index(
    model: SkillModel,
    *,
    k: int = 20,
    prior: str = "empirical",
) -> ItemSimilarityIndex:
    """Build the Kappa-style index from a fitted model's skill posteriors.

    ``prior`` selects the skill prior for Equation 10 (``"empirical"``
    matches the difficulty estimates the recommender pairs it with;
    ``"uniform"`` is also accepted).  ``k`` is clamped to ``n - 1`` — an
    item is never its own neighbour.  Rows with a zero profile (cannot
    happen with smoothed categorical cells, but guarded anyway) get
    zero-similarity neighbours in position order.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if prior == "empirical":
        prior_vector = model.empirical_skill_prior()
    elif prior == "uniform":
        prior_vector = None
    else:
        raise ConfigurationError(f"unknown prior {prior!r}")
    profiles = model.posterior_skill_given_item(prior=prior_vector)  # (n, S)
    items = list(model.encoded.vocabulary("__item_id__"))
    n = profiles.shape[0]
    if n < 2:
        raise DataError("a similarity index needs at least two items")
    k = min(int(k), n - 1)
    norms = np.linalg.norm(profiles, axis=1)
    unit = profiles / np.maximum(norms, 1e-300)[:, None]

    neighbors = np.empty((n, k), dtype=np.int32)
    scores = np.empty((n, k), dtype=np.float64)
    positions = np.arange(n)
    slab = np.empty((min(_BLOCK_ROWS, n), n), dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = np.matmul(unit[start:stop], unit.T, out=slab[: stop - start])
        block[positions[start:stop] - start, positions[start:stop]] = -np.inf
        for offset in range(stop - start):
            row = block[offset]
            order = top_k(row, k)
            neighbors[start + offset] = order
            scores[start + offset] = row[order]
    # The self-similarity sentinel must never leak out as a score.
    scores[~np.isfinite(scores)] = 0.0
    return ItemSimilarityIndex(
        items=items,
        neighbors=neighbors,
        scores=scores,
        meta={"k": k, "metric": "cosine", "prior": prior, "profile": "P(s|i)"},
    )


def similar_harder(
    index: ItemSimilarityIndex,
    difficulty: np.ndarray,
    anchor: Hashable,
    *,
    k: int = 10,
    margin: float = 0.0,
) -> list[SimilarItem]:
    """"Items like ``anchor``, but harder" — the upskilling retrieval mode.

    Filters the anchor's precomputed neighbour list to items whose
    difficulty exceeds the anchor's by more than ``margin``, preserving
    similarity order, and returns at most ``k`` of them.  ``difficulty``
    must be aligned with ``index.items`` (the recommender's own
    difficulty vector is).  An anchor at the top of the difficulty scale
    legitimately returns an empty list — there is nothing harder.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    if len(difficulty) != len(index.items):
        raise ConfigurationError(
            f"difficulty vector has {len(difficulty)} entries for "
            f"{len(index.items)} indexed items"
        )
    row = index.position(anchor)
    floor = float(difficulty[row]) + margin
    picks: list[SimilarItem] = []
    for pos, score in zip(index.neighbors[row], index.scores[row]):
        if pos < 0:
            continue
        if float(difficulty[pos]) > floor:
            picks.append(
                SimilarItem(
                    item=index.items[pos],
                    similarity=float(score),
                    difficulty=float(difficulty[pos]),
                )
            )
            if len(picks) >= k:
                break
    return picks
