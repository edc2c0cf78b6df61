"""Feature schema: what distribution each item feature follows.

The skill model (Section IV-A) factorizes the likelihood of an item over
its features, with a distribution family chosen per feature:

- categorical values (recipe category, beer style, movie genre, the item id
  itself) → categorical distributions,
- natural-number counts (number of recipe steps) → Poisson,
- positive reals (ABV, mean corrections per annotator) → gamma or
  log-normal.

:class:`FeatureSpec` declares one feature's name and family;
:class:`FeatureSet` bundles the specs for a domain and encodes an
:class:`~repro.data.items.ItemCatalog` into dense NumPy arrays
(:class:`EncodedItems`) that the trainer consumes.  Item ids are exposed to
the model as an ordinary categorical feature via :meth:`FeatureSpec.id_spec`
— that is exactly Yang et al.'s ID-only baseline when used alone.
"""

from __future__ import annotations

import enum
import weakref
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.data.items import ItemCatalog
from repro.exceptions import ConfigurationError, SchemaError

__all__ = ["FeatureKind", "FeatureSpec", "FeatureSet", "EncodedItems", "ID_FEATURE"]

#: Reserved feature name under which the item id is encoded.
ID_FEATURE = "__item_id__"


class FeatureKind(enum.Enum):
    """Distribution family used to model a feature (paper Section IV-A)."""

    CATEGORICAL = "categorical"
    COUNT = "count"  # Poisson
    POSITIVE = "positive"  # gamma
    LOG_POSITIVE = "log_positive"  # log-normal


@dataclass(frozen=True)
class FeatureSpec:
    """Declaration of a single item feature.

    ``vocabulary`` is only meaningful for categorical features: if given,
    the category set is closed and unseen values raise
    :class:`~repro.exceptions.SchemaError`; if ``None``, the vocabulary is
    inferred from the catalog at encoding time.
    """

    name: str
    kind: FeatureKind
    vocabulary: tuple[Hashable, ...] | None = None

    def __post_init__(self) -> None:
        if self.vocabulary is not None:
            if self.kind is not FeatureKind.CATEGORICAL:
                raise ConfigurationError(
                    f"feature {self.name!r}: vocabulary is only valid for "
                    f"categorical features, not {self.kind.value}"
                )
            object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
            if len(set(self.vocabulary)) != len(self.vocabulary):
                raise ConfigurationError(f"feature {self.name!r}: duplicate vocabulary entries")

    @property
    def is_id(self) -> bool:
        return self.name == ID_FEATURE

    @staticmethod
    def id_spec() -> "FeatureSpec":
        """The item-id-as-categorical feature (Yang et al.'s base model)."""
        return FeatureSpec(ID_FEATURE, FeatureKind.CATEGORICAL)


@dataclass(frozen=True)
class EncodedItems:
    """Catalog encoded into dense per-feature arrays.

    Attributes
    ----------
    item_ids:
        Item ids in row order.
    index_of:
        Inverse mapping: item id → row index.
    columns:
        One array per feature, ordered like ``feature_set.specs``.
        Categorical columns hold int64 category codes; count columns int64
        counts; positive columns float64 values.
    vocabularies:
        For each categorical feature, the category values in code order
        (``None`` for non-categorical features).

    When the feature set includes the item-id feature, its vocabulary is
    ``item_ids`` (checked at construction, :class:`SchemaError` otherwise),
    so ``index_of`` is also the item → code map for ``P(item | s)``.
    """

    feature_set: "FeatureSet"
    item_ids: tuple[Hashable, ...]
    index_of: Mapping[Hashable, int]
    columns: tuple[np.ndarray, ...]
    vocabularies: tuple[tuple[Hashable, ...] | None, ...]

    def __post_init__(self) -> None:
        if ID_FEATURE not in self.feature_set.names:
            return
        vocab = self.vocabularies[self.feature_set.index_of_feature(ID_FEATURE)]
        if vocab is None or tuple(vocab) != tuple(self.item_ids):
            raise SchemaError(
                f"feature {ID_FEATURE!r}: vocabulary must list the catalog's "
                "item ids in row order"
            )

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.feature_set.index_of_feature(name)]

    def vocabulary(self, name: str) -> tuple[Hashable, ...]:
        vocab = self.vocabularies[self.feature_set.index_of_feature(name)]
        if vocab is None:
            raise ConfigurationError(f"feature {name!r} is not categorical")
        return vocab

    def rows_for(self, item_ids: Iterable[Hashable]) -> np.ndarray:
        """Row indices for a sequence of item ids (vectorized lookup)."""
        try:
            return np.fromiter(
                (self.index_of[i] for i in item_ids), dtype=np.int64
            )
        except KeyError as exc:
            raise SchemaError(f"item id {exc.args[0]!r} not in encoded catalog") from None

    def rows_for_sequence(self, sequence) -> np.ndarray:
        """Row indices for an action sequence's items, cached by identity.

        Sequences are immutable, so re-encoding the same
        :class:`~repro.data.actions.ActionSequence` always yields the same
        rows; training loops, ``resume_fit``, and ``extend_model``'s
        refit path all hit this cache instead of walking the id → row dict
        again.  Entries are keyed on the sequence's identity and dropped
        when it is garbage collected; the cache lives outside the dataclass
        fields (like ``Categorical._log_probs``) so equality and
        serialization are unaffected.  Callers must not mutate the
        returned array.
        """
        cache = self.__dict__.get("_sequence_rows")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_sequence_rows", cache)
        key = id(sequence)
        entry = cache.get(key)
        if entry is not None and entry[0]() is sequence:
            return entry[1]
        rows = self.rows_for(action.item for action in sequence)

        def _evict(ref: "weakref.ref", *, _cache=cache, _key=key) -> None:
            if _cache.get(_key, (None,))[0] is ref:
                del _cache[_key]

        cache[key] = (weakref.ref(sequence, _evict), rows)
        return rows


class FeatureSet:
    """An ordered collection of :class:`FeatureSpec` for one domain."""

    def __init__(self, specs: Iterable[FeatureSpec]):
        self.specs: tuple[FeatureSpec, ...] = tuple(specs)
        if not self.specs:
            raise ConfigurationError("a feature set needs at least one feature")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate feature names in {names}")
        self._index = {spec.name: pos for pos, spec in enumerate(self.specs)}
        # id(catalog) -> (weakref to catalog, EncodedItems); see encode().
        self._encode_cache: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def index_of_feature(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConfigurationError(f"no feature named {name!r} in this set") from None

    def with_id_feature(self) -> "FeatureSet":
        """This feature set plus the item-id categorical feature."""
        if ID_FEATURE in self._index:
            return self
        return FeatureSet((FeatureSpec.id_spec(), *self.specs))

    def subset(self, names: Iterable[str]) -> "FeatureSet":
        """A feature set restricted to ``names`` (preserving declared order)."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise ConfigurationError(f"unknown features requested: {sorted(missing)}")
        return FeatureSet(spec for spec in self.specs if spec.name in wanted)

    def to_json(self) -> list[dict]:
        """A JSON-serializable description, for persisting schemas to disk."""
        return [
            {
                "name": spec.name,
                "kind": spec.kind.value,
                "vocabulary": list(spec.vocabulary) if spec.vocabulary else None,
            }
            for spec in self.specs
        ]

    @classmethod
    def from_json(cls, payload: list[dict]) -> "FeatureSet":
        """Inverse of :meth:`to_json`."""
        try:
            return cls(
                FeatureSpec(
                    entry["name"],
                    FeatureKind(entry["kind"]),
                    tuple(entry["vocabulary"]) if entry.get("vocabulary") else None,
                )
                for entry in payload
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigurationError(f"malformed feature-set description: {exc}") from exc

    def encode(self, catalog: ItemCatalog) -> EncodedItems:
        """Encode every catalog item into dense arrays, validating values.

        Raises :class:`~repro.exceptions.SchemaError` when a value is
        incompatible with its declared family (negative count, non-positive
        gamma value, out-of-vocabulary category).

        Catalogs are treated as immutable, so encoding is memoized by
        catalog identity: repeated fits against the same catalog (a
        hyper-parameter sweep, the benchmark harness, ``resume_fit``)
        reuse one :class:`EncodedItems` — and with it the per-sequence
        row cache it accumulates — instead of re-walking every item.
        Entries are dropped when the catalog is garbage collected.
        """
        key = id(catalog)
        entry = self._encode_cache.get(key)
        if entry is not None and entry[0]() is catalog:
            return entry[1]
        encoded = self._encode(catalog)

        def _evict(ref: "weakref.ref", *, _cache=self._encode_cache, _key=key) -> None:
            if _cache.get(_key, (None,))[0] is ref:
                del _cache[_key]

        self._encode_cache[key] = (weakref.ref(catalog, _evict), encoded)
        return encoded

    def _encode(self, catalog: ItemCatalog) -> EncodedItems:
        item_ids = catalog.ids
        index_of = {item_id: pos for pos, item_id in enumerate(item_ids)}
        columns: list[np.ndarray] = []
        vocabularies: list[tuple[Hashable, ...] | None] = []
        for spec in self.specs:
            raw = (
                list(item_ids)
                if spec.is_id
                else catalog.feature_values(spec.name)
            )
            if spec.kind is FeatureKind.CATEGORICAL:
                column, vocab = _encode_categorical(spec, raw)
                columns.append(column)
                vocabularies.append(vocab)
            else:
                columns.append(_encode_numeric(spec, raw))
                vocabularies.append(None)
        return EncodedItems(
            feature_set=self,
            item_ids=item_ids,
            index_of=index_of,
            columns=tuple(columns),
            vocabularies=tuple(vocabularies),
        )


def _encode_categorical(
    spec: FeatureSpec, raw: list[Hashable]
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    if spec.vocabulary is not None:
        vocab = spec.vocabulary
        code_of = {value: code for code, value in enumerate(vocab)}
        codes = []
        for value in raw:
            if value not in code_of:
                raise SchemaError(
                    f"feature {spec.name!r}: value {value!r} outside closed vocabulary"
                )
            codes.append(code_of[value])
    else:
        code_of = {}
        codes = []
        for value in raw:
            if value not in code_of:
                code_of[value] = len(code_of)
            codes.append(code_of[value])
        vocab = tuple(code_of)
    return np.asarray(codes, dtype=np.int64), vocab


def _encode_numeric(spec: FeatureSpec, raw: list) -> np.ndarray:
    try:
        values = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"feature {spec.name!r}: non-numeric value ({exc})") from None
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"feature {spec.name!r}: non-finite values")
    if spec.kind is FeatureKind.COUNT:
        if np.any(values < 0) or np.any(values != np.floor(values)):
            raise SchemaError(f"feature {spec.name!r}: count values must be integers >= 0")
        return values.astype(np.int64)
    if spec.kind in (FeatureKind.POSITIVE, FeatureKind.LOG_POSITIVE):
        if np.any(values <= 0):
            raise SchemaError(f"feature {spec.name!r}: values must be strictly positive")
        return values
    raise ConfigurationError(f"unhandled feature kind {spec.kind!r}")
