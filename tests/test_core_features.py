"""Tests for repro.core.features."""

import dataclasses

import numpy as np
import pytest

from repro.core.features import ID_FEATURE, FeatureKind, FeatureSet, FeatureSpec
from repro.data.items import Item, ItemCatalog
from repro.exceptions import ConfigurationError, SchemaError


class TestFeatureSpec:
    def test_vocabulary_only_for_categorical(self):
        with pytest.raises(ConfigurationError):
            FeatureSpec("x", FeatureKind.COUNT, vocabulary=("a",))

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureSpec("x", FeatureKind.CATEGORICAL, vocabulary=("a", "a"))

    def test_id_spec(self):
        spec = FeatureSpec.id_spec()
        assert spec.is_id
        assert spec.kind is FeatureKind.CATEGORICAL


class TestFeatureSet:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureSet([])

    def test_duplicate_names_rejected(self):
        specs = [FeatureSpec("x", FeatureKind.COUNT), FeatureSpec("x", FeatureKind.COUNT)]
        with pytest.raises(ConfigurationError):
            FeatureSet(specs)

    def test_with_id_feature_idempotent(self, tiny_feature_set):
        once = tiny_feature_set.with_id_feature()
        twice = once.with_id_feature()
        assert once is twice
        assert once.names[0] == ID_FEATURE

    def test_subset(self, tiny_feature_set):
        subset = tiny_feature_set.subset(["weight", "color"])
        assert subset.names == ("color", "weight")  # declared order kept

    def test_subset_unknown(self, tiny_feature_set):
        with pytest.raises(ConfigurationError):
            tiny_feature_set.subset(["ghost"])

    def test_index_of_feature(self, tiny_feature_set):
        assert tiny_feature_set.index_of_feature("steps") == 1
        with pytest.raises(ConfigurationError):
            tiny_feature_set.index_of_feature("nope")


class TestEncoding:
    def test_columns_and_vocab(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        assert encoded.num_items == 12
        color = encoded.column("color")
        vocab = encoded.vocabulary("color")
        assert set(vocab) == {"red", "green", "blue"}
        # codes decode back to original values
        values = [vocab[code] for code in color]
        assert values == tiny_catalog.feature_values("color")

    def test_id_feature_encoding(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.with_id_feature().encode(tiny_catalog)
        vocab = encoded.vocabulary(ID_FEATURE)
        assert vocab == tiny_catalog.ids

    def test_id_vocabulary_must_list_the_item_ids_in_row_order(self, tiny_catalog):
        # A closed id vocabulary with an extra id would give item codes
        # that disagree with catalog rows, so encoding refuses it.
        spec = FeatureSpec(
            ID_FEATURE, FeatureKind.CATEGORICAL, vocabulary=("ghost", *tiny_catalog.ids)
        )
        with pytest.raises(SchemaError):
            FeatureSet([spec]).encode(tiny_catalog)

    def test_id_vocabulary_checked_on_direct_construction(
        self, tiny_catalog, tiny_feature_set
    ):
        encoded = tiny_feature_set.with_id_feature().encode(tiny_catalog)
        vocabularies = list(encoded.vocabularies)
        vocabularies[encoded.feature_set.index_of_feature(ID_FEATURE)] = tuple(
            reversed(encoded.item_ids)
        )
        with pytest.raises(SchemaError):
            dataclasses.replace(encoded, vocabularies=tuple(vocabularies))

    def test_rows_for(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        rows = encoded.rows_for(["i3", "i0", "i3"])
        assert list(rows) == [3, 0, 3]

    def test_rows_for_unknown(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        with pytest.raises(SchemaError):
            encoded.rows_for(["ghost"])

    def test_closed_vocabulary_enforced(self):
        spec = FeatureSpec("c", FeatureKind.CATEGORICAL, vocabulary=("a", "b"))
        catalog = ItemCatalog([Item(id=1, features={"c": "z"})])
        with pytest.raises(SchemaError):
            FeatureSet([spec]).encode(catalog)

    def test_closed_vocabulary_codes_follow_declaration(self):
        spec = FeatureSpec("c", FeatureKind.CATEGORICAL, vocabulary=("b", "a"))
        catalog = ItemCatalog(
            [Item(id=1, features={"c": "a"}), Item(id=2, features={"c": "b"})]
        )
        encoded = FeatureSet([spec]).encode(catalog)
        assert list(encoded.column("c")) == [1, 0]

    def test_count_validation(self):
        spec = FeatureSpec("n", FeatureKind.COUNT)
        for bad in (-1, 2.5):
            catalog = ItemCatalog([Item(id=1, features={"n": bad})])
            with pytest.raises(SchemaError):
                FeatureSet([spec]).encode(catalog)

    def test_positive_validation(self):
        for kind in (FeatureKind.POSITIVE, FeatureKind.LOG_POSITIVE):
            spec = FeatureSpec("v", kind)
            catalog = ItemCatalog([Item(id=1, features={"v": 0.0})])
            with pytest.raises(SchemaError):
                FeatureSet([spec]).encode(catalog)

    def test_non_numeric_rejected(self):
        spec = FeatureSpec("v", FeatureKind.POSITIVE)
        catalog = ItemCatalog([Item(id=1, features={"v": "heavy"})])
        with pytest.raises(SchemaError):
            FeatureSet([spec]).encode(catalog)

    def test_non_finite_rejected(self):
        spec = FeatureSpec("v", FeatureKind.POSITIVE)
        catalog = ItemCatalog([Item(id=1, features={"v": float("inf")})])
        with pytest.raises(SchemaError):
            FeatureSet([spec]).encode(catalog)

    def test_count_column_dtype(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        assert encoded.column("steps").dtype == np.int64
        assert encoded.column("weight").dtype == np.float64

    def test_vocabulary_of_numeric_feature_rejected(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        with pytest.raises(ConfigurationError):
            encoded.vocabulary("weight")
