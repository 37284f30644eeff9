"""Tests for the statistical (TF-IDF) cuisine models."""

import numpy as np
import pytest

from repro.data.splits import train_val_test_split
from repro.models.statistical import (
    LogisticRegressionModel,
    NaiveBayesModel,
    RandomForestModel,
    SVMModel,
)


@pytest.fixture(scope="module")
def splits(small_corpus):
    return train_val_test_split(small_corpus, seed=5)


@pytest.fixture(scope="module")
def label_space(small_corpus):
    return small_corpus.present_cuisines()


class TestStatisticalModelsTrainAndBeatChance:
    """Each TF-IDF baseline must clearly beat the 1/26 chance level."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda ls: LogisticRegressionModel(label_space=ls, max_iter=150),
            lambda ls: NaiveBayesModel(label_space=ls),
            lambda ls: SVMModel(label_space=ls, max_iter=100),
            lambda ls: RandomForestModel(
                label_space=ls, n_estimators=10, max_depth=10, boosting_rounds=5
            ),
        ],
        ids=["logreg", "naive_bayes", "svm", "random_forest"],
    )
    def test_beats_chance(self, splits, label_space, factory):
        model = factory(label_space)
        model.fit(splits.train, splits.validation)
        metrics = model.evaluate(splits.test)
        chance = 1.0 / len(label_space)
        assert metrics.accuracy > 3 * chance
        assert 0.0 <= metrics.precision <= 1.0
        assert 0.0 <= metrics.recall <= 1.0
        assert np.isfinite(metrics.loss)


class TestStatisticalModelMechanics:
    def test_predict_proba_shape_and_normalisation(self, splits, label_space):
        model = NaiveBayesModel(label_space=label_space).fit(splits.train)
        probabilities = model.predict_proba(splits.test)
        assert probabilities.shape == (len(splits.test), len(label_space))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_predict_returns_cuisine_names(self, splits, label_space):
        model = NaiveBayesModel(label_space=label_space).fit(splits.train)
        predictions = model.predict(splits.test)
        assert len(predictions) == len(splits.test)
        assert set(predictions) <= set(label_space)

    def test_unfitted_predict_raises(self, splits, label_space):
        with pytest.raises(RuntimeError):
            LogisticRegressionModel(label_space=label_space).predict_proba(splits.test)

    def test_labels_of_uses_label_space(self, splits, label_space):
        model = NaiveBayesModel(label_space=label_space)
        labels = model.labels_of(splits.test)
        assert labels.max() < len(label_space)
        assert labels.min() >= 0

    def test_evaluate_returns_table_iv_metrics(self, splits, label_space):
        model = NaiveBayesModel(label_space=label_space).fit(splits.train)
        metrics = model.evaluate(splits.test)
        row = metrics.table_row()
        assert set(row) == {"Accuracy", "Loss", "Precision", "Recall", "F1 Score"}
        assert row["Accuracy"] == pytest.approx(metrics.accuracy * 100, abs=0.01)

    def test_describe(self, label_space):
        model = SVMModel(label_space=label_space)
        assert "SVMModel" in model.describe()

    def test_small_label_space_rejected(self):
        with pytest.raises(ValueError):
            NaiveBayesModel(label_space=("Italian",))

    def test_random_forest_without_boosting(self, splits, label_space):
        model = RandomForestModel(
            label_space=label_space, n_estimators=5, max_depth=8, use_boosting=False
        ).fit(splits.train)
        assert model.booster is None
        probabilities = model.predict_proba(splits.test)
        assert np.allclose(probabilities.sum(axis=1), 1.0)


class TestBatchInvariance:
    """A recipe's probabilities do not depend on the batch it is scored in."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda ls: LogisticRegressionModel(label_space=ls, max_iter=30),
            lambda ls: NaiveBayesModel(label_space=ls),
            lambda ls: SVMModel(label_space=ls, max_iter=30),
            lambda ls: RandomForestModel(
                label_space=ls, n_estimators=5, max_depth=8, boosting_rounds=2
            ),
        ],
        ids=["logreg", "naive_bayes", "svm_linear", "random_forest"],
    )
    def test_single_rows_equal_their_batch_rows_bitwise(self, splits, label_space, factory):
        model = factory(label_space).fit(splits.train)
        sequences = [recipe.sequence for recipe in splits.test.recipes[:96]]
        assert len(sequences) >= 64
        batch = model.predict_proba_sequences(sequences)
        for row, sequence in enumerate(sequences):
            np.testing.assert_array_equal(
                model.predict_proba_sequences([sequence])[0], batch[row]
            )
