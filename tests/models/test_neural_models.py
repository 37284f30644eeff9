"""Tests for the LSTM and transformer cuisine classifiers.

These run real (small) training loops, so the corpora and model sizes are kept
tiny; the assertions are about mechanics and better-than-chance learning, not
about reaching paper-level accuracy.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.data.splits import train_val_test_split
from repro.models.lstm_classifier import LSTMClassifierConfig, LSTMCuisineClassifier
from repro.models.transformer_classifier import (
    BERTCuisineClassifier,
    RoBERTaCuisineClassifier,
    TransformerClassifierConfig,
    TransformerCuisineClassifier,
)
from repro.nn.module import Module


@pytest.fixture(scope="module")
def splits(tiny_corpus):
    return train_val_test_split(tiny_corpus, seed=2)


@pytest.fixture(scope="module")
def label_space(tiny_corpus):
    return tiny_corpus.present_cuisines()


SMALL_LSTM = LSTMClassifierConfig(
    embedding_dim=24, hidden_dim=32, num_layers=2, max_length=32, epochs=3, batch_size=32,
    learning_rate=5e-3, early_stopping_patience=None, seed=1,
)
SMALL_TRANSFORMER = TransformerClassifierConfig(
    dim=32, num_heads=4, num_layers=2, ffn_dim=64, max_length=32, epochs=3, batch_size=32,
    pretrain_epochs=1, learning_rate=3e-3, early_stopping_patience=None, seed=1,
)


class TestLSTMCuisineClassifier:
    @pytest.fixture(scope="class")
    def fitted(self, splits, label_space):
        model = LSTMCuisineClassifier(label_space=label_space, config=SMALL_LSTM)
        return model.fit(splits.train, splits.validation)

    def test_training_history_recorded(self, fitted):
        assert fitted.history is not None
        assert fitted.history.epochs >= 1
        assert len(fitted.history.val_loss) == fitted.history.epochs

    def test_beats_chance_on_test(self, fitted, splits, label_space):
        metrics = fitted.evaluate(splits.test)
        assert metrics.accuracy > 1.5 / len(label_space)
        assert np.isfinite(metrics.loss)

    def test_probabilities_valid(self, fitted, splits, label_space):
        probabilities = fitted.predict_proba(splits.test)
        assert probabilities.shape == (len(splits.test), len(label_space))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_unfitted_raises(self, label_space, splits):
        with pytest.raises(RuntimeError):
            LSTMCuisineClassifier(label_space=label_space).predict_proba(splits.test)

    def test_vocabulary_built_from_training_data(self, fitted):
        assert fitted.vocabulary is not None
        assert len(fitted.vocabulary) > 10

    def test_two_layer_topology(self, fitted):
        assert len(fitted.network.lstm.cells) == 2


class TestTransformerCuisineClassifier:
    @pytest.fixture(scope="class")
    def fitted(self, splits, label_space):
        model = TransformerCuisineClassifier(label_space=label_space, config=SMALL_TRANSFORMER)
        return model.fit(splits.train, splits.validation)

    def test_pretraining_ran(self, fitted):
        assert fitted.pretraining_result is not None
        assert len(fitted.pretraining_result.losses_per_epoch) == 1
        assert np.isfinite(fitted.pretraining_result.final_loss)

    def test_finetuning_history_recorded(self, fitted):
        assert fitted.history is not None
        assert fitted.history.epochs >= 1

    def test_beats_chance_on_test(self, fitted, splits, label_space):
        metrics = fitted.evaluate(splits.test)
        assert metrics.accuracy > 1.5 / len(label_space)

    def test_probabilities_valid(self, fitted, splits, label_space):
        probabilities = fitted.predict_proba(splits.test)
        assert probabilities.shape == (len(splits.test), len(label_space))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_unfitted_raises(self, label_space, splits):
        with pytest.raises(RuntimeError):
            TransformerCuisineClassifier(label_space=label_space).predict_proba(splits.test)


class TestBERTvsRoBERTaPresets:
    def test_bert_uses_static_masking_and_fewer_epochs(self):
        base = TransformerClassifierConfig(pretrain_epochs=4)
        bert = BERTCuisineClassifier(config=base)
        roberta = RoBERTaCuisineClassifier(config=base)
        assert bert.config.pretrain_dynamic_masking is False
        assert roberta.config.pretrain_dynamic_masking is True
        assert roberta.config.pretrain_epochs > bert.config.pretrain_epochs

    def test_presets_with_pretraining_disabled(self):
        base = TransformerClassifierConfig(pretrain_epochs=0)
        assert BERTCuisineClassifier(config=base).config.pretrain_epochs == 0
        assert RoBERTaCuisineClassifier(config=base).config.pretrain_epochs == 0

    def test_names(self):
        assert BERTCuisineClassifier().name == "bert"
        assert RoBERTaCuisineClassifier().name == "roberta"
        assert LSTMCuisineClassifier().name == "lstm"


# ----------------------------------------------------------------------
# inference modes: set at fit and load, never per predict
# ----------------------------------------------------------------------
MODE_MODELS = {
    "lstm": (LSTMCuisineClassifier, replace(SMALL_LSTM, epochs=1)),
    "transformer": (
        TransformerCuisineClassifier,
        replace(SMALL_TRANSFORMER, epochs=1, pretrain_epochs=0),
    ),
}


@pytest.fixture(scope="module", params=sorted(MODE_MODELS))
def fitted_and_loaded(request, splits, label_space):
    """A model fitted in-process and its ``get_state``/``set_state`` copy."""
    model_cls, config = MODE_MODELS[request.param]
    fitted = model_cls(label_space=label_space, config=config).fit(
        splits.train, splits.validation
    )
    loaded = model_cls(label_space=label_space).set_state(fitted.get_state())
    return fitted, loaded


@pytest.fixture(scope="module")
def held_out_tokens(splits, fitted_and_loaded):
    pipeline = fitted_and_loaded[1]._pipeline()
    return [pipeline.process_sequence(sequence) for sequence in splits.test.sequences]


class TestInferenceModes:
    """Dropout is switched by a mode flag on every module.  If predicting
    wrote that flag, one thread's predict could turn dropout back on in the
    middle of another thread's forward pass on the same model."""

    def test_fit_and_set_state_leave_every_module_in_eval_mode(self, fitted_and_loaded):
        for model in fitted_and_loaded:
            assert not any(module.training for module in model.network.modules())

    def test_predict_writes_no_mode(self, fitted_and_loaded, held_out_tokens, monkeypatch):
        def refuse(self, mode=True):
            raise AssertionError(f"predict wrote the mode of {type(self).__name__}")

        compositions = (held_out_tokens, held_out_tokens[:1])
        expected = [
            [model.predict_proba_tokens(tokens) for tokens in compositions]
            for model in fitted_and_loaded
        ]
        monkeypatch.setattr(Module, "train", refuse)
        for model, answers in zip(fitted_and_loaded, expected):
            for tokens, probabilities in zip(compositions, answers):
                np.testing.assert_array_equal(model.predict_proba_tokens(tokens), probabilities)

    def test_predict_switches_a_training_model_to_eval(self, fitted_and_loaded, held_out_tokens):
        fitted, loaded = fitted_and_loaded
        expected = loaded.predict_proba_tokens(held_out_tokens)
        loaded.network.train()
        np.testing.assert_array_equal(loaded.predict_proba_tokens(held_out_tokens), expected)
        assert not any(module.training for module in loaded.network.modules())

    def test_concurrent_singles_and_batches_are_bitwise_sequential(
        self, fitted_and_loaded, held_out_tokens
    ):
        """One thread predicts single rows while another predicts 64-row
        batches on the same loaded model; every answer must be bitwise the
        sequential answer for the same batch composition."""
        model = fitted_and_loaded[1]
        singles = held_out_tokens[:40]
        batch = (held_out_tokens * 2)[:64]
        expected_singles = [model.predict_proba_tokens([tokens]) for tokens in singles]
        expected_batch = model.predict_proba_tokens(batch)

        start = threading.Barrier(2, timeout=60)
        wrong: list[str] = []

        def run_singles():
            start.wait()
            for repeat in range(3):
                for index, tokens in enumerate(singles):
                    answer = model.predict_proba_tokens([tokens])
                    if not np.array_equal(answer, expected_singles[index]):
                        wrong.append(f"single {index} (repeat {repeat})")

        def run_batches():
            start.wait()
            for repeat in range(6):
                if not np.array_equal(model.predict_proba_tokens(batch), expected_batch):
                    wrong.append(f"batch (repeat {repeat})")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run_singles), pool.submit(run_batches)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not wrong, wrong
