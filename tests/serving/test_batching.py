"""Tests for the micro-batch worker's drain-what-is-queued rule and coalescing."""

import threading
import time

import numpy as np
import pytest

from repro.models.registry import create_model
from repro.serving import PredictionService
from repro.serving.featurizer import BatchFeaturizer

MODELS = ("logreg", "naive_bayes")
MODEL_KWARGS = {"logreg": {"max_iter": 30}, "naive_bayes": {}}


@pytest.fixture(scope="module")
def fitted_models(tiny_corpus):
    models = {}
    for name in MODELS:
        model = create_model(name, **MODEL_KWARGS[name])
        model.fit(tiny_corpus)
        models[name] = model
    return models


@pytest.fixture(scope="module")
def sequences(tiny_corpus):
    return [recipe.sequence for recipe in tiny_corpus.recipes[:12]]


def _slow(model, seconds):
    """Wrap the model's classifier pass with a sleep (benchmark-style hook)."""
    original = model.predict_proba_features

    def slowed(features, *, _original=original):
        time.sleep(seconds)
        return _original(features)

    model.predict_proba_features = slowed
    return original


class TestDrainQueuedRule:
    """The worker blocks for one request, then flushes it together with
    whatever else is already queued, up to ``max_batch_size``."""

    def test_serves_reference_results(self, fitted_models, sequences):
        with PredictionService({"m": fitted_models["logreg"]}, cache_size=0) as service:
            rows = [service.predict_proba("m", sequence) for sequence in sequences]
        reference = [
            fitted_models["logreg"].predict_proba_sequences([sequence])[0]
            for sequence in sequences
        ]
        np.testing.assert_array_equal(np.vstack(rows), np.vstack(reference))

    def test_stats_expose_batch_distributions(self, fitted_models, sequences):
        with PredictionService({"m": fitted_models["logreg"]}) as service:
            service.predict_proba("m", sequences[0])
            stats = service.stats()
        assert stats["stages"]["queue_depth"]["count"] == 1
        assert stats["stages"]["batch_size"]["count"] == 1
        assert stats["stages"]["batch_size"]["max"] == 1.0

    def test_batches_form_under_concurrency(self, fitted_models, sequences):
        """Concurrent distinct requests queue up behind a slow pass and are
        flushed together, without any flush timer."""
        model = fitted_models["logreg"]
        original = _slow(model, 0.01)
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                threads = [
                    threading.Thread(
                        target=service.predict_proba, args=("m", sequence)
                    )
                    for sequence in sequences
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = service.stats()
                assert stats["batched_requests"] == len(sequences)
                assert stats["largest_batch"] > 1
        finally:
            model.predict_proba_features = original

    def test_max_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            PredictionService(max_batch_size=0)

    def test_flush_takes_queued_requests_up_to_max_batch_size(
        self, fitted_models, sequences
    ):
        model = fitted_models["logreg"]
        original = model.predict_proba_features
        entered, release = threading.Event(), threading.Event()

        def gated(features):
            entered.set()
            release.wait(timeout=30.0)
            return original(features)

        model.predict_proba_features = gated
        try:
            with PredictionService(
                {"m": model}, cache_size=0, coalesce=False, max_batch_size=4
            ) as service:
                first = threading.Thread(
                    target=service.predict_proba, args=("m", sequences[0])
                )
                first.start()
                assert entered.wait(timeout=30.0)  # the worker is busy
                queued = [
                    threading.Thread(target=service.predict_proba, args=("m", s))
                    for s in sequences[1:11]
                ]
                for thread in queued:
                    thread.start()
                deadline = time.monotonic() + 30.0
                while service._queue.qsize() < 10 and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert service._queue.qsize() == 10
                release.set()
                for thread in [first, *queued]:
                    thread.join(timeout=30.0)
                stats = service.stats()
        finally:
            model.predict_proba_features = original
        # 1 alone (it was the only request when the worker woke), then the
        # 10 queued ones in flushes of 4, 4 and 2.
        assert stats["batches_flushed"] == 4
        assert stats["batched_requests"] == 11
        assert stats["largest_batch"] == 4


class TestCoalescing:
    def test_identical_concurrent_requests_coalesce(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = _slow(model, 0.03)
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                results = []
                lock = threading.Lock()

                def call():
                    row = service.predict_proba("m", sequences[0])
                    with lock:
                        results.append(row)

                threads = [threading.Thread(target=call) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = service.stats()
        finally:
            model.predict_proba_features = original
        assert len(results) == 8
        assert stats["coalesced_hits"] >= 1
        # Coalesced waiters + the leader account for every request; the
        # model ran fewer passes than requests.
        assert stats["cache_misses"] + stats["coalesced_hits"] + stats[
            "cache_hits"
        ] == 8
        assert stats["batched_requests"] < 8
        reference = results[0]
        for row in results[1:]:
            assert np.array_equal(row, reference)

    def test_followers_receive_copies(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = _slow(model, 0.03)
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                rows = []
                threads = [
                    threading.Thread(
                        target=lambda: rows.append(
                            service.predict_proba("m", sequences[0])
                        )
                    )
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        expected = rows[0].copy()
        rows[1][:] = -1.0  # a caller scribbling on its result
        others = [row for row in rows if row is not rows[1]]
        assert all(np.array_equal(row, expected) for row in others)

    def test_coalesce_off_runs_every_request(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = _slow(model, 0.02)
        try:
            with PredictionService(
                {"m": model}, cache_size=0, coalesce=False
            ) as service:
                threads = [
                    threading.Thread(
                        target=service.predict_proba, args=("m", sequences[0])
                    )
                    for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = service.stats()
        finally:
            model.predict_proba_features = original
        assert stats["coalesced_hits"] == 0
        assert stats["cache_misses"] == 6
        assert stats["batched_requests"] == 6

    def test_leader_error_shared_by_followers(self, fitted_models, sequences):
        model = fitted_models["logreg"]
        original = model.predict_proba_features
        entered = threading.Event()

        def exploding(features):
            entered.set()
            time.sleep(0.02)
            raise RuntimeError("boom")

        model.predict_proba_features = exploding
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                errors = []
                lock = threading.Lock()

                def call():
                    try:
                        service.predict_proba("m", sequences[0])
                    except RuntimeError as exc:
                        with lock:
                            errors.append(exc)

                threads = [threading.Thread(target=call) for _ in range(5)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        assert len(errors) == 5
        assert all("boom" in str(exc) for exc in errors)


class TestBitwiseIdentity:
    """Acceptance: served rows are bitwise-identical to the per-sequence
    reference (one sequence per pass through the same token featurization)
    with coalescing on."""

    @pytest.mark.parametrize("model_name", MODELS)
    def test_sequential_predicts_bitwise(self, fitted_models, sequences, model_name):
        model = fitted_models[model_name]
        featurizer = BatchFeaturizer()
        with PredictionService({"m": model}, cache_size=0) as service:
            tokens = featurizer.batch_tokens(
                [service._validated(s) for s in sequences],
                model.feature_spec().pipeline,
                store=service.store,
            )
            reference = np.vstack(
                [model.predict_proba_tokens([t]) for t in tokens]
            )
            served = np.vstack(
                [service.predict_proba("m", sequence) for sequence in sequences]
            )
        assert np.array_equal(reference, served)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_coalesced_identical_requests_bitwise(
        self, fitted_models, sequences, model_name
    ):
        model = fitted_models[model_name]
        original = _slow(model, 0.02)
        featurizer = BatchFeaturizer()
        try:
            with PredictionService({"m": model}, cache_size=0) as service:
                validated = service._validated(sequences[0])
                tokens = featurizer.batch_tokens(
                    [validated], model.feature_spec().pipeline, store=service.store
                )
                rows = []
                lock = threading.Lock()

                def call():
                    row = service.predict_proba("m", sequences[0])
                    with lock:
                        rows.append(row)

                threads = [threading.Thread(target=call) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            model.predict_proba_features = original
        reference = model.predict_proba_tokens([tokens[0]])[0]
        assert len(rows) == 6
        assert all(np.array_equal(row, reference) for row in rows)
