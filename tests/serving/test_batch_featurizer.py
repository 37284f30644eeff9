"""Property tests: the batch featurizer is bitwise-identical to the
per-sequence path, across every pipeline configuration and registry model."""

import numpy as np
import pytest

from repro.features.hashing import HashingVectorizer
from repro.features.tfidf import TfidfVectorizer
from repro.models.registry import MODEL_NAMES, create_model
from repro.models.statistical import StatisticalModel
from repro.pipeline.store import FeatureStore
from repro.serving import PredictionService
from repro.serving.featurizer import BatchFeaturizer, PrecomputedTfidfEncoder
from repro.text.pipeline import PipelineConfig

#: Every PipelineConfig combination over the four boolean axes.
ALL_CONFIGS = [
    PipelineConfig(
        lowercase=lowercase,
        remove_digits_symbols=remove,
        lemmatize=lemmatize,
        split_items=split,
    )
    for lowercase in (True, False)
    for remove in (True, False)
    for lemmatize in (True, False)
    for split in (True, False)
]


def _config_id(config):
    return (
        f"lc{int(config.lowercase)}-rm{int(config.remove_digits_symbols)}"
        f"-lm{int(config.lemmatize)}-sp{int(config.split_items)}"
    )


@pytest.fixture(scope="module")
def sequences(tiny_corpus):
    """A request micro-batch with heavy item overlap and exact duplicates."""
    batch = [recipe.sequence for recipe in tiny_corpus.recipes[:24]]
    batch += batch[:6]  # duplicate sequences within one batch
    batch.append(("Salted BUTTER 2kg", "onion!", "onion!", ""))
    return batch


def _sequential_tokens(sequences, config):
    chain = config.stage_chain()
    return [chain.run_sequence(sequence) for sequence in sequences]


class TestBatchTokensBitwise:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=_config_id)
    def test_all_pipeline_configs(self, sequences, config):
        batch = BatchFeaturizer().batch_tokens(sequences, config)
        assert batch == _sequential_tokens(sequences, config)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_all_registry_model_specs(self, sequences, name):
        config = create_model(name).feature_spec().pipeline
        batch = BatchFeaturizer().batch_tokens(sequences, config)
        assert batch == _sequential_tokens(sequences, config)

    def test_store_path_matches_storeless(self, sequences):
        config = PipelineConfig()
        store = FeatureStore()
        with_store = BatchFeaturizer().batch_tokens(sequences, config, store=store)
        assert with_store == _sequential_tokens(sequences, config)

    def test_matches_store_sequence_tokens(self, sequences):
        """Same artifacts as FeatureStore.sequence_tokens would compute."""
        config = PipelineConfig()
        reference_store = FeatureStore()
        reference = [
            reference_store.sequence_tokens(sequence, config) for sequence in sequences
        ]
        batch = BatchFeaturizer().batch_tokens(sequences, config, store=FeatureStore())
        assert batch == reference

    def test_bounded_memo_stays_correct(self, sequences):
        config = PipelineConfig()
        featurizer = BatchFeaturizer(memo_size=2)  # constant eviction
        assert featurizer.batch_tokens(sequences, config) == _sequential_tokens(
            sequences, config
        )

    def test_memo_reused_across_batches(self, sequences):
        config = PipelineConfig()
        featurizer = BatchFeaturizer()
        first = featurizer.batch_tokens(sequences, config)
        second = featurizer.batch_tokens(sequences, config)
        assert first == second == _sequential_tokens(sequences, config)

    def test_empty_batch(self):
        assert BatchFeaturizer().batch_tokens([], PipelineConfig()) == []


class TestStoreAccounting:
    """The batch path keeps FeatureStore hit/miss counters identical."""

    def test_misses_counted_per_distinct_sequence(self, sequences):
        config = PipelineConfig()
        store = FeatureStore()
        BatchFeaturizer().batch_tokens(sequences, config, store=store)
        distinct = len({tuple(s) for s in sequences})
        assert store.miss_count("sequence_tokens") == distinct

    def test_warm_sequences_are_pure_hits(self, sequences):
        config = PipelineConfig()
        store = FeatureStore()
        featurizer = BatchFeaturizer()
        featurizer.batch_tokens(sequences, config, store=store)
        misses_before = store.miss_count("sequence_tokens")
        featurizer.batch_tokens(sequences, config, store=store)
        assert store.miss_count("sequence_tokens") == misses_before
        assert store.hit_count("sequence_tokens") >= len(sequences)


def _token_docs(sequences):
    chain = PipelineConfig(split_items=True).stage_chain()
    docs = [chain.run_sequence(sequence) for sequence in sequences]
    docs.append([])  # empty document
    docs.append(["never-in-vocabulary-token"])
    return docs


def _assert_csr_bitwise(reference, fused):
    """Identical CSR down to the internal layout (indices order included) —
    downstream sparse products sum in storage order, so layout matters."""
    assert reference.shape == fused.shape
    np.testing.assert_array_equal(reference.indptr, fused.indptr)
    np.testing.assert_array_equal(reference.indices, fused.indices)
    np.testing.assert_array_equal(reference.data, fused.data)


def _features(tokens, ngram_range):
    lo, hi = ngram_range
    return [
        " ".join(tokens[i : i + n])
        for n in range(lo, hi + 1)
        for i in range(len(tokens) - n + 1)
    ]


def _dense_counts(docs, vocabulary, ngram_range):
    counts = np.zeros((len(docs), len(vocabulary)))
    for row, tokens in enumerate(docs):
        for feature in _features(tokens, ngram_range):
            if feature in vocabulary:
                counts[row, vocabulary[feature]] += 1.0
    return counts


def _dense_tfidf(fit_docs, docs, vectorizer, kwargs):
    """The TF-IDF formula on dense arrays, independent of the sparse code:
    idf from the fit documents' document frequencies, optional sublinear tf,
    then each row divided by its l2/l1 norm (empty rows stay zero)."""
    ngram_range = kwargs.get("ngram_range", (1, 1))
    vocabulary = vectorizer.vocabulary_
    df = (_dense_counts(fit_docs, vocabulary, ngram_range) > 0).sum(axis=0)
    n = len(fit_docs)
    if kwargs.get("smooth_idf", True):
        idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    else:
        idf = np.log(n / df) + 1.0
    counts = _dense_counts(docs, vocabulary, ngram_range)
    tf = counts
    if kwargs.get("sublinear_tf", False):
        tf = np.where(counts > 0, 1.0 + np.log(np.maximum(counts, 1.0)), 0.0)
    weighted = tf * idf
    norm = kwargs.get("norm", "l2")
    if norm is None:
        return weighted
    if norm == "l2":
        norms = np.sqrt((weighted**2).sum(axis=1))
    else:
        norms = np.abs(weighted).sum(axis=1)
    norms[norms == 0.0] = 1.0
    return weighted / norms[:, None]


TFIDF_PARAMS = [
    {},
    {"sublinear_tf": True},
    {"norm": "l1"},
    {"norm": None},
    {"smooth_idf": False},
]
NGRAM_RANGES = [(1, 2), (2, 2), (1, 3), (3, 3)]


def _params_id(kwargs):
    return ",".join(f"{k}={v}" for k, v in kwargs.items()) or "default"


class TestPrecomputedEncoders:
    def _assert_rows_batch_invariant(self, vectorizer, docs):
        """Every row encoded alone is bitwise its row of the whole batch."""
        encoder = PrecomputedTfidfEncoder(vectorizer)
        batch = encoder.encode(docs)
        assert batch.has_sorted_indices
        for row, doc in enumerate(docs):
            _assert_csr_bitwise(batch[row], encoder.encode([doc]))

    @pytest.mark.parametrize("kwargs", TFIDF_PARAMS, ids=_params_id)
    def test_tfidf_encoder_bitwise(self, sequences, kwargs):
        docs = _token_docs(sequences)
        vectorizer = TfidfVectorizer(**kwargs)
        vectorizer.fit(docs[: len(docs) // 2])
        self._assert_rows_batch_invariant(vectorizer, docs)

    @pytest.mark.parametrize("ngram_range", NGRAM_RANGES, ids=str)
    def test_tfidf_ngram_encoder_bitwise(self, sequences, ngram_range):
        docs = _token_docs(sequences)
        vectorizer = TfidfVectorizer(ngram_range=ngram_range)
        vectorizer.fit(docs[: len(docs) // 2])
        self._assert_rows_batch_invariant(vectorizer, docs)

    @pytest.mark.parametrize(
        "kwargs",
        TFIDF_PARAMS + [{"ngram_range": ngram_range} for ngram_range in NGRAM_RANGES],
        ids=_params_id,
    )
    def test_tfidf_transform_matches_dense_oracle(self, sequences, kwargs):
        docs = _token_docs(sequences)
        fit_docs = docs[: len(docs) // 2]
        vectorizer = TfidfVectorizer(**kwargs).fit(fit_docs)
        expected = _dense_tfidf(fit_docs, docs, vectorizer, kwargs)
        np.testing.assert_allclose(
            vectorizer.transform(docs).toarray(), expected, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            TfidfVectorizer(**kwargs).fit_transform(fit_docs).toarray(),
            _dense_tfidf(fit_docs, fit_docs, vectorizer, kwargs),
            rtol=1e-12,
            atol=0,
        )

    def test_unfitted_tfidf_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            PrecomputedTfidfEncoder(TfidfVectorizer())

    def test_ngram_vectorizer_model_gets_encoder(self, sequences):
        """N-gram specs qualify for the encoder dispatch path."""
        docs = _token_docs(sequences)
        model = create_model("naive_bayes")
        model.vectorizer = TfidfVectorizer(ngram_range=(1, 2)).fit(docs)
        assert isinstance(
            BatchFeaturizer().encoder_for(model), PrecomputedTfidfEncoder
        )


class TestEncoderDispatch:
    @pytest.fixture(scope="class")
    def fitted_logreg(self, tiny_corpus):
        model = create_model("logreg", max_iter=30)
        model.fit(tiny_corpus)
        return model

    def test_statistical_model_gets_tfidf_encoder(self, fitted_logreg):
        encoder = BatchFeaturizer().encoder_for(fitted_logreg)
        assert isinstance(encoder, PrecomputedTfidfEncoder)

    def test_instance_override_disables_fast_path(self, fitted_logreg, tiny_corpus):
        model = create_model("logreg", max_iter=30)
        model.fit(tiny_corpus)
        model.encode_tokens = lambda token_lists: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        assert BatchFeaturizer().encoder_for(model) is None

    def test_sequential_model_has_no_encoder(self):
        assert BatchFeaturizer().encoder_for(create_model("lstm")) is None

    def test_encoder_predictions_bitwise(self, fitted_logreg, sequences):
        """The fused path reproduces predict_proba_tokens bit for bit."""
        config = fitted_logreg.feature_spec().pipeline
        tokens = _sequential_tokens(sequences, config)
        encoder = BatchFeaturizer().encoder_for(fitted_logreg)
        fused = fitted_logreg.predict_proba_features(encoder.encode(tokens))
        np.testing.assert_array_equal(
            fitted_logreg.predict_proba_tokens(tokens), fused
        )

    def test_hashing_vectorizer_model_dispatch(self, tiny_corpus, sequences):
        """A statistical model over hashed features gets no encoder; the
        service serves it through ``predict_proba_tokens``, bit for bit."""
        model = create_model("naive_bayes")
        model.fit(tiny_corpus)
        model.vectorizer = HashingVectorizer(n_features=model.vectorizer.n_features)
        assert isinstance(model, StatisticalModel)
        assert BatchFeaturizer().encoder_for(model) is None
        config = model.feature_spec().pipeline
        expected = model.predict_proba_tokens(_sequential_tokens(sequences, config))
        with PredictionService({"hashed": model}, cache_size=0) as service:
            served = service.predict_proba_batch("hashed", sequences)
        np.testing.assert_array_equal(served, expected)
