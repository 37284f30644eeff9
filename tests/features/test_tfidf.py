"""Tests for the TF-IDF vectorizer."""

import numpy as np
import pytest
from scipy import sparse

from repro.features.tfidf import TfidfVectorizer


DOCS = [
    "add onion garlic",
    "add onion tomato",
    "add rice steam",
    "noodle soy_sauce wok",
]


class TestIdf:
    def test_smoothed_idf_formula(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vocab = vectorizer.vocabulary_
        n = len(DOCS)
        # "add" occurs in 3 documents, "wok" in 1.
        expected_add = np.log((1 + n) / (1 + 3)) + 1
        expected_wok = np.log((1 + n) / (1 + 1)) + 1
        assert vectorizer.idf_[vocab["add"]] == pytest.approx(expected_add)
        assert vectorizer.idf_[vocab["wok"]] == pytest.approx(expected_wok)

    def test_common_terms_get_lower_idf(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vocab = vectorizer.vocabulary_
        assert vectorizer.idf_[vocab["add"]] < vectorizer.idf_[vocab["garlic"]]

    def test_unsmoothed_idf(self):
        vectorizer = TfidfVectorizer(smooth_idf=False).fit(DOCS)
        vocab = vectorizer.vocabulary_
        assert vectorizer.idf_[vocab["add"]] == pytest.approx(np.log(4 / 3) + 1)


class TestTransform:
    def test_l2_normalisation(self):
        matrix = TfidfVectorizer().fit_transform(DOCS)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        assert np.allclose(norms, 1.0)

    def test_l1_normalisation(self):
        matrix = TfidfVectorizer(norm="l1").fit_transform(DOCS)
        sums = np.asarray(np.abs(matrix).sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_no_normalisation(self):
        matrix = TfidfVectorizer(norm=None).fit_transform(DOCS)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        assert not np.allclose(norms, 1.0)

    def test_fit_transform_equals_fit_then_transform(self):
        a = TfidfVectorizer().fit_transform(DOCS).toarray()
        vectorizer = TfidfVectorizer().fit(DOCS)
        b = vectorizer.transform(DOCS).toarray()
        assert np.allclose(a, b)

    def test_sublinear_tf_damps_repeats(self):
        docs = ["add add add add onion", "add onion"]
        plain = TfidfVectorizer(norm=None).fit_transform(docs).toarray()
        sub = TfidfVectorizer(norm=None, sublinear_tf=True).fit_transform(docs).toarray()
        vectorizer = TfidfVectorizer(norm=None).fit(docs)
        add_column = vectorizer.vocabulary_["add"]
        assert sub[0, add_column] < plain[0, add_column]

    def test_returns_sparse(self):
        assert sparse.issparse(TfidfVectorizer().fit_transform(DOCS))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(DOCS)

    def test_invalid_norm_rejected(self):
        with pytest.raises(ValueError):
            TfidfVectorizer(norm="max")

    def test_empty_document_row_is_zero(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        matrix = vectorizer.transform(["zzz unknown terms"])
        assert matrix.nnz == 0

    @pytest.mark.parametrize("sublinear_tf", [False, True])
    def test_single_row_equals_its_row_of_a_batch(self, sublinear_tf):
        """A row's layout and bits do not depend on its batch partners."""
        docs = DOCS + [
            "wok soy_sauce add onion garlic rice noodle steam tomato add",
            "garlic garlic onion add add add rice tomato",
            "zzz unknown terms",
        ]
        vectorizer = TfidfVectorizer(sublinear_tf=sublinear_tf).fit(DOCS)
        batch = vectorizer.transform(docs)
        for row, doc in enumerate(docs):
            single = vectorizer.transform([doc])
            assert single.has_sorted_indices
            np.testing.assert_array_equal(single.indices, batch[row].indices)
            np.testing.assert_array_equal(single.data, batch[row].data)


class TestDownweighting:
    def test_high_frequency_terms_downweighted(self):
        """The paper's stated reason for TF-IDF: damp 'add'-like features."""
        vectorizer = TfidfVectorizer()
        matrix = vectorizer.fit_transform(DOCS).toarray()
        vocab = vectorizer.vocabulary_
        # In document 0 both "add" and "garlic" occur once; garlic (rare) must
        # carry more weight than add (ubiquitous).
        assert matrix[0, vocab["garlic"]] > matrix[0, vocab["add"]]
