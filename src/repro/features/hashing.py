"""Feature hashing vectorizer.

A stateless alternative to :class:`~repro.features.counts.CountVectorizer`
that maps tokens into a fixed number of buckets with a signed hash.  Useful
for memory-bounded experiments at full RecipeDB scale where the 20k-term
vocabulary plus n-grams would be expensive to materialize.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.features.counts import ngram_features


def _stable_hash(term: str) -> int:
    """Deterministic 64-bit hash of *term* (Python's ``hash`` is salted per run)."""
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class HashingVectorizer:
    """Convert documents to a fixed-width sparse matrix using the hashing trick."""

    def __init__(
        self,
        n_features: int = 4096,
        ngram_range: tuple[int, int] = (1, 1),
        alternate_sign: bool = True,
        binary: bool = False,
    ) -> None:
        if n_features < 1:
            raise ValueError("n_features must be positive")
        if ngram_range[0] < 1 or ngram_range[1] < ngram_range[0]:
            raise ValueError(f"invalid ngram_range {ngram_range}")
        self.n_features = n_features
        self.ngram_range = ngram_range
        self.alternate_sign = alternate_sign
        self.binary = binary

    def transform(self, documents: Iterable[str | Sequence[str]]) -> sparse.csr_matrix:
        """Vectorize *documents*; no fitting is required."""
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for document in documents:
            row: dict[int, float] = {}
            for feature in ngram_features(document, self.ngram_range):
                h = _stable_hash(feature)
                bucket = h % self.n_features
                sign = 1.0
                if self.alternate_sign and (h >> 63) & 1:
                    sign = -1.0
                row[bucket] = row.get(bucket, 0.0) + sign
            for bucket, value in sorted(row.items()):
                if value == 0.0:
                    continue
                indices.append(bucket)
                data.append(np.sign(value) if self.binary else value)
            indptr.append(len(indices))
        return sparse.csr_matrix(
            (data, indices, indptr),
            shape=(len(indptr) - 1, self.n_features),
            dtype=np.float64,
        )

    # fit/fit_transform provided for interface parity with the other vectorizers.
    def fit(self, documents: Iterable[str | Sequence[str]]) -> "HashingVectorizer":
        """No-op; the hashing vectorizer is stateless."""
        return self

    def fit_transform(self, documents: Iterable[str | Sequence[str]]) -> sparse.csr_matrix:
        """Equivalent to :meth:`transform`."""
        return self.transform(documents)
