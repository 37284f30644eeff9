"""Tests for state-dict round-trips and strict-mismatch behaviour.

Model bundles persist a network through ``Module.state_dict`` and restore it
with ``Module.load_state_dict`` (see ``repro.models.artifacts``), so these are
the load-time guarantees every saved neural model relies on.
"""

import numpy as np
import pytest

from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module


class _Classifier(Module):
    """A small two-layer network with a configurable hidden size."""

    def __init__(self, hidden: int = 8, with_head: bool = True, seed: int = 0) -> None:
        super().__init__()
        self.embedding = Embedding(12, hidden, seed=seed)
        self.projection = Linear(hidden, hidden, seed=seed + 1)
        if with_head:
            self.head = Linear(hidden, 3, seed=seed + 2)


def _snapshot(model: Module) -> dict[str, np.ndarray]:
    return {name: parameter.data.copy() for name, parameter in model.named_parameters()}


class TestRoundTrip:
    def test_save_load_is_exact(self):
        source = _Classifier(seed=3)
        state = source.state_dict()

        target = _Classifier(seed=9)
        target.load_state_dict(state)
        source_params = dict(source.named_parameters())
        for name, parameter in target.named_parameters():
            np.testing.assert_array_equal(parameter.data, source_params[name].data)
        # The loaded parameters are copies: mutating the state leaves the model alone.
        state["head.weight"] += 1.0
        np.testing.assert_array_equal(target.head.weight.data, source.head.weight.data)


class TestConfigMismatch:
    def test_shape_mismatch_fails_loudly_without_corrupting_weights(self):
        """A state saved under one config loaded under another must not
        partially overwrite weights: the error lists every mismatched shape
        and the target model is left untouched."""
        state = _Classifier(hidden=8).state_dict()
        target = _Classifier(hidden=6)
        before = _snapshot(target)

        with pytest.raises(ValueError, match="no parameters were modified") as excinfo:
            target.load_state_dict(state)
        # Every mismatched parameter is named with both shapes.
        assert "embedding" in str(excinfo.value)
        assert "(12, 8)" in str(excinfo.value) and "(12, 6)" in str(excinfo.value)

        after = _snapshot(target)
        assert set(before) == set(after)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_strict_key_mismatch_lists_missing_and_unexpected(self):
        state = _Classifier(with_head=True).state_dict()
        target = _Classifier(with_head=False)
        before = _snapshot(target)
        with pytest.raises(ValueError) as excinfo:
            target.load_state_dict(state)
        message = str(excinfo.value)
        assert "head.weight" in message and "head.bias" in message
        assert "unexpected" in message and "missing keys none" in message
        for name, parameter in target.named_parameters():
            np.testing.assert_array_equal(parameter.data, before[name])

    def test_non_strict_loads_intersection(self):
        source = _Classifier(with_head=True, seed=5)
        target = _Classifier(with_head=False, seed=8)
        target.load_state_dict(source.state_dict(), strict=False)
        source_params = dict(source.named_parameters())
        for name, parameter in target.named_parameters():
            np.testing.assert_array_equal(parameter.data, source_params[name].data)

    def test_non_strict_still_validates_shapes(self):
        state = _Classifier(hidden=8).state_dict()
        target = _Classifier(hidden=6)
        with pytest.raises(ValueError, match="shape mismatch"):
            target.load_state_dict(state, strict=False)
