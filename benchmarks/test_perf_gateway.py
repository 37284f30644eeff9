"""Gateway performance benchmarks (CI smoke subset).

Two properties of the deployment gateway's hot path are held here:

* **Shadow traffic is free for the caller** — mirroring every request to a
  deliberately slow candidate must not add blocking latency to the primary
  response path (the mirrors run on the gateway's background executor).
* **Routing overhead is negligible** — a hash-split gateway predict on a
  warmed service costs at most a small constant on top of calling the
  underlying :class:`~repro.serving.PredictionService` directly.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.data.splits import train_val_test_split
from repro.gateway import ABSplit, ModelGateway, Shadow
from repro.serving import ModelBundle

MODEL = "logreg"
SHADOW_SLEEP = 0.05  # seconds of artificial slowness per shadow prediction


@pytest.fixture(scope="module")
def gateway_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.006, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(gateway_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("gateway-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 40}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=gateway_corpus).run()
    return path


@pytest.fixture(scope="module")
def request_sequences(gateway_corpus):
    splits = train_val_test_split(gateway_corpus, seed=BENCH_SEED)
    return [recipe.sequence for recipe in splits.test][:40]


def _slow_bundle_model(export_dir):
    """The bundled model with an artificial sleep on every prediction, plus
    a one-element counter of the slowed passes that ran.

    The TF-IDF serving path runs ``predict_proba_features`` on precomputed
    features, so that is the pass the sleep is pinned to.
    """
    slow = ModelBundle.load(export_dir / MODEL).model
    inner = slow.predict_proba_features
    passes = [0]

    def sleepy(features):
        passes[0] += 1
        time.sleep(SHADOW_SLEEP)
        return inner(features)

    slow.predict_proba_features = sleepy
    return slow, passes


@pytest.mark.quick
def test_perf_shadow_traffic_adds_no_blocking_latency(export_dir, request_sequences):
    requests = request_sequences[:12]
    with ModelGateway(cache_size=0) as gateway:
        gateway.deploy("cuisine", "v1", export_dir / MODEL)
        slow, slow_passes = _slow_bundle_model(export_dir)
        gateway.deploy("cuisine", "v2", slow, activate=False)
        gateway.predict("cuisine", requests[0])  # warm featurization + worker

        gateway.set_policy("cuisine", Shadow(candidate="v2"))
        start = time.perf_counter()
        for sequence in requests:
            gateway.predict_proba("cuisine", sequence)
        primary_seconds = time.perf_counter() - start

        # Every request was mirrored to a candidate that sleeps SHADOW_SLEEP
        # per prediction; had the mirrors blocked the callers, the primary
        # path would have taken at least len(requests) * SHADOW_SLEEP.
        blocking_floor = len(requests) * SHADOW_SLEEP
        assert primary_seconds < 0.5 * blocking_floor

        gateway.flush_shadows(timeout=60.0)
        shadow = gateway.registry.metrics("cuisine").snapshot()["shadow"]
        assert shadow["requests"] == len(requests)  # the mirrors really ran
        assert slow_passes[0] > 0, "the candidate's sleep never ran"
        assert shadow["errors"] == 0


@pytest.mark.quick
def test_perf_hash_split_overhead_negligible(export_dir, request_sequences):
    with ModelGateway() as gateway:
        gateway.deploy("cuisine", "v1", export_dir / MODEL)
        gateway.deploy("cuisine", "v2", export_dir / MODEL, activate=False)
        gateway.set_policy("cuisine", ABSplit(variants={"v1": 0.5, "v2": 0.5}))

        # Warm both paths: after this pass every request is a result-cache
        # hit, so the measurement isolates routing overhead, not model work.
        for sequence in request_sequences:
            gateway.predict_proba("cuisine", sequence)
        direct_names = [
            gateway.service.model_names()[0] for _ in request_sequences
        ]
        for name, sequence in zip(direct_names, request_sequences):
            gateway.service.predict_proba(name, sequence)

        repeats = 10
        start = time.perf_counter()
        for _ in range(repeats):
            for name, sequence in zip(direct_names, request_sequences):
                gateway.service.predict_proba(name, sequence)
        direct_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(repeats):
            for sequence in request_sequences:
                gateway.predict_proba("cuisine", sequence)
        gateway_seconds = time.perf_counter() - start

        n_requests = repeats * len(request_sequences)
        overhead_ms = 1000.0 * (gateway_seconds - direct_seconds) / n_requests
        # Policy hashing + routing + metrics must cost well under a
        # millisecond per request on a cache-hit path.
        assert overhead_ms < 1.0, f"gateway overhead {overhead_ms:.3f} ms/request"
