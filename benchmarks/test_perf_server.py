"""Serving-frontier performance benchmarks (CI smoke subset).

Two load-bearing properties of the HTTP layer are held here, both measured
with the :mod:`repro.loadgen` harness against a real in-thread server:

* **Admission control keeps tail latency bounded under overload** — when
  the offered open-loop rate far exceeds a deliberately slow model's
  capacity, excess requests are shed with fast 429s instead of queueing,
  so the p99 of *served* requests stays within a small multiple of the
  model's own service time (an unbounded queue would grow it with the
  backlog).
* **Closed-loop parallel clients beat a sequential client** — the asyncio
  connection handling plus the prediction service's micro-batching must
  turn client concurrency into real throughput.

The final test writes ``BENCH_server.json`` at the repo root — the first
artifact of the perf trajectory, regenerated by every quick benchmark run.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.gateway import ModelGateway
from repro.loadgen import HTTPTarget, build_workload, run_closed_loop, run_open_loop
from repro.serving import ModelBundle
from repro.server import ModelServer

MODEL = "logreg"
SLOW_MODEL_SLEEP = 0.02  # artificial service time per model pass (seconds)
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: Reports accumulated by the tests and emitted as BENCH_server.json.
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def server_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.006, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(server_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("server-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 40}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=server_corpus).run()
    return path


@pytest.fixture(scope="module")
def request_pool(server_corpus):
    return [recipe.sequence for recipe in server_corpus.recipes[:40]]


def _served(gateway: ModelGateway, **kwargs):
    server = ModelServer(gateway, **kwargs)
    return server, server.start_in_thread()


@pytest.mark.quick
def test_perf_admission_shedding_bounds_p99(export_dir, request_pool):
    # A model that takes SLOW_MODEL_SLEEP per pass, result cache off: the
    # server's capacity is genuinely bounded by model service time.
    # The TF-IDF serving path runs ``predict_proba_features`` on
    # precomputed features, so that is the pass the sleep is pinned to.
    model = ModelBundle.load(export_dir / MODEL).model
    inner = model.predict_proba_features
    passes = [0]

    def sleepy(features):
        passes[0] += 1
        time.sleep(SLOW_MODEL_SLEEP)
        return inner(features)

    model.predict_proba_features = sleepy
    gateway = ModelGateway(cache_size=0)
    gateway.deploy("cuisine", "v1", model)

    max_inflight = 4
    server, handle = _served(gateway, max_inflight=max_inflight)
    try:
        # Warm featurization so overload measures serving, not preprocessing.
        warm = build_workload(request_pool, n_requests=len(request_pool), seed=1)
        run_closed_loop(HTTPTarget("127.0.0.1", handle.port, "cuisine"), warm, concurrency=2)

        # Offered load far beyond capacity (~max_inflight batched passes of
        # 20ms each): without shedding the queue — and the p99 — would grow
        # with the backlog.
        workload = build_workload(
            request_pool, n_requests=240, seed=BENCH_SEED, rate=600.0
        )
        report = run_open_loop(HTTPTarget("127.0.0.1", handle.port, "cuisine"), workload)

        assert report.ok + report.shed + report.errors == 240
        assert report.errors == 0
        assert passes[0] > 0, "the pinned service time never ran"
        assert report.shed > 0, "overload never tripped admission control"
        assert report.ok > 0, "admission control shed everything"
        # Served requests keep a bounded tail: a small multiple of the
        # artificial service time, not the length of the backlog.
        bound_ms = 1000.0 * SLOW_MODEL_SLEEP * 25
        assert report.latency["p99_ms"] < bound_ms, (
            f"p99 {report.latency['p99_ms']:.1f}ms exceeds {bound_ms:.0f}ms under overload"
        )
        RESULTS["open_loop_overload"] = {
            "max_inflight": max_inflight,
            "model_sleep_ms": 1000.0 * SLOW_MODEL_SLEEP,
            "p99_bound_ms": bound_ms,
            "report": report.as_dict(),
        }
    finally:
        handle.stop()


@pytest.mark.quick
def test_perf_closed_loop_beats_sequential(export_dir, request_pool):
    gateway = ModelGateway(cache_size=0)  # every request does real model work
    gateway.deploy("cuisine", "v1", export_dir / MODEL)
    server, handle = _served(gateway, max_inflight=64)
    try:
        target = HTTPTarget("127.0.0.1", handle.port, "cuisine")
        warm = build_workload(request_pool, n_requests=len(request_pool), seed=2)
        run_closed_loop(target, warm, concurrency=2)

        workload = build_workload(request_pool, n_requests=200, seed=BENCH_SEED)
        sequential = run_closed_loop(target, workload, concurrency=1)
        parallel = run_closed_loop(target, workload, concurrency=8)

        assert sequential.ok == parallel.ok == 200
        assert sequential.errors == parallel.errors == 0
        speedup = parallel.throughput_rps / sequential.throughput_rps
        # Concurrent connections + micro-batching must beat one synchronous
        # client; demand a conservative margin to stay robust on busy CI.
        assert speedup >= 1.1, (
            f"closed-loop x8 only reached {speedup:.2f}x of a sequential client "
            f"({parallel.throughput_rps:.0f} vs {sequential.throughput_rps:.0f} rps)"
        )
        RESULTS["closed_loop_scaling"] = {
            "sequential": sequential.as_dict(),
            "parallel_x8": parallel.as_dict(),
            "speedup": speedup,
        }
    finally:
        handle.stop()


@pytest.mark.quick
def test_emit_bench_server_artifact(export_dir, request_pool):
    """Write BENCH_server.json — the quick-run perf trajectory artifact."""
    # A small steady-state HTTP run of its own, so the artifact carries a
    # baseline even when the other benchmarks are filtered out.
    gateway = ModelGateway()
    gateway.deploy("cuisine", "v1", export_dir / MODEL)
    server, handle = _served(gateway, max_inflight=64)
    try:
        target = HTTPTarget("127.0.0.1", handle.port, "cuisine")
        warm = build_workload(request_pool, n_requests=len(request_pool), seed=3)
        run_closed_loop(target, warm, concurrency=2)
        workload = build_workload(
            request_pool, n_requests=150, seed=BENCH_SEED, rate=300.0,
            key_distribution="zipf", n_keys=50,
        )
        steady = run_open_loop(target, workload)
        assert steady.ok == 150 and steady.errors == 0
        RESULTS["open_loop_steady_state"] = {"report": steady.as_dict()}
    finally:
        handle.stop()

    artifact = {
        "benchmark": "server",
        "seed": BENCH_SEED,
        "corpus_scale": 0.006,
        "model": MODEL,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "results": RESULTS,
    }
    BENCH_ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert BENCH_ARTIFACT.exists()
    assert "open_loop_steady_state" in json.loads(BENCH_ARTIFACT.read_text())["results"]
