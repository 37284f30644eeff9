"""Tracing-overhead benchmarks (CI smoke subset).

Two properties the tracing tentpole promises are held here, measured with
the loadgen harness against a real in-thread server whose model service
time is pinned (an artificial per-pass sleep), so the comparison measures
the instrumentation, not scheduler noise:

* **Head-sampled tracing is cheap** — at a 1% sample rate, closed-loop p50
  latency stays within a few percent of the same server with tracing
  disabled entirely (the ``trace_sample=None`` path, where every request
  pays only an ``is None`` check).
* **Tail sampling is total** — with the head sampler effectively off
  (``trace_sample=0.0``), every slow request and every erroring request is
  still captured and retrievable from ``/debug/traces/<id>``.

The final test writes ``BENCH_trace.json`` at the repo root.
"""

from __future__ import annotations

import http.client
import json
import platform
import time
from pathlib import Path

import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.gateway import ModelGateway
from repro.loadgen import HTTPTarget, build_workload, run_closed_loop
from repro.server import ModelServer
from repro.serving import ModelBundle

MODEL = "logreg"
PINNED_SLEEP = 0.005  # seconds of artificial model service time per pass
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_trace.json"

RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def trace_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.006, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(trace_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 40}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=trace_corpus).run()
    return path


@pytest.fixture(scope="module")
def request_pool(trace_corpus):
    return [recipe.sequence for recipe in trace_corpus.recipes[:40]]


def _pinned_gateway(
    export_dir, sleep_s: float = PINNED_SLEEP
) -> tuple[ModelGateway, list[int]]:
    """A gateway whose model pays a fixed per-pass sleep (cache off, so
    every request does the pinned work), plus a one-element counter of the
    pinned passes that ran.

    The serving path of a TF-IDF model calls ``predict_proba_features``
    on precomputed features, so that is the pass the sleep is pinned to.
    """
    model = ModelBundle.load(export_dir / MODEL).model
    inner = model.predict_proba_features
    passes = [0]

    def pinned(features):
        passes[0] += 1
        time.sleep(sleep_s)
        return inner(features)

    model.predict_proba_features = pinned
    gateway = ModelGateway(cache_size=0)
    gateway.deploy("cuisine", "v1", model)
    return gateway, passes


def _closed_loop_p50(export_dir, request_pool, *, trace_sample) -> float:
    gateway, passes = _pinned_gateway(export_dir)
    server = ModelServer(gateway, max_inflight=64, trace_sample=trace_sample)
    handle = server.start_in_thread()
    try:
        target = HTTPTarget("127.0.0.1", handle.port, "cuisine")
        warm = build_workload(request_pool, n_requests=40, seed=7)
        run_closed_loop(target, warm, concurrency=2)
        workload = build_workload(
            request_pool, n_requests=160, seed=BENCH_SEED, n_keys=80
        )
        report = run_closed_loop(target, workload, concurrency=4)
        assert report.ok == 160 and report.errors == 0
        assert passes[0] > 0, "the pinned service time never ran"
        return report.latency["p50_ms"]
    finally:
        handle.stop()


@pytest.mark.quick
def test_perf_trace_overhead_at_one_percent_sampling(export_dir, request_pool):
    # A/B/A/B interleaving, best-of-two per config: absorbs one-off CI
    # hiccups while keeping both configs exposed to the same machine state.
    disabled, sampled = [], []
    for _ in range(2):
        disabled.append(_closed_loop_p50(export_dir, request_pool, trace_sample=None))
        sampled.append(_closed_loop_p50(export_dir, request_pool, trace_sample=0.01))
    base_ms, traced_ms = min(disabled), min(sampled)
    overhead_pct = 100.0 * (traced_ms - base_ms) / base_ms
    # The bar from the tracing design: sampled-out requests pay only an id
    # check, so p50 at 1% head sampling stays within 5% of tracing-off.
    assert overhead_pct <= 5.0, (
        f"1%-sampled p50 {traced_ms:.2f}ms vs disabled {base_ms:.2f}ms "
        f"({overhead_pct:+.1f}%) exceeds the 5% overhead budget"
    )
    RESULTS["overhead_1pct_head_sampling"] = {
        "pinned_service_time_ms": 1000.0 * PINNED_SLEEP,
        "p50_ms_disabled": base_ms,
        "p50_ms_sampled_1pct": traced_ms,
        "p50_runs_disabled": disabled,
        "p50_runs_sampled_1pct": sampled,
        "overhead_pct": overhead_pct,
        "budget_pct": 5.0,
    }


@pytest.mark.quick
def test_perf_tail_sampling_captures_slow_and_errors(export_dir, request_pool):
    # Head sampling off entirely; everything kept must come from the tail
    # verdicts. With a 1ms slow threshold against a 5ms pinned model, every
    # OK request is "slow" — all of them must be retrievable.
    gateway, passes = _pinned_gateway(export_dir)
    server = ModelServer(
        gateway,
        max_inflight=64,
        trace_sample=0.0,
        trace_slow_ms=1.0,
    )
    handle = server.start_in_thread()
    try:
        target = HTTPTarget("127.0.0.1", handle.port, "cuisine")
        workload = build_workload(request_pool, n_requests=30, seed=BENCH_SEED)
        report = run_closed_loop(target, workload, concurrency=2)
        assert report.ok == 30 and report.errors == 0
        assert passes[0] > 0, "the pinned service time never ran"
        assert len(report.slow_traces) == 5  # ids of the slowest requests

        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            connection.request("GET", "/debug/traces")
            stats = json.loads(connection.getresponse().read())["stats"]
            assert stats["kept_slow"] == 30, stats
            assert stats["kept_head"] == 0, stats
            # Every slow id the load report surfaced resolves to a stored
            # trace with the full span chain.
            for entry in report.slow_traces:
                connection.request("GET", f"/debug/traces/{entry['trace_id']}")
                response = connection.getresponse()
                trace = json.loads(response.read())
                assert response.status == 200
                assert trace["slow"] is True
                assert "service.predict" in [s["name"] for s in trace["spans"]]
            # An erroring request is captured too, sample rate regardless.
            connection.request(
                "POST",
                "/routes/missing/predict",
                body=json.dumps({"sequence": ["x"], "key": "oops"}),
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            error_id = dict(
                (k.lower(), v) for k, v in response.getheaders()
            )["x-repro-trace"]
            connection.request("GET", f"/debug/traces/{error_id}")
            response = connection.getresponse()
            trace = json.loads(response.read())
            assert response.status == 200 and trace["error"] is True
        finally:
            connection.close()
        RESULTS["tail_sampling_total_capture"] = {
            "head_sample": 0.0,
            "slow_ms_threshold": 1.0,
            "requests": 30,
            "kept_slow": stats["kept_slow"],
            "error_capture": True,
            "report": report.as_dict(),
        }
    finally:
        handle.stop()


@pytest.mark.quick
def test_emit_bench_trace_artifact():
    artifact = {
        "benchmark": "trace",
        "seed": BENCH_SEED,
        "corpus_scale": 0.006,
        "model": MODEL,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "results": RESULTS,
    }
    BENCH_ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert BENCH_ARTIFACT.exists()
    emitted = json.loads(BENCH_ARTIFACT.read_text())
    assert "overhead_1pct_head_sampling" in emitted["results"]
