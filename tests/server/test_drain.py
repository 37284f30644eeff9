"""Graceful-drain semantics: stop accepting, finish in-flight, close down.

The serving frontier's shutdown contract mirrors the prediction service's:
work that was accepted is completed (a 200 with a real prediction), work
that arrives after the drain began is refused at the socket, and the
underlying gateway/service are only torn down once the last in-flight
request has been answered.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.gateway import ModelGateway
from repro.serving import ModelBundle
from repro.server import ModelServer
from tests.server.conftest import ServerClient, make_gateway


def _slow_gateway(export_dir, delay: float) -> tuple[ModelGateway, list[int]]:
    """A gateway whose model sleeps *delay* seconds per prediction pass, plus
    a one-element counter of the slowed passes that ran.

    The TF-IDF serving path runs ``predict_proba_features`` on precomputed
    features, so that is the pass the sleep is pinned to.
    """
    model = ModelBundle.load(export_dir / "logreg").model
    inner = model.predict_proba_features
    passes = [0]

    def sleepy(features):
        passes[0] += 1
        time.sleep(delay)
        return inner(features)

    model.predict_proba_features = sleepy
    gateway = ModelGateway(cache_size=0)
    gateway.deploy("cuisine", "v1", model)
    return gateway, passes


def test_inflight_requests_finish_during_drain(server_export_dir, server_sequences):
    gateway, passes = _slow_gateway(server_export_dir, delay=0.3)
    server = ModelServer(gateway, max_inflight=16)
    handle = server.start_in_thread()
    # Warm featurization so the in-flight window is dominated by the sleep.
    warm = ServerClient(handle.port)
    assert warm.request(
        "POST", "/routes/cuisine/predict", {"sequence": list(server_sequences[0])}
    )[0] == 200
    warm.close()
    assert passes[0] == 1, "the pinned service time never ran"

    results: list[tuple[int, dict]] = []
    errors: list[BaseException] = []

    def fire(index: int) -> None:
        test_client = ServerClient(handle.port)
        try:
            results.append(
                test_client.request(
                    "POST", "/routes/cuisine/predict",
                    {"sequence": list(server_sequences[index + 1])},
                )
            )
        except BaseException as exc:
            errors.append(exc)
        finally:
            test_client.close()

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.1)  # let every request reach the server (model sleeps 0.3s)
    handle.stop(timeout=60.0)
    for thread in threads:
        thread.join(timeout=60.0)

    assert not errors, errors
    assert len(results) == 4
    assert all(status == 200 for status, _ in results)
    assert all("label" in payload for _, payload in results)
    assert passes[0] >= 2  # the in-flight requests really paid the sleep
    # The drain closed the gateway and, transitively, the owned service.
    with pytest.raises(RuntimeError):
        gateway.service.predict_proba("cuisine@v1", list(server_sequences[0]))


def test_new_connections_refused_after_drain(server_export_dir, server_sequences):
    server = ModelServer(make_gateway(server_export_dir))
    handle = server.start_in_thread()
    test_client = ServerClient(handle.port)
    assert test_client.request("GET", "/healthz")[0] == 200
    test_client.close()
    handle.stop()

    with pytest.raises(OSError):
        with socket.create_connection(("127.0.0.1", handle.port), timeout=5):
            pass


def test_idle_keepalive_connection_closed_on_drain(server_export_dir):
    server = ModelServer(make_gateway(server_export_dir))
    handle = server.start_in_thread()
    connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
    connection.request("GET", "/healthz")
    response = connection.getresponse()
    assert response.status == 200  # keep-alive: socket stays open
    assert json.loads(response.read())["status"] == "ok"

    handle.stop()
    # The parked connection was woken with EOF, not left hanging: the next
    # request on it fails fast instead of timing out.
    with pytest.raises((ConnectionError, http.client.HTTPException, OSError)):
        connection.request("GET", "/healthz")
        connection.getresponse()
    connection.close()


def test_unowned_gateway_survives_drain(server_export_dir, server_sequences):
    gateway = make_gateway(server_export_dir)
    server = ModelServer(gateway, owns_gateway=False)
    handle = server.start_in_thread()
    test_client = ServerClient(handle.port)
    assert test_client.request(
        "POST", "/routes/cuisine/predict", {"sequence": list(server_sequences[0])}
    )[0] == 200
    test_client.close()
    handle.stop()

    # The server is gone but the gateway (and its service) keep serving.
    assert gateway.predict("cuisine", server_sequences[0])
    gateway.close()


def test_gateway_owns_service_flag_controls_teardown(server_export_dir, server_sequences):
    # owns_service=False: a privately-created service outlives the gateway.
    gateway = ModelGateway(owns_service=False)
    gateway.deploy("cuisine", "v1", server_export_dir / "logreg")
    service = gateway.service
    gateway.close()
    assert service.predict_proba("cuisine@v1", list(server_sequences[0])) is not None
    service.close()

    # owns_service=True over an injected registry: the drain is terminal.
    from repro.gateway import DeploymentRegistry

    registry = DeploymentRegistry()
    registry.deploy("cuisine", "v1", str(server_export_dir / "logreg"))
    owning = ModelGateway(registry=registry, owns_service=True)
    owning.close()
    with pytest.raises(RuntimeError):
        registry.service.predict_proba("cuisine@v1", list(server_sequences[0]))
