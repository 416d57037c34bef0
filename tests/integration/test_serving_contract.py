"""Reply contract across the three serving tiers.

A finite but extreme record (every feature ``1e308``) overflows the
scaler of a credit artifact.  Every verb must answer the same typed 422
that names the overflowing stage — never a 200 carrying bare ``NaN``
(invalid JSON) nor a 400 blaming the (finite) input — and the status
and body bytes must be identical through in-process :func:`dispatch`,
HTTP ``workers=1`` and HTTP ``workers=2``.
"""

import http.client
import json

import pytest

from repro.data import generate_credit
from repro.serving import fit_serving_pipeline, save_artifact
from repro.serving.artifacts import load_artifact
from repro.serving.engine import InferenceEngine
from repro.serving.service import (
    RequestError,
    dispatch,
    error_payload,
    reply_bytes,
    serve_artifact,
)
from repro.utils.shm import leaked_segments

VERBS = ("/v1/transform", "/v1/score", "/v1/rank", "/v1/decide")


def _strict_json(data: bytes):
    def refuse(token):
        raise AssertionError(f"reply carries non-JSON constant {token}")

    return json.loads(data.decode("utf-8"), parse_constant=refuse)


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    artifact = fit_serving_pipeline(
        generate_credit(200, random_state=5),
        n_prototypes=4,
        max_iter=20,
        random_state=5,
    )
    return save_artifact(str(tmp_path_factory.mktemp("contract") / "credit"), artifact)


@pytest.fixture(scope="module")
def n_features(artifact_dir):
    return load_artifact(artifact_dir).n_features


def _in_process(artifact_dir):
    engine = InferenceEngine(load_artifact(artifact_dir))

    def post(path, payload):
        try:
            return reply_bytes(200, dispatch(engine, "POST", path, payload))
        except RequestError as exc:
            return reply_bytes(*error_payload(exc))

    return post, lambda: None


def _http(artifact_dir, workers):
    service = serve_artifact(artifact_dir, port=0, workers=workers).start()
    host, port = service.address

    def post(path, payload):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST", path, body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    return post, service.stop


@pytest.fixture(scope="module")
def tiers(artifact_dir):
    built = {
        "dispatch": _in_process(artifact_dir),
        "http-workers1": _http(artifact_dir, 1),
        "http-workers2": _http(artifact_dir, 2),
    }
    yield {name: post for name, (post, _) in built.items()}
    for _, stop in built.values():
        stop()
    assert leaked_segments() == []


@pytest.mark.parametrize("path", VERBS)
def test_overflowing_record_is_a_typed_422_on_every_tier(path, tiers, n_features):
    payload = {"records": [[1e308] * n_features], "groups": [0]}
    replies = {name: post(path, payload) for name, post in tiers.items()}
    status, body = replies["dispatch"]
    assert status == 422
    assert "scale stage" in _strict_json(body)["error"]
    for name, reply in replies.items():
        assert reply == (status, body), name


@pytest.mark.parametrize("path", VERBS[:3])
def test_finite_replies_stay_identical_and_strict(path, tiers, n_features):
    payload = {"records": [[0.5] * n_features, [1.0] * n_features]}
    replies = {name: post(path, payload) for name, post in tiers.items()}
    status, body = replies["dispatch"]
    assert status == 200
    _strict_json(body)
    for name, reply in replies.items():
        assert reply == (status, body), name


def test_unencodable_body_answers_a_valid_json_500():
    # Artifact metadata is free-form JSON read back from disk, where a
    # hand-edited manifest may carry NaN; such a body must still reach
    # the wire as valid JSON.
    status, data = reply_bytes(200, {"metadata": {"auc": float("nan")}})
    assert status == 500
    assert "not representable" in _strict_json(data)["error"]
