"""Back-end registry extensibility and streaming suite writing."""

import io

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model
from repro.testback import BACKENDS, SuiteWriter, get_backend


def _some_tests(n=3):
    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1, max_tests=n))
    return list(gen.iter_tests())


# ---------------------------------------------------------------------------
# BACKENDS.register
# ---------------------------------------------------------------------------

class _CountBackend:
    name = "count"
    SUITE_SEPARATOR = "\n"
    SUITE_SUFFIX = "\n"

    def render_test(self, test):
        return f"test {test.test_id}"

    def render_suite(self, tests):
        return "\n".join(self.render_test(t) for t in tests) + "\n"


def test_register_backend_round_trip():
    BACKENDS.register("count", _CountBackend)
    try:
        backend = get_backend("count")
        assert backend.render_suite(_some_tests(2)) == "test 1\ntest 2\n"
    finally:
        del BACKENDS["count"]


def test_unknown_backend_error_lists_registered_names():
    with pytest.raises(KeyError) as exc:
        get_backend("nonesuch")
    message = str(exc.value)
    for name in ("stf", "ptf", "protobuf"):
        assert name in message


def test_register_backend_validates():
    with pytest.raises(ValueError):
        BACKENDS.register("", _CountBackend)

    class Incomplete:
        def render_suite(self, tests):
            return ""

    with pytest.raises(TypeError, match="render_test"):
        BACKENDS.register("broken", Incomplete)
    assert "broken" not in BACKENDS


def test_registered_backend_reaches_result_emit():
    BACKENDS.register("count", _CountBackend)
    try:
        gen = TestGen(load_program("fig1a"), target=V1Model(),
                      config=TestGenConfig(seed=1, max_tests=2))
        assert gen.run().emit("count") == "test 1\ntest 2\n"
    finally:
        del BACKENDS["count"]


# ---------------------------------------------------------------------------
# SuiteWriter streaming == render_suite buffering
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["stf", "ptf", "protobuf"])
def test_streaming_matches_render_suite(name):
    tests = _some_tests(3)
    backend = get_backend(name)
    buf = io.StringIO()
    writer = SuiteWriter(backend, buf)
    for test in tests:
        writer.write(test)
    writer.close()
    assert buf.getvalue() == backend.render_suite(tests)
    assert writer.count == len(tests)


@pytest.mark.parametrize("name", ["stf", "ptf", "protobuf"])
def test_streaming_matches_render_suite_empty(name):
    backend = get_backend(name)
    buf = io.StringIO()
    SuiteWriter(backend, buf).close()
    assert buf.getvalue() == backend.render_suite([])
