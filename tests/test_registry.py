"""Unit tests for the shared plugin registry (repro.registry).

Both plugin surfaces — test back ends and simulators — are instances
of one :class:`Registry`; these tests pin the shared behavior
(validated registration, duplicate protection, did-you-mean lookup
errors, dict compatibility).
"""

import pytest

from repro.registry import (
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
)


def _factory():
    return "made"


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def test_register_and_lookup_round_trip():
    reg = Registry("widget")
    reg.register("alpha", _factory)
    assert reg.get("alpha") is _factory
    assert reg.create("alpha") == "made"
    assert reg.names() == ["alpha"]


def test_duplicate_registration_rejected_without_replace():
    reg = Registry("widget")
    reg.register("alpha", _factory)
    with pytest.raises(DuplicateNameError, match="already registered"):
        reg.register("alpha", _factory)
    reg.register("alpha", lambda: "new", replace=True)
    assert reg.create("alpha") == "new"


def test_duplicate_error_is_a_value_error():
    # Legacy callers wrapped registration in ``except ValueError``.
    reg = Registry("widget")
    reg.register("alpha", _factory)
    with pytest.raises(ValueError):
        reg.register("alpha", _factory)


def test_empty_or_non_string_names_rejected():
    reg = Registry("widget")
    with pytest.raises(ValueError, match="non-empty string"):
        reg.register("", _factory)
    with pytest.raises(ValueError, match="non-empty string"):
        reg.register(None, _factory)


def test_validator_rejects_before_insertion():
    def validator(name, factory):
        if not callable(factory):
            raise TypeError(f"{name!r} needs a callable")

    reg = Registry("widget", validator=validator)
    with pytest.raises(TypeError, match="needs a callable"):
        reg.register("bad", 42)
    assert "bad" not in reg


# ---------------------------------------------------------------------------
# Unknown-name errors
# ---------------------------------------------------------------------------

def test_unknown_name_lists_available_and_suggests():
    reg = Registry("widget")
    reg.register("native", _factory)
    reg.register("kissat", _factory)
    with pytest.raises(UnknownNameError) as exc:
        reg.get("natiev")
    message = str(exc.value)
    assert "native" in message and "kissat" in message
    assert "did you mean 'native'" in message


def test_unknown_name_is_a_key_error():
    reg = Registry("widget")
    with pytest.raises(KeyError):
        reg.get("nothing")
    with pytest.raises(RegistryError):
        reg["nothing"]


def test_get_with_default_does_not_raise():
    reg = Registry("widget")
    assert reg.get("nothing", None) is None
    sentinel = object()
    assert reg.get("nothing", sentinel) is sentinel


# ---------------------------------------------------------------------------
# Mapping compatibility (legacy dict-style use)
# ---------------------------------------------------------------------------

def test_mapping_protocol_matches_dict_usage():
    reg = Registry("widget")
    reg.register("b", _factory)
    reg.register("a", _factory)
    assert sorted(reg) == ["a", "b"]
    assert "a" in reg and "zzz" not in reg
    assert len(reg) == 2
    reg["c"] = _factory          # __setitem__ replaces silently
    reg["c"] = _factory
    del reg["c"]
    assert reg.pop("zzz", None) is None
    with pytest.raises(KeyError):
        del reg["zzz"]


# ---------------------------------------------------------------------------
# The real registries share the implementation
# ---------------------------------------------------------------------------

def test_plugin_registries_are_registry_instances():
    from repro.testback import BACKENDS
    from repro.testback.runner import SIMULATORS

    for reg in (BACKENDS, SIMULATORS):
        assert isinstance(reg, Registry)
