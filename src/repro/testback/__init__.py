"""Test back ends: abstract specs and renderers (STF, PTF, Protobuf),
plus a runner that executes specs against the concrete interpreters.

The registry is open: ``BACKENDS.register(name, cls)`` (a
:class:`repro.registry.Registry`, shared machinery with simulators)
adds a custom renderer class under a name, after
which ``get_backend(name)``, the CLI ``--test-backend`` flag, and
``TestGenResult.emit(name)`` all accept it.  A back end must provide
``name``, ``render_test(test)`` and ``render_suite(tests)``; back ends
that also declare the suite-shape attributes (``SUITE_SEPARATOR``,
``SUITE_SUFFIX``, optionally ``suite_prefix()``) can be streamed
incrementally via :class:`SuiteWriter`.
"""

from ..registry import Registry
from .protobuf import ProtobufBackend
from .ptf import PtfBackend
from .spec import (
    AbstractTestCase,
    ExpectedPacket,
    PacketData,
    RegisterSpec,
    TableEntrySpec,
    ValueSetSpec,
)
from .stf import StfBackend

__all__ = [
    "AbstractTestCase", "PacketData", "ExpectedPacket", "TableEntrySpec",
    "ValueSetSpec", "RegisterSpec", "StfBackend", "PtfBackend",
    "ProtobufBackend", "SuiteWriter", "get_backend", "BACKENDS",
]


def _validate_backend(name: str, cls) -> None:
    for attr in ("render_test", "render_suite"):
        if not callable(getattr(cls, attr, None)):
            raise TypeError(
                f"back end {name!r} must define a callable {attr}; got {cls!r}"
            )


#: name -> renderer class, instantiated with no arguments.
BACKENDS = Registry("test backend", validator=_validate_backend)
BACKENDS.register("stf", StfBackend)
BACKENDS.register("ptf", PtfBackend)
BACKENDS.register("protobuf", ProtobufBackend)


def get_backend(name: str):
    """Instantiate the renderer registered under ``name``."""
    return BACKENDS.create(name)


class SuiteWriter:
    """Write a suite to a stream one test at a time, producing bytes
    identical to ``backend.render_suite(tests)``.

    ::

        writer = SuiteWriter(get_backend("stf"), fh)
        for test in gen.iter_tests():
            writer.write(test)
        writer.close()
    """

    def __init__(self, backend, stream):
        self.backend = backend
        self.stream = stream
        self.count = 0
        self._opened = False

    def _open(self) -> None:
        prefix = getattr(self.backend, "suite_prefix", None)
        if callable(prefix):
            self.stream.write(prefix())
        self._opened = True

    def write(self, test) -> None:
        if not self._opened:
            self._open()
        if self.count:
            self.stream.write(getattr(self.backend, "SUITE_SEPARATOR", "\n\n"))
        self.stream.write(self.backend.render_test(test))
        self.count += 1

    def close(self) -> None:
        """Write the suite suffix.  Does not close the stream."""
        if not self._opened:
            self._open()
        self.stream.write(getattr(self.backend, "SUITE_SUFFIX", "\n"))
