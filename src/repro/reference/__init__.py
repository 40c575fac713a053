"""Serial reference implementations and small hand-checkable graphs,
used for validation."""

from . import graphs, serial

__all__ = ["graphs", "serial"]
