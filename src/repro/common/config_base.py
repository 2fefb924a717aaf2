"""Keyword-only configuration dataclasses.

Every public config object (:class:`~repro.core.config.LSMConfig`,
:class:`~repro.service.config.ServiceConfig`,
:class:`~repro.faults.config.FaultConfig`, ...) is keyword-only: positional
construction couples callers to field *order*, which the design-space sweep
code mutates freely. Python 3.9 has no ``dataclass(kw_only=True)``, so this
decorator wraps the generated ``__init__``.
"""

from __future__ import annotations

import functools


def kwonly_dataclass(cls):
    """Make a dataclass keyword-only (a positional argument is a TypeError).

    Apply *below* ``@dataclass`` (i.e. to the finished dataclass). The
    class's ``__post_init__`` validation still runs exactly once.
    """
    original_init = cls.__init__

    @functools.wraps(original_init)
    def __init__(self, **kwargs):
        original_init(self, **kwargs)

    cls.__init__ = __init__
    return cls
