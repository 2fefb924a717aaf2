"""FaultConfig: every knob of the fault model, keyword-only and validated.

One object describes both *what goes wrong* (bit rot, transient read errors,
torn multi-block writes, crashes at named engine boundaries) and *how the
hardened read path responds* (retry budget, backoff shape, quarantine
threshold). Determinism is a feature: the same seed and workload reproduce
the same fault sequence, which is what lets the crash-matrix CI job replay a
failing seed locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Dict

from repro.common.config_base import (
    NON_NEGATIVE, UNIT_INTERVAL, at_least, check_fields, kwonly_dataclass,
)
from repro.errors import ConfigError

#: Named engine boundaries the injector can crash at. The engine calls
#: ``device.crash_hook(name)`` at each; ``device_append`` is special — it is
#: a countdown on raw block appends, so it lands mid-flush, mid-WAL-frame, or
#: mid-manifest write (the torn-write cases).
CRASH_POINTS = (
    "wal_sync",
    "wal_roll",
    "flush_build",
    "flush_install",
    "wal_retire",
    "compaction_install",
    "manifest_install",
    "device_append",
)


@kwonly_dataclass
@dataclass
class FaultConfig:
    """The fault model for a :class:`~repro.faults.FaultyBlockDevice`.

    Attributes:
        seed: base seed for the injector's private RNG; identical seeds and
            call sequences reproduce identical faults.
        read_error_prob: per-block-read probability of raising a
            :class:`~repro.errors.TransientIOError` (retry fixes it).
        bit_rot_prob: per-block-write probability that the stored block is
            silently corrupted in place (persists; only checksums notice).
        torn_write_prob: when a crash fires during a multi-block payload
            append, probability the payload is torn (a strict prefix of its
            blocks lands) rather than cleanly dropped.
        crash_points: mapping ``point name -> countdown``; the Nth time the
            engine passes that boundary the device raises
            :class:`~repro.errors.SimulatedCrashError`. See
            :data:`CRASH_POINTS` for the vocabulary; ``device_append``
            counts raw block appends instead of boundary passes.
        max_read_retries: transient-read retries before the error propagates.
        backoff_base: simulated-time charge of the first retry backoff;
            doubles per retry (capped), charged to the device clock.
        backoff_cap: ceiling on a single retry's backoff charge.
        quarantine_after: consecutive failed re-reads of a corrupt block
            before its whole file is quarantined (reads of a quarantined
            file fail fast with a typed error, never a wrong answer).
    """

    seed: int = 0
    read_error_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    bit_rot_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    torn_write_prob: Annotated[float, UNIT_INTERVAL] = 0.5
    crash_points: Annotated[Dict[str, int], at_least(1)] = field(default_factory=dict)
    max_read_retries: Annotated[int, NON_NEGATIVE] = 4
    backoff_base: Annotated[float, NON_NEGATIVE] = 1.0
    backoff_cap: float = 32.0
    quarantine_after: Annotated[int, at_least(1)] = 2

    def validate(self) -> None:
        """Check every field, the crash-point names and the backoff order;
        raises ConfigError (never a deep ValueError)."""
        check_fields(self)
        for name in self.crash_points:
            if name not in CRASH_POINTS:
                raise ConfigError(
                    f"unknown crash point {name!r}; valid: {', '.join(CRASH_POINTS)}"
                )
        if self.backoff_cap < self.backoff_base:
            raise ConfigError("backoff_cap must be >= backoff_base")
