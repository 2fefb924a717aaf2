"""NetworkFaultConfig: every knob of the network fault model.

The wire analogue of :class:`repro.faults.FaultConfig`: one keyword-only,
validated object describes what the network does to a connection —
connection resets, frames cut mid-send or mid-reply, duplicated delivery,
added latency — plus *named network crash points* that fire
deterministically on a countdown, mirroring the storage injector's
``crash_points``. Determinism is the point: the same seed and call
sequence reproduce the same fault schedule, so the chaos-matrix CI job can
replay any failing cycle locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Dict

from repro.common.config_base import (
    NON_NEGATIVE, UNIT_INTERVAL, at_least, check_fields, kwonly_dataclass,
)
from repro.errors import ConfigError

#: Named connection boundaries the injector can kill at. Each is a
#: countdown over that boundary's crossings on one transport (all wrapped
#: sockets share the countdowns, like storage crash points share the
#: device's), consumed when it fires:
#:
#: * ``connect`` — the dial itself fails (wrap-time reset).
#: * ``before_send`` — the connection dies before any request byte leaves.
#: * ``mid_send`` — a strict prefix of the frame is delivered, then reset
#:   (the peer sees a torn frame: bytes buffered, EOF mid-frame).
#: * ``after_send_before_reply`` — the full request lands and executes,
#:   but the connection dies before the reply is read: the *ambiguous
#:   loss* that makes idempotency tokens necessary.
#: * ``duplicate_send`` — the frame is delivered twice (a retransmit
#:   double-delivery), then the connection is poisoned; the server-side
#:   dedup table must absorb the second copy.
#: * ``mid_reply`` — the reply is cut after a strict prefix; the reader
#:   sees a short read inside a frame.
NETWORK_CRASH_POINTS = (
    "connect",
    "before_send",
    "mid_send",
    "after_send_before_reply",
    "duplicate_send",
    "mid_reply",
)


@kwonly_dataclass
@dataclass
class NetworkFaultConfig:
    """The fault model for a :class:`~repro.chaos.FaultyTransport`.

    Attributes:
        seed: base seed for the injector's private RNG; identical seeds and
            call sequences reproduce identical fault schedules.
        connect_fail_prob: per-dial probability the connection is refused
            at wrap time (the client sees a reset on first use).
        reset_prob: per-send probability the connection dies before any
            byte of this frame is delivered.
        send_truncate_prob: per-send probability a strict prefix of the
            frame is delivered, then the connection dies (torn frame).
        drop_reply_prob: per-send probability the frame is delivered in
            full but the connection dies immediately after — the sender
            never reads a reply (the ambiguous-loss case).
        duplicate_prob: per-send probability the frame is delivered twice
            before the connection is poisoned (retransmit double-delivery).
        recv_truncate_prob: per-recv probability the received chunk is cut
            to a strict prefix and the connection then dies (short read
            inside a frame).
        delay_prob: per-send/recv probability of an added latency stall.
        delay_s: the stall duration (real seconds — keep it small; it
            blocks the calling thread like real network latency would).
        crash_points: mapping ``point name -> countdown``; the Nth crossing
            of that boundary triggers the fault once. See
            :data:`NETWORK_CRASH_POINTS` for the vocabulary.
    """

    seed: int = 0
    connect_fail_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    reset_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    send_truncate_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    drop_reply_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    duplicate_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    recv_truncate_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    delay_prob: Annotated[float, UNIT_INTERVAL] = 0.0
    delay_s: Annotated[float, NON_NEGATIVE] = 0.001
    crash_points: Annotated[Dict[str, int], at_least(1)] = field(default_factory=dict)

    def validate(self) -> None:
        """Check every field and the crash-point names; raises ConfigError
        (never a deep ValueError)."""
        check_fields(self)
        for name in self.crash_points:
            if name not in NETWORK_CRASH_POINTS:
                raise ConfigError(
                    f"unknown network crash point {name!r}; "
                    f"valid: {', '.join(NETWORK_CRASH_POINTS)}"
                )

    @property
    def fault_rate(self) -> float:
        """Aggregate per-send fault probability (for reporting only)."""
        return min(
            1.0,
            self.reset_prob + self.send_truncate_prob
            + self.drop_reply_prob + self.duplicate_prob,
        )
