"""Message objects accepted by the mesh network simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_message_ids = itertools.count()


@dataclass
class NetworkMessage:
    """A message to be carried by the mesh.

    Mirrors the paper's simulator input: "messages defined by their
    source, destination, length and time since the last network
    activity at the source".

    Attributes
    ----------
    src, dst:
        Source and destination node ids.
    length_bytes:
        Payload length in bytes.
    kind:
        Free-form tag describing what the message is (coherence request,
        data reply, MPI point-to-point, ...); carried into the log so
        the analysis can slice by message class.
    payload:
        Opaque model data delivered to the destination handler.
    msg_id:
        Unique id, auto-assigned.
    """

    src: int
    dst: int
    length_bytes: int
    kind: str = "data"
    payload: Any = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if self.length_bytes < 0:
            raise ValueError(f"length_bytes must be >= 0, got {self.length_bytes}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkMessage(#{self.msg_id} {self.src}->{self.dst} "
            f"{self.length_bytes}B {self.kind})"
        )
