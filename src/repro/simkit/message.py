"""Message record exchanged between neighboring nodes."""

from __future__ import annotations

from typing import Any

from repro.mesh.coords import Coord


class Message:
    """One neighbor-to-neighbor message.

    ``kind`` is the protocol-level type (``"STATUS"``, ``"IDENT_CW"``,
    ``"BOUNDARY"``, ``"ROUTE"``, ...); ``payload`` the protocol data, a
    plain dict.  ``hops`` counts network traversals (protocol overhead
    accounting, experiment T3); ``ttl`` implements the paper's
    time-to-live discard for identification messages in unstable
    regions.
    """

    __slots__ = ("kind", "src", "dst", "payload", "hops", "ttl")

    def __init__(
        self,
        kind: str,
        src: Coord,
        dst: Coord,
        payload: dict[str, Any] | None = None,
        hops: int = 0,
        ttl: int | None = None,
    ):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = {} if payload is None else payload
        self.hops = hops
        self.ttl = ttl

    def __repr__(self) -> str:
        return (
            f"Message(kind={self.kind!r}, src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, hops={self.hops}, ttl={self.ttl})"
        )

    def expired(self) -> bool:
        return self.ttl is not None and self.hops > self.ttl

    def forwarded(self, new_dst: Coord) -> "Message":
        """Copy for the next hop (same kind and TTL, one more hop).

        The payload is shallow-copied: a downstream node mutating its
        copy must not retroactively rewrite the sender's hop.  Nested
        values are shared across hops; the protocol handlers keep them
        immutable (tuples, frozensets, read-only maps) and build a new
        value instead of writing to one.
        """
        return Message(
            self.kind,
            self.dst,
            new_dst,
            dict(self.payload),
            self.hops + 1,
            self.ttl,
        )
