"""Wire messages of the block-fetch protocol.

Two message kinds, mirroring the request/response catch-up exchange of
deployed chained-BFT systems (LibraBFT's ``BlockRetrieval``, Bamboo's block
fetching):

* :class:`BlockRequest` — "send me the chain ending at ``target_block_id``;
  I already hold ``known_block_id`` (height ``known_height``)".  A ``None``
  target means "your highest certified block", which is what a freshly
  recovered replica asks for before it knows what it missed.
* :class:`BlockResponse` — a batch of blocks in **oldest-first** order,
  walking the responder's chain from just above the requester's known block
  up to the target (bounded by the responder's batch cap).  ``tip_qc`` is the
  responder's certificate for the newest block in the batch, so the requester
  can certify it without waiting for a later proposal's embedded QC.

Both carry ``size_bytes`` like every other message and flow through the same
NIC / propagation / partition pipeline — a sync round is real traffic, not a
simulator side channel, and partitioned or crashed peers cannot answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.types.block import Block, GENESIS_ID
from repro.types.certificates import QuorumCertificate
from repro.types.messages import Message


@dataclass(slots=True, unsafe_hash=True)
class BlockRequest(Message):
    """A replica's request for the blocks between its state and a target."""

    #: Block id the requester is trying to reach; ``None`` asks the
    #: responder for the chain ending at its highest certified block.
    target_block_id: Optional[str] = None
    #: Highest block on the requester's certified/committed chain — the
    #: responder walks back until it reaches this block (or its height).
    known_block_id: str = GENESIS_ID
    known_height: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = self.target_block_id[:10] if self.target_block_id else "<tip>"
        return (
            f"BlockRequest(target={target}, known_height={self.known_height}, "
            f"from={self.sender})"
        )


@dataclass(slots=True, unsafe_hash=True)
class BlockResponse(Message):
    """A batch of blocks answering a :class:`BlockRequest` (oldest first)."""

    blocks: Tuple[Block, ...] = ()
    #: The resolved target of the request this answers (the responder's
    #: tip id when the request asked for ``None``).
    target_id: str = ""
    #: The responder's certificate for the newest block in ``blocks``.
    tip_qc: Optional[QuorumCertificate] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockResponse(blocks={len(self.blocks)}, "
            f"target={self.target_id[:10]}, from={self.sender})"
        )
