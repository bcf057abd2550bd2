"""Wire messages exchanged between replicas and clients.

Every message carries ``sender`` (a node or client id) and ``size_bytes``
(used by the network's NIC model).  Replica-to-replica messages additionally
carry the view they pertain to so handlers can discard stale traffic.

Messages are slotted dataclasses: each kind declares its fields once, and
the constructor, equality, hashing and the deployment codec
(:mod:`repro.transport.codec`) are all derived from that declaration.
Slots keep the per-instance ``__dict__`` off a type created tens of
thousands of times per simulated second; the generated ``__init__`` costs
what the hand-written one it replaced did (a ``VoteMessage``: ~0.4 µs
either way, best of 5 on a 2-core x86 host), and the generated ``__eq__``
is about twice as fast as the old field loop.  Equality and hashing skip
``message_id`` — it is a transport-assigned tracking id, not message
content — and the classes are not frozen, so a runtime can stamp it.

``message_id`` starts at :data:`UNASSIGNED_MESSAGE_ID` and is stamped by the
runtime that first carries the message (the simulated :class:`Network` or an
:class:`AsyncioTransport`), each from its own counter.  Ids never travel the
wire, so repeated runs in one process assign identical ids — no
process-global counter leaks state across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types.block import Block
from repro.types.certificates import Timeout, Vote
from repro.types.transaction import Transaction

#: Sentinel ``message_id`` of a message no runtime has stamped yet.
UNASSIGNED_MESSAGE_ID = -1


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """Base class for all wire messages.

    Subclasses are ``@dataclass(slots=True, unsafe_hash=True)`` too and add
    their fields after ``message_id``, each with a default.
    """

    sender: str
    size_bytes: int
    message_id: int = field(default=UNASSIGNED_MESSAGE_ID, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class ProposalMessage(Message):
    """A leader's block proposal for a view.

    ``forwarded_by`` is set when the message is an echo (Streamlet echoes all
    messages it receives); echoes are not re-echoed.
    """

    block: Block = None  # type: ignore[assignment]
    view: int = 0
    forwarded_by: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Proposal(view={self.view}, block={self.block.block_id[:10]}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class VoteMessage(Message):
    """A replica's vote, sent to the next leader (or broadcast in Streamlet)."""

    vote: Vote = None  # type: ignore[assignment]
    forwarded_by: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VoteMsg(view={self.vote.view}, block={self.vote.block_id[:10]}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class TimeoutMessage(Message):
    """A pacemaker TIMEOUT broadcast announcing the sender's local timeout."""

    timeout: Timeout = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeoutMsg(view={self.timeout.view}, from={self.sender})"


@dataclass(slots=True, unsafe_hash=True)
class ClientRequest(Message):
    """A client transaction submitted to a replica."""

    transaction: Transaction = None  # type: ignore[assignment]


@dataclass(slots=True, unsafe_hash=True)
class ClientReply(Message):
    """A replica's response to a client request.

    ``status`` is "committed" for a successful commit and "rejected" when the
    replica's mempool was full and the request was dropped (backpressure);
    clients only measure latency for committed replies.
    """

    txid: str = ""
    committed_at: float = 0.0
    replica: str = ""
    status: str = "committed"
