"""Transport seam tests: codec, real signing, loopback deployment clusters.

Covers the deployment runtime end to end:

* both backends structurally conform to the :mod:`repro.transport.base`
  seam protocols (and the simulation conforms *without importing* the
  transport package — pinned by an AST import-isolation test);
* the wire codec round-trips every message kind;
* the pure-Python Ed25519 matches RFC 8032 and rejects tampering, both at
  the primitive level and through :class:`~repro.quorum.quorum.QuorumTracker`;
* a real asyncio loopback cluster reaches consensus, survives a
  crash-and-recover (state sync over actual TCP), and emits the same record
  schema as the discrete-event model from one shared ``Configuration``.
"""

from __future__ import annotations

import ast
import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest

from helpers import make_vote
from repro.bench.config import Configuration, ConfigurationError
from repro.bench.runner import build_cluster, run_experiment
from repro.core.dispatch import MESSAGE_HANDLERS, register_message_handler
from repro.crypto import ed25519
from repro.crypto.keys import Ed25519KeyPair, KeyPair, KeyRegistry, available_schemes
from repro.crypto.signatures import Signature, sign, verify
from repro.executor.kvstore import DedupState, KVSnapshot
from repro.checkpoint.messages import SnapshotRequest, SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.forest.forest import BlockForest
from repro.network.network import Network
from repro.quorum.quorum import QuorumTracker
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.sync.messages import BlockRequest, BlockResponse
from repro.transport.base import Clock, TimerHandle, Transport
from repro.transport.clock import AsyncioClock
from repro.transport import codec
from repro.transport.codec import (
    CodecError,
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    frame,
    read_frame,
)
from repro.transport.asyncio_net import AsyncioTransport
from repro.scenario import CrashReplica, Scenario
from repro.transport.runtime import DeploymentError, DeploymentRunner
from repro.types import messages
from repro.types.block import make_block
from repro.types.certificates import (
    QuorumCertificate,
    Timeout,
    Vote,
    vote_digest,
)
from repro.types.messages import (
    UNASSIGNED_MESSAGE_ID,
    ClientReply,
    ClientRequest,
    ProposalMessage,
    TimeoutMessage,
    VoteMessage,
)
from repro.types.sizes import SizeModel
from repro.types.transaction import Transaction

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


# --------------------------------------------------------------------------
# seam conformance


class TestSeamConformance:
    def test_event_scheduler_is_a_clock(self):
        scheduler = EventScheduler()
        assert isinstance(scheduler, Clock)
        assert isinstance(scheduler.call_after(1.0, lambda: None), TimerHandle)

    def test_simulated_network_is_a_transport(self):
        network = Network(EventScheduler(), RandomStreams(seed=1))
        assert isinstance(network, Transport)

    def test_asyncio_backends_conform(self):
        async def scenario():
            clock = AsyncioClock()
            assert isinstance(clock, Clock)
            assert isinstance(clock.call_after(10.0, lambda: None), TimerHandle)
            assert isinstance(AsyncioTransport(), Transport)

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# wire codec


def _sample_objects():
    """One of everything: a signed chain fragment plus client traffic."""
    registry = KeyRegistry()
    forest = BlockForest()
    tx = Transaction.create(client_id="c0", created_at=1.25, payload_size=16, sequence=5)
    qc0 = QuorumCertificate(
        block_id=forest.genesis.block_id, view=0,
        signers=frozenset({"r0", "r1", "r2"}),
        signatures=(sign(registry.register("r0"), "aa"), sign(registry.register("r1"), "aa")),
    )
    block = make_block(view=1, parent=forest.genesis, qc=qc0, proposer="r0",
                       transactions=(tx,))
    vote = make_vote(registry, "r1", block)
    timeout = Timeout(voter="r2", view=3, high_qc_view=1,
                      signature=sign(registry.register("r2"), "bb"))
    snapshot = KVSnapshot(
        items=(("k1", "v1"), ("k2", "v2")),
        dedup=DedupState(sessions=(("c0", 4, (7, 9)),), extras=("c1:2",)),
        operations_applied=11,
    )
    checkpoint = Checkpoint(height=1, block=block, qc=qc0,
                            committed_ids=(block.block_id,), state=snapshot,
                            taken_at=2.5)
    return tx, block, vote, qc0, timeout, checkpoint


def _sample_messages():
    """One message of every built-in wire kind, keyed by kind name."""
    tx, block, vote, qc, timeout, checkpoint = _sample_objects()
    return {
        "ProposalMessage": ProposalMessage(sender="r0", size_bytes=900, block=block,
                                           view=1, forwarded_by="r1"),
        "VoteMessage": VoteMessage(sender="r1", size_bytes=120, vote=vote),
        "TimeoutMessage": TimeoutMessage(sender="r2", size_bytes=130, timeout=timeout),
        "ClientRequest": ClientRequest(sender="c0", size_bytes=140, transaction=tx),
        "ClientReply": ClientReply(sender="r0", size_bytes=48, txid=tx.txid,
                                   committed_at=2.0, replica="r0", status="committed"),
        "BlockRequest": BlockRequest(sender="r3", size_bytes=96,
                                     target_block_id=block.block_id,
                                     known_block_id=block.parent_id, known_height=0),
        "BlockResponse": BlockResponse(sender="r0", size_bytes=1000, blocks=(block,),
                                       target_id=block.block_id, tip_qc=qc),
        "SnapshotRequest": SnapshotRequest(sender="r3", size_bytes=32, known_height=0),
        "SnapshotResponse": SnapshotResponse(sender="r0", size_bytes=4000,
                                             checkpoint=checkpoint, responder_height=1),
    }


def _round_trip(message):
    decoded = decode_message(encode_message(message))
    assert decoded == message
    assert decoded.sender == message.sender
    assert decoded.size_bytes == message.size_bytes
    return decoded


class TestCodec:
    def setup_method(self):
        (self.tx, self.block, self.vote, self.qc,
         self.timeout, self.checkpoint) = _sample_objects()

    def test_proposal_round_trip(self):
        decoded = _round_trip(ProposalMessage(sender="r0", size_bytes=900,
                                              block=self.block, view=1,
                                              forwarded_by="r1"))
        assert decoded.block.qc.signers == self.qc.signers
        assert decoded.block.transactions[0].txid == self.tx.txid

    def test_vote_round_trip(self):
        decoded = _round_trip(VoteMessage(sender="r1", size_bytes=120, vote=self.vote))
        assert decoded.vote.signature.tag == self.vote.signature.tag

    def test_timeout_round_trip(self):
        _round_trip(TimeoutMessage(sender="r2", size_bytes=130, timeout=self.timeout))

    def test_client_request_round_trip(self):
        _round_trip(ClientRequest(sender="c0", size_bytes=140, transaction=self.tx))

    def test_client_reply_round_trip(self):
        _round_trip(ClientReply(sender="r0", size_bytes=48, txid=self.tx.txid,
                                committed_at=2.0, replica="r0", status="committed"))

    def test_block_request_round_trip(self):
        _round_trip(BlockRequest(sender="r3", size_bytes=96,
                                 target_block_id=self.block.block_id,
                                 known_block_id=self.block.parent_id, known_height=0))

    def test_block_response_round_trip(self):
        decoded = _round_trip(BlockResponse(sender="r0", size_bytes=1000,
                                            blocks=(self.block,),
                                            target_id=self.block.block_id,
                                            tip_qc=self.qc))
        assert decoded.blocks[0] == self.block

    def test_snapshot_request_round_trip(self):
        _round_trip(SnapshotRequest(sender="r3", size_bytes=32, known_height=0))

    def test_snapshot_response_round_trip(self):
        decoded = _round_trip(SnapshotResponse(sender="r0", size_bytes=4000,
                                               checkpoint=self.checkpoint,
                                               responder_height=1))
        assert decoded.checkpoint.state == self.checkpoint.state

    def test_snapshot_response_without_checkpoint(self):
        _round_trip(SnapshotResponse(sender="r0", size_bytes=40,
                                     checkpoint=None, responder_height=0))

    def test_added_field_round_trips_without_codec_edit(self, monkeypatch):
        # A kind declares its fields once; the codec derives the rest.
        @dataclass(slots=True, unsafe_hash=True)
        class ClientReply(messages.ClientReply):
            batch: Tuple[str, ...] = ()
            tip_qc: Optional[QuorumCertificate] = None

        monkeypatch.setitem(codec._KINDS, "ClientReply", ClientReply)
        message = ClientReply(sender="r0", size_bytes=48, txid="t", batch=("t", "u"),
                              tip_qc=self.qc)
        decoded = _round_trip(message)
        assert type(decoded) is ClientReply
        assert decoded.batch == ("t", "u") and decoded.tip_qc == self.qc

    def test_decode_returns_an_unstamped_message(self):
        # Ids never travel the wire: the receiving runtime stamps decoded
        # messages from its own counter.
        message = SnapshotRequest(sender="r3", size_bytes=32, known_height=0)
        message.message_id = 7
        decoded = decode_message(encode_message(message))
        assert decoded.message_id == UNASSIGNED_MESSAGE_ID

    def test_unknown_kind_raises(self):
        with pytest.raises(CodecError):
            decode_message(b'{"kind": "Telegram", "sender": "x", "size_bytes": 1, "body": {}}')

    def test_malformed_json_raises(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff not json")

    def test_truncated_body_raises(self):
        with pytest.raises(CodecError):
            decode_message(b'{"kind": "VoteMessage", "sender": "x", "size_bytes": 1, "body": {}}')

    @pytest.mark.parametrize("payload", [
        b'[]',
        b'"x"',
        b'{"kind": "SnapshotRequest", "size_bytes": 1, "body": {"known_height": 0}}',
        b'{"kind": [1], "sender": "x", "size_bytes": 1, "body": {}}',
        b'{"kind": "SnapshotRequest", "sender": 5, "size_bytes": 1, '
        b'"body": {"known_height": 0}}',
        b'{"kind": "ClientReply", "sender": "r0", "size_bytes": 48, "body": '
        b'{"txid": 1, "committed_at": "x", "replica": "r0", "status": "committed"}}',
        b'{"kind": "SnapshotRequest", "sender": "x", "size_bytes": 1, '
        b'"body": {"known_height": true}}',
        b'{"kind": "BlockRequest", "sender": "x", "size_bytes": 1, "body": '
        b'{"target_block_id": 5, "known_block_id": "genesis", "known_height": 0}}',
    ], ids=["list", "string", "no-sender", "list-kind", "int-sender",
            "type-confused-reply", "bool-as-int", "int-as-optional-str"])
    def test_malformed_payload_raises_codec_error(self, payload):
        with pytest.raises(CodecError):
            decode_message(payload)

    def test_type_confused_nested_leaf_raises_codec_error(self):
        data = encode_message(_sample_messages()["VoteMessage"])
        with pytest.raises(CodecError):
            decode_message(data.replace(b'"view":1,', b'"view":"1",'))

    def test_int_is_accepted_where_a_float_is_declared(self):
        decoded = decode_message(
            b'{"kind": "ClientReply", "sender": "r0", "size_bytes": 48, "body": '
            b'{"txid": "t", "committed_at": 2, "replica": "r0", "status": "committed"}}'
        )
        assert decoded.committed_at == 2.0

    def test_oversized_frame_rejected(self):
        with pytest.raises(CodecError):
            frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_frame_round_trip_over_stream(self):
        first = encode_message(SnapshotRequest(sender="a", size_bytes=32, known_height=3))
        second = encode_message(ClientReply(sender="b", size_bytes=48, txid="t",
                                            committed_at=1.0, replica="r0",
                                            status="committed"))

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame(first) + frame(second))
            reader.feed_eof()
            assert await read_frame(reader) == first
            assert await read_frame(reader) == second
            assert await read_frame(reader) is None  # clean EOF at boundary

        asyncio.run(scenario())

    def test_read_frame_rejects_truncation(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame(b"hello world")[:-3])
            reader.feed_eof()
            with pytest.raises(CodecError):
                await read_frame(reader)

        asyncio.run(scenario())


#: ``encode_message`` output for each ``_sample_messages()`` entry, pinned as
#: literal bytes: deployed nodes of different versions must agree on it.
GOLDEN_FRAMES = {
    "ProposalMessage": (
        b'{"kind":"ProposalMessage","sender":"r0","size_bytes":900,"body":'
        b'{"block":{"block_id":"db9683a35d8b9cd73f2105b3dfc2d27558387628b9'
        b'fc9a21b5e39621762e0187","view":1,"parent_id":"genesis","height":'
        b'1,"qc":{"block_id":"genesis","view":0,"signers":["r0","r1","r2"]'
        b',"signatures":[{"signer":"r0","digest":"aa","tag":"108250468c597'
        b'1dbe52d79f886a29f7fbe27abc00343e61afda1a4a3914c1579"},{"signer":'
        b'"r1","digest":"aa","tag":"570c9833d52ef214f52c61efb548762d2f6c77'
        b'd22e79ab6d636a7135d00ed03a"}]},"proposer":"r0","transactions":[{'
        b'"txid":"tx-c0-5","client_id":"c0","operation":"put","key":"k5","'
        b'value":"","payload_size":16,"created_at":1.25,"sequence":5}]},"v'
        b'iew":1,"forwarded_by":"r1"}}'
    ),
    "VoteMessage": (
        b'{"kind":"VoteMessage","sender":"r1","size_bytes":120,"body":{"vo'
        b'te":{"voter":"r1","block_id":"db9683a35d8b9cd73f2105b3dfc2d27558'
        b'387628b9fc9a21b5e39621762e0187","view":1,"signature":{"signer":"'
        b'r1","digest":"2210a997d42618162a212a2097ea5247c2f8f291e30305419e'
        b'7d4d1a45882097","tag":"a1ef31fe7d3b156cbd6245d0398583408edf7ea7a'
        b'27bc3b45860715ad99e8181"}},"forwarded_by":""}}'
    ),
    "TimeoutMessage": (
        b'{"kind":"TimeoutMessage","sender":"r2","size_bytes":130,"body":{'
        b'"timeout":{"voter":"r2","view":3,"high_qc_view":1,"signature":{"'
        b'signer":"r2","digest":"bb","tag":"173a4aa714e68623400db177f8859b'
        b'405b42f24f7a9c1270f6e99c7fe9b02d29"}}}}'
    ),
    "ClientRequest": (
        b'{"kind":"ClientRequest","sender":"c0","size_bytes":140,"body":{"'
        b'transaction":{"txid":"tx-c0-5","client_id":"c0","operation":"put'
        b'","key":"k5","value":"","payload_size":16,"created_at":1.25,"seq'
        b'uence":5}}}'
    ),
    "ClientReply": (
        b'{"kind":"ClientReply","sender":"r0","size_bytes":48,"body":{"txi'
        b'd":"tx-c0-5","committed_at":2.0,"replica":"r0","status":"committ'
        b'ed"}}'
    ),
    "BlockRequest": (
        b'{"kind":"BlockRequest","sender":"r3","size_bytes":96,"body":{"ta'
        b'rget_block_id":"db9683a35d8b9cd73f2105b3dfc2d27558387628b9fc9a21'
        b'b5e39621762e0187","known_block_id":"genesis","known_height":0}}'
    ),
    "BlockResponse": (
        b'{"kind":"BlockResponse","sender":"r0","size_bytes":1000,"body":{'
        b'"blocks":[{"block_id":"db9683a35d8b9cd73f2105b3dfc2d27558387628b'
        b'9fc9a21b5e39621762e0187","view":1,"parent_id":"genesis","height"'
        b':1,"qc":{"block_id":"genesis","view":0,"signers":["r0","r1","r2"'
        b'],"signatures":[{"signer":"r0","digest":"aa","tag":"108250468c59'
        b'71dbe52d79f886a29f7fbe27abc00343e61afda1a4a3914c1579"},{"signer"'
        b':"r1","digest":"aa","tag":"570c9833d52ef214f52c61efb548762d2f6c7'
        b'7d22e79ab6d636a7135d00ed03a"}]},"proposer":"r0","transactions":['
        b'{"txid":"tx-c0-5","client_id":"c0","operation":"put","key":"k5",'
        b'"value":"","payload_size":16,"created_at":1.25,"sequence":5}]}],'
        b'"target_id":"db9683a35d8b9cd73f2105b3dfc2d27558387628b9fc9a21b5e'
        b'39621762e0187","tip_qc":{"block_id":"genesis","view":0,"signers"'
        b':["r0","r1","r2"],"signatures":[{"signer":"r0","digest":"aa","ta'
        b'g":"108250468c5971dbe52d79f886a29f7fbe27abc00343e61afda1a4a3914c'
        b'1579"},{"signer":"r1","digest":"aa","tag":"570c9833d52ef214f52c6'
        b'1efb548762d2f6c77d22e79ab6d636a7135d00ed03a"}]}}}'
    ),
    "SnapshotRequest": (
        b'{"kind":"SnapshotRequest","sender":"r3","size_bytes":32,"body":{'
        b'"known_height":0}}'
    ),
    "SnapshotResponse": (
        b'{"kind":"SnapshotResponse","sender":"r0","size_bytes":4000,"body'
        b'":{"checkpoint":{"height":1,"block":{"block_id":"db9683a35d8b9cd'
        b'73f2105b3dfc2d27558387628b9fc9a21b5e39621762e0187","view":1,"par'
        b'ent_id":"genesis","height":1,"qc":{"block_id":"genesis","view":0'
        b',"signers":["r0","r1","r2"],"signatures":[{"signer":"r0","digest'
        b'":"aa","tag":"108250468c5971dbe52d79f886a29f7fbe27abc00343e61afd'
        b'a1a4a3914c1579"},{"signer":"r1","digest":"aa","tag":"570c9833d52'
        b'ef214f52c61efb548762d2f6c77d22e79ab6d636a7135d00ed03a"}]},"propo'
        b'ser":"r0","transactions":[{"txid":"tx-c0-5","client_id":"c0","op'
        b'eration":"put","key":"k5","value":"","payload_size":16,"created_'
        b'at":1.25,"sequence":5}]},"qc":{"block_id":"genesis","view":0,"si'
        b'gners":["r0","r1","r2"],"signatures":[{"signer":"r0","digest":"a'
        b'a","tag":"108250468c5971dbe52d79f886a29f7fbe27abc00343e61afda1a4'
        b'a3914c1579"},{"signer":"r1","digest":"aa","tag":"570c9833d52ef21'
        b'4f52c61efb548762d2f6c77d22e79ab6d636a7135d00ed03a"}]},"committed'
        b'_ids":["db9683a35d8b9cd73f2105b3dfc2d27558387628b9fc9a21b5e39621'
        b'762e0187"],"state":{"items":[["k1","v1"],["k2","v2"]],"dedup":{"'
        b'sessions":[["c0",4,[7,9]]],"extras":["c1:2"]},"operations_applie'
        b'd":11},"taken_at":2.5},"responder_height":1}}'
    ),
}


#: ``len(encode_message(m)) / size_model_estimate(m)`` per sample (HMAC
#: tags, measured): the NIC model's estimates undercount real JSON frames
#: by a bounded factor; votes are the worst (hex signature plus keys).
MEASURED_SIZE_RATIOS = {
    "ProposalMessage": 1.80,
    "VoteMessage": 3.49,
    "TimeoutMessage": 1.93,
    "ClientRequest": 2.54,
    "ClientReply": 1.39,
    "BlockRequest": 2.65,
    "BlockResponse": 1.44,
    "SnapshotRequest": 2.05,
    "SnapshotResponse": 1.86,
}


def _size_model_estimate(message):
    """The ``size_bytes`` a sender charges for ``message`` (see the senders)."""
    sizes = SizeModel()
    estimates = {
        "ProposalMessage": lambda m: sizes.proposal_size(m.block, len(m.block.qc.signers)),
        "VoteMessage": lambda m: sizes.vote_size(),
        "TimeoutMessage": lambda m: sizes.timeout_message_size,
        "ClientRequest": lambda m: sizes.client_request_size(m.transaction.payload_size),
        "ClientReply": lambda m: sizes.client_reply_size,
        "BlockRequest": lambda m: sizes.block_request_size(),
        "BlockResponse": lambda m: sizes.block_response_size(m.blocks, len(m.tip_qc.signers)),
        "SnapshotRequest": lambda m: sizes.snapshot_request_size(),
        "SnapshotResponse": lambda m: sizes.snapshot_response_size(m.checkpoint),
    }
    return estimates[type(message).__name__](message)


class TestGoldenFrames:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_FRAMES))
    def test_encoding_is_pinned(self, kind):
        assert encode_message(_sample_messages()[kind]) == GOLDEN_FRAMES[kind]

    def test_every_sample_kind_is_pinned(self):
        assert sorted(_sample_messages()) == sorted(GOLDEN_FRAMES)

    def test_every_wire_kind_is_sampled(self):
        assert sorted(_sample_messages()) == sorted(kind.__name__ for kind in codec.WIRE_KINDS)

    @pytest.mark.parametrize("kind", sorted(MEASURED_SIZE_RATIOS))
    def test_size_model_tracks_the_encoding(self, kind):
        message = _sample_messages()[kind]
        ratio = len(encode_message(message)) / _size_model_estimate(message)
        assert 1 <= ratio <= 4
        assert ratio == pytest.approx(MEASURED_SIZE_RATIOS[kind], abs=0.01)


# --------------------------------------------------------------------------
# real signatures


class TestEd25519:
    # RFC 8032 §7.1, test vector 1 (empty message).
    SEED = bytes.fromhex(
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
    PUB = bytes.fromhex(
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
    SIG = bytes.fromhex(
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")

    # RFC 8032 §7.1, test vector 2 (one-byte message 0x72).
    SEED2 = bytes.fromhex(
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
    PUB2 = bytes.fromhex(
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
    SIG2 = bytes.fromhex(
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00")

    def test_rfc8032_public_key(self):
        assert ed25519.public_key(self.SEED) == self.PUB

    def test_rfc8032_signature(self):
        assert ed25519.sign(self.SEED, b"") == self.SIG

    def test_rfc8032_verifies(self):
        assert ed25519.verify(self.PUB, b"", self.SIG)

    def test_rfc8032_vector_2(self):
        assert ed25519.public_key(self.SEED2) == self.PUB2
        assert ed25519.sign(self.SEED2, b"\x72") == self.SIG2
        assert ed25519.verify(self.PUB2, b"\x72", self.SIG2)

    def test_tampered_message_rejected(self):
        assert not ed25519.verify(self.PUB, b"x", self.SIG)

    def test_tampered_signature_rejected(self):
        forged = bytes([self.SIG[0] ^ 1]) + self.SIG[1:]
        assert not ed25519.verify(self.PUB, b"", forged)

    def test_malformed_inputs_return_false(self):
        assert not ed25519.verify(self.PUB, b"", b"short")
        assert not ed25519.verify(b"short", b"", self.SIG)

    def test_distinct_messages_distinct_signatures(self):
        assert ed25519.sign(self.SEED, b"a") != ed25519.sign(self.SEED, b"b")


class TestSigningSchemes:
    def test_both_schemes_registered(self):
        assert available_schemes() == ["ed25519", "hmac"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            KeyRegistry(scheme="rot13")

    def test_registry_scheme_selects_keypair_class(self):
        assert isinstance(KeyRegistry(scheme="hmac").register("r0"), KeyPair)
        assert isinstance(KeyRegistry(scheme="ed25519").register("r0"), Ed25519KeyPair)

    def test_ed25519_generation_is_deterministic(self):
        a = Ed25519KeyPair.generate("r0", deployment_seed=7)
        b = Ed25519KeyPair.generate("r0", deployment_seed=7)
        assert a.secret == b.secret
        assert a.public_key == b.public_key
        assert Ed25519KeyPair.generate("r1", deployment_seed=7).secret != a.secret

    def test_sign_verify_through_registry(self):
        registry = KeyRegistry(scheme="ed25519")
        keypair = registry.register("r0")
        signature = sign(keypair, "deadbeef")
        assert len(signature.tag) == ed25519.SIGNATURE_SIZE
        assert verify(registry, signature)

    def test_forged_tag_fails(self):
        registry = KeyRegistry(scheme="ed25519")
        signature = sign(registry.register("r0"), "deadbeef")
        forged = Signature(signer="r0", digest="deadbeef",
                           tag=b"\x00" * ed25519.SIGNATURE_SIZE)
        assert not verify(registry, forged)

    def test_quorum_tracker_rejects_tampered_vote(self):
        registry = KeyRegistry(scheme="ed25519")
        forest = BlockForest()
        block = make_block(view=1, parent=forest.genesis, qc=None, proposer="r0", transactions=())
        tracker = QuorumTracker(num_nodes=4, registry=registry)
        good = make_vote(registry, "r1", block)
        assert tracker.voted(good)
        # A Byzantine peer flips one bit of a signature in flight.
        bad_sig = Signature(signer="r2", digest=vote_digest(block.block_id, block.view),
                            tag=bytes([good.signature.tag[0] ^ 1]) + good.signature.tag[1:])
        tampered = Vote(voter="r2", block_id=block.block_id, view=block.view,
                        signature=bad_sig)
        registry.register("r2")
        assert not tracker.voted(tampered)
        assert tracker.invalid_votes == 1
        assert tracker.vote_count(block.view, block.block_id) == 1

    def test_quorum_tracker_rejects_replayed_signature(self):
        # r2 replays r1's (valid) signature under its own name.
        registry = KeyRegistry(scheme="ed25519")
        forest = BlockForest()
        block = make_block(view=1, parent=forest.genesis, qc=None, proposer="r0", transactions=())
        tracker = QuorumTracker(num_nodes=4, registry=registry)
        good = make_vote(registry, "r1", block)
        registry.register("r2")
        stolen = Vote(voter="r2", block_id=block.block_id, view=block.view,
                      signature=good.signature)
        assert not tracker.voted(stolen)
        assert tracker.invalid_votes == 1


# --------------------------------------------------------------------------
# asyncio clock


class TestAsyncioClock:
    def test_now_and_timers(self):
        async def scenario():
            clock = AsyncioClock()
            assert clock.now >= 0.0
            fired = []
            handle = clock.call_after(0.01, fired.append, "a")
            cancelled = clock.call_after(5.0, fired.append, "never")
            assert handle.pending and cancelled.pending
            cancelled.cancel()
            assert not cancelled.pending
            await asyncio.sleep(0.05)
            assert fired == ["a"]
            assert not handle.pending
            assert clock.processed_events == 1

        asyncio.run(scenario())

    def test_negative_delay_clamps_to_now(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            clock.call_after(-1.0, fired.append, "x")
            clock.call_at(clock.now - 5.0, fired.append, "y")
            await asyncio.sleep(0.02)
            assert sorted(fired) == ["x", "y"]

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# asyncio transport (unit level)


class TestAsyncioTransport:
    @staticmethod
    def _reply(txid: str) -> ClientReply:
        return ClientReply(sender="a", size_bytes=48, txid=txid, committed_at=1.0,
                           replica="a", status="committed")

    @staticmethod
    async def _settle(predicate, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate():
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError("condition not reached before timeout")
            await asyncio.sleep(0.02)

    def test_register_validation(self):
        transport = AsyncioTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(ValueError):
            transport.register("a", lambda m: None)

    def test_send_to_unknown_endpoint_raises(self):
        transport = AsyncioTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(KeyError):
            transport.send("a", "ghost", self._reply("t"))

    def test_delivery_and_crash_recover(self):
        async def scenario():
            transport = AsyncioTransport()
            received = {"a": [], "b": []}
            transport.register("a", received["a"].append)
            transport.register("b", received["b"].append)
            await transport.start()

            transport.send("a", "b", self._reply("t1"))
            await self._settle(lambda: len(received["b"]) == 1)
            assert received["b"][0].txid == "t1"
            assert transport.stats.messages_delivered == 1
            assert transport.stats.per_type_counts["ClientReply"] == 1

            # Loopback still lands on the inbox queue.
            transport.send("a", "a", self._reply("self"))
            await self._settle(lambda: len(received["a"]) == 1)

            # Crashed destinations silently drop traffic.
            transport.crash("b")
            assert transport.is_crashed("b")
            assert transport.address_of("b") is None
            transport.send("a", "b", self._reply("lost"))
            assert transport.stats.messages_dropped >= 1

            # Recovery rebinds on a fresh port and delivery resumes.
            transport.recover("b")
            await self._settle(lambda: transport.address_of("b") is not None)
            transport.send("a", "b", self._reply("t2"))
            await self._settle(lambda: len(received["b"]) == 2)
            assert received["b"][1].txid == "t2"
            assert "lost" not in [m.txid for m in received["b"]]

            await transport.stop()

        asyncio.run(scenario())

    def test_broadcast_matches_network_semantics(self):
        async def scenario():
            transport = AsyncioTransport()
            received = {name: [] for name in ("a", "b", "c")}
            for name in received:
                transport.register(name, received[name].append)
            await transport.start()
            transport.broadcast("a", ["b", "c"], self._reply("x"))
            await self._settle(lambda: len(received["b"]) == 1 and len(received["c"]) == 1)
            assert received["a"] == []  # include_self defaults off
            transport.broadcast("a", ["b"], self._reply("y"), include_self=True)
            await self._settle(lambda: len(received["a"]) == 1)
            await transport.stop()

        asyncio.run(scenario())

    def test_malformed_frame_is_skipped_not_fatal(self):
        async def scenario():
            transport = AsyncioTransport()
            received = []
            transport.register("b", received.append)
            await transport.start()
            _, writer = await asyncio.open_connection(*transport.address_of("b"))
            writer.write(frame(b"[]") + frame(encode_message(self._reply("ok"))))
            await writer.drain()
            await self._settle(lambda: len(received) == 1, timeout=2.0)
            assert received[0].txid == "ok"
            assert transport.stats.decode_errors == 1
            writer.close()
            await transport.stop()

        asyncio.run(scenario())

    def test_handler_errors_are_surfaced_not_lost(self):
        async def scenario():
            transport = AsyncioTransport()
            transport.register("a", lambda m: None)

            def explode(message):
                raise RuntimeError("boom")

            transport.register("b", explode)
            await transport.start()
            transport.send("a", "b", self._reply("t"))
            await self._settle(lambda: len(transport.errors) == 1)
            assert "boom" in repr(transport.errors[0])
            await transport.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# import isolation: the protocol stack must not know the transport exists


#: Packages that make up the protocol stack run unmodified in both modes.
PROTOCOL_STACK_DIRS = (
    "protocols", "core", "pacemaker", "quorum", "forest",
    "sync", "checkpoint", "client", "executor", "election", "mempool",
)


def _imports_of(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


class TestImportIsolation:
    def test_protocol_stack_never_imports_the_transport(self):
        offenders = []
        for directory in PROTOCOL_STACK_DIRS:
            for path in sorted((SRC_ROOT / directory).rglob("*.py")):
                for module in _imports_of(path):
                    if module == "repro.transport" or module.startswith("repro.transport."):
                        offenders.append(f"{path.relative_to(SRC_ROOT)} imports {module}")
        assert not offenders, (
            "the deployment backend must plug in through the seam alone:\n  "
            + "\n  ".join(offenders)
        )

    def test_transport_package_exists_where_expected(self):
        # Guards the walk above against silently checking nothing.
        assert (SRC_ROOT / "transport" / "base.py").exists()
        assert all((SRC_ROOT / d).is_dir() for d in PROTOCOL_STACK_DIRS)


# --------------------------------------------------------------------------
# loopback deployment clusters (slow: real sockets, real signatures)


def _deploy_config(**overrides) -> Configuration:
    base = dict(
        num_nodes=4,
        block_size=50,
        mempool_capacity=2000,
        num_clients=2,
        concurrency=8,
        view_timeout=1.0,
        request_timeout=2.0,
        warmup=0.3,
        runtime=2.0,
        cooldown=0.2,
        mode="deploy",
        seed=3,
    )
    base.update(overrides)
    return Configuration(**base)


class TestDeployment:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Configuration(mode="hologram").validate()
        with pytest.raises(ValueError):
            Configuration(signing="rot13").validate()

    def test_signing_auto_resolution(self):
        assert Configuration(mode="model").resolved_signing() == "hmac"
        assert Configuration(mode="model", signing="ed25519").resolved_signing() == "ed25519"
        assert _deploy_config().resolved_signing() == "ed25519"
        assert _deploy_config(signing="hmac").resolved_signing() == "hmac"

    def test_model_mode_uses_the_configured_signing(self):
        model = dict(num_nodes=4, cost_profile="fast")
        cluster = build_cluster(Configuration(signing="ed25519", **model))
        assert cluster.registry.scheme == "ed25519"
        assert isinstance(cluster.registry.get("r0"), Ed25519KeyPair)
        # "auto" keeps HMAC in model mode, so default records do not change.
        assert build_cluster(Configuration(**model)).registry.scheme == "hmac"

    def test_deploy_runs_only_empty_scenarios(self):
        crash = Scenario(events=[CrashReplica(at=0.5, replica="last")])
        with pytest.raises(ConfigurationError, match="empty"):
            run_experiment(_deploy_config(), crash)
        with pytest.raises(ConfigurationError, match="empty"):
            run_experiment(_deploy_config(), Scenario(duration=1.0))

    def test_handler_error_fails_the_run_and_still_stops(self, monkeypatch):
        """A raising replica handler makes a DeploymentError, not a clean run."""
        stopped = []
        original_stop = DeploymentRunner.stop

        async def spy_stop(runner):
            stopped.append(runner)
            await original_stop(runner)

        def broken(replica, message):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(DeploymentRunner, "stop", spy_stop)
        original = MESSAGE_HANDLERS.get("ClientRequest")
        register_message_handler("ClientRequest", override=True)(broken)
        try:
            with pytest.raises(DeploymentError, match="handler bug"):
                run_experiment(_deploy_config(warmup=0.1, runtime=0.5, cooldown=0.1))
        finally:
            MESSAGE_HANDLERS.add("ClientRequest", original, override=True)
        assert len(stopped) == 1

    def test_build_cluster_refuses_deploy_mode(self):
        with pytest.raises(ValueError):
            build_cluster(_deploy_config())

    def test_loopback_cluster_reaches_consensus(self):
        """One Configuration, both modes: same schema, zero protocol edits."""
        config = _deploy_config()
        deployed = run_experiment(config)
        assert deployed.consistent
        assert deployed.metrics.committed_transactions > 0
        assert deployed.highest_view > 1
        assert deployed.metrics.wall_clock_seconds > 0
        assert deployed.metrics.events_per_second > 0

        modeled = run_experiment(config.replace(mode="model"))
        assert modeled.consistent
        assert modeled.metrics.committed_transactions > 0
        # Identical record schema lets fig8 plot the two side by side.
        assert set(deployed.metrics.to_dict()) == set(modeled.metrics.to_dict())
        assert deployed.timeline and modeled.timeline

    def test_crashed_replica_recovers_over_the_wire(self):
        """A replica that crashes mid-run catches back up via real sync."""

        async def scenario():
            runner = DeploymentRunner(_deploy_config(runtime=4.0, seed=11))
            await runner.start()
            victim = runner.replicas["r3"]
            observer = runner.replicas[runner.observer_id]
            await asyncio.sleep(1.2)
            victim.crash()
            assert runner.transport.is_crashed("r3")
            height_down = victim.forest.committed_height
            await asyncio.sleep(1.2)
            assert observer.forest.committed_height > height_down
            victim.recover()
            await asyncio.sleep(2.0)
            await runner.stop()
            runner.raise_handler_errors()
            return runner, height_down

        runner, height_down = asyncio.run(scenario())
        victim = runner.replicas["r3"]
        assert victim.forest.committed_height > height_down
        assert runner.cluster.consistency_check()
        assert runner.transport.stats.reconnects > 0
