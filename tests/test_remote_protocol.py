"""Wire-protocol conformance suite for the shard-node transport.

The frames in :data:`GOLDEN_FRAMES` are pinned at the *byte* level: each
entry records the exact hex a frame serialized to when the protocol was
frozen at v3 (v2's mutual-authentication handshake and curator
manifests, with the query spec riding on EXECUTE instead of a separate
PLAN frame).  If any of these tests fail after a change to
``repro.runtime.remote.wire``, the change is a breaking protocol change
and requires bumping ``REMOTE_PROTOCOL_VERSION`` — not updating the
goldens in place.

Alongside the goldens, this suite pins the failure half of the
contract: version-mismatch rejection, torn/truncated-frame rejection,
CRC corruption detection, the handshake behaviour of a live in-thread
:class:`~repro.runtime.remote.node.ShardNodeServer`, and the
authenticated handshake (challenge–response transcripts, bad-secret
refusal before any non-handshake frame).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.runtime.remote import wire
from repro.runtime.remote.node import ShardNodeServer
from repro.runtime.shard import ShardQuerySpec

# ----------------------------------------------------------------------
# Pinned protocol constants
# ----------------------------------------------------------------------

#: Kind numbers are wire format.  Renumbering is a protocol break.
PINNED_KINDS = {
    "hello": 1,
    "welcome": 2,
    "segment": 3,
    "execute": 5,
    "partial": 6,
    "partial-missing": 7,
    "query-done": 8,
    "ping": 9,
    "pong": 10,
    "shutdown": 11,
    "bye": 12,
    "error": 13,
}

#: ``(kind, header, body, hex)`` — one representative frame per kind,
#: serialized by v3 of the protocol.  The hex is the full frame
#: including magic, prefix, canonical-JSON header, body, and CRC.  The
#: headers kept their v2 values when v3 re-recorded them, so each hex
#: differs from its v2 one only in the version bytes and the CRC — except
#: EXECUTE, whose header gained the nested spec.
GOLDEN_FRAMES = {
    "hello": (
        wire.HELLO,
        {"protocol": 2},
        b"",
        "47534e31030001000e00000000000000000000007b2270726f746f636f6c223a"
        "327de65ac3a0",
    ),
    "welcome": (
        wire.WELCOME,
        {"protocol": 2, "shards_held": 0, "manifests": [], "authenticated": False},
        b"",
        "47534e31030002004300000000000000000000007b2261757468656e74696361"
        "746564223a66616c73652c226d616e696665737473223a5b5d2c2270726f746f"
        "636f6c223a322c227368617264735f68656c64223a307d1e1c25e0",
    ),
    "segment": (
        wire.SEGMENT,
        {"dataset": "data", "version": 1, "shard": 0, "shape": [2, 1]},
        b"\x00\x00\x00\x00\x00\x00\xf8?\x00\x00\x00\x00\x00\x00\x04@",
        "47534e31030003003600000010000000000000007b2264617461736574223a22"
        "64617461222c227368617065223a5b322c315d2c227368617264223a302c2276"
        "657273696f6e223a317d000000000000f83f000000000000044065d84712",
    ),
    "execute": (
        wire.EXECUTE,
        {
            "qid": 1,
            "spec": {
                "dataset": "data",
                "version": 1,
                "num_records": 100,
                "block_size": 10,
                "resampling_factor": 1,
                "plan_seed": 424242,
                "shards": 2,
                "output_dimension": 1,
                "fallback": [0.0],
                "clamp_lo": [0.0],
                "clamp_hi": [100.0],
            },
            "shards": [0, 1],
            "origin": 0,
        },
        b"\x80\x04N.",
        "47534e3103000500e900000004000000000000007b226f726967696e223a302c"
        "22716964223a312c22736861726473223a5b302c315d2c2273706563223a7b22"
        "626c6f636b5f73697a65223a31302c22636c616d705f6869223a5b3130302e30"
        "5d2c22636c616d705f6c6f223a5b302e305d2c2264617461736574223a226461"
        "7461222c2266616c6c6261636b223a5b302e305d2c226e756d5f7265636f7264"
        "73223a3130302c226f75747075745f64696d656e73696f6e223a312c22706c61"
        "6e5f73656564223a3432343234322c22726573616d706c696e675f666163746f"
        "72223a312c22736861726473223a322c2276657273696f6e223a317d7d80044e"
        "2e8c4d139b",
    ),
    "partial": (
        wire.PARTIAL,
        {"qid": 1, "shard": 0, "shape": [2, 1], "elapsed": 0.0},
        b"\x00\x00\x00\x00\x00\x00\x08@\x00\x00\x00\x00\x00\x00\x10@\x01\x01",
        "47534e31030006002f00000012000000000000007b22656c6170736564223a30"
        "2e302c22716964223a312c227368617065223a5b322c315d2c22736861726422"
        "3a307d0000000000000840000000000000104001016edeebee",
    ),
    "partial-missing": (
        wire.PARTIAL_MISSING,
        {"qid": 1, "shard": 1, "reason": "no_segment"},
        b"",
        "47534e31030007002900000000000000000000007b22716964223a312c227265"
        "61736f6e223a226e6f5f7365676d656e74222c227368617264223a317d798157"
        "0d",
    ),
    "query-done": (
        wire.QUERY_DONE,
        {"qid": 1},
        b"",
        "47534e31030008000900000000000000000000007b22716964223a317d71106e"
        "6d",
    ),
    "ping": (
        wire.PING,
        {"token": 7},
        b"",
        "47534e31030009000b00000000000000000000007b22746f6b656e223a377dda"
        "c5e30e",
    ),
    "pong": (
        wire.PONG,
        {"token": 7},
        b"",
        "47534e3103000a000b00000000000000000000007b22746f6b656e223a377d89"
        "730e3b",
    ),
    "shutdown": (
        wire.SHUTDOWN,
        {"halt": True},
        b"",
        "47534e3103000b000d00000000000000000000007b2268616c74223a74727565"
        "7d56759c16",
    ),
    "bye": (
        wire.BYE,
        {},
        b"",
        "47534e3103000c000200000000000000000000007b7df6a8ae29",
    ),
    "error": (
        wire.ERROR,
        {"code": "protocol_error", "error": "expected hello"},
        b"",
        "47534e3103000d003200000000000000000000007b22636f6465223a2270726f"
        "746f636f6c5f6572726f72222c226572726f72223a2265787065637465642068"
        "656c6c6f227dad63657b",
    ),
}

#: Fixed handshake inputs for the authentication goldens below: real
#: runs draw both nonces fresh per connection; pinning them here pins
#: the proof *algorithm* (HMAC-SHA256 over ``role|challenge|nonce``).
AUTH_SECRET = "open-sesame"
COORDINATOR_NONCE = "aa" * 16
NODE_NONCE = "bb" * 16
NODE_PROOF = "b1171f1e7c37bd203b49680385435d97c93f7475c8a94d170939eca35f00b6f7"
COORDINATOR_PROOF = (
    "93c4b67f74299b274e6ebfdb88c2e4bb87c6a9818b27f3095173fc7193e5c694"
)

#: The four authenticated-handshake messages, in order, with the fixed
#: nonces above and one curated manifest: coordinator HELLO with nonce,
#: node challenge WELCOME (the node proves first), coordinator proof
#: HELLO, final WELCOME carrying the manifests.
GOLDEN_AUTH_HANDSHAKE = {
    "auth-hello": (
        wire.HELLO,
        {"protocol": 2, "nonce": COORDINATOR_NONCE},
        "47534e31030001003900000000000000000000007b226e6f6e6365223a226161"
        "616161616161616161616161616161616161616161616161616161616161222c"
        "2270726f746f636f6c223a327d82b628a7",
    ),
    "auth-challenge": (
        wire.WELCOME,
        {"protocol": 2, "challenge": NODE_NONCE, "proof": NODE_PROOF},
        "47534e31030002008800000000000000000000007b226368616c6c656e676522"
        "3a22626262626262626262626262626262626262626262626262626262626262"
        "6262222c2270726f6f66223a2262313137316631653763333762643230336234"
        "3936383033383534333564393763393366373437356338613934643137303933"
        "39656361333566303062366637222c2270726f746f636f6c223a327d521bdf27",
    ),
    "auth-reply": (
        wire.HELLO,
        {"protocol": 2, "proof": COORDINATOR_PROOF},
        "47534e31030001005900000000000000000000007b2270726f6f66223a223933"
        "6334623637663734323939623237346536656266646238386332653462623837"
        "633661393831386232376633303935313733666337313933653563363934222c"
        "2270726f746f636f6c223a327d32dba392",
    ),
    "auth-welcome": (
        wire.WELCOME,
        {
            "protocol": 2,
            "shards_held": 0,
            "manifests": [
                {
                    "dataset": "data",
                    "rows": 600,
                    "columns": 1,
                    "digest": "e9a03a93a1541a1b",
                }
            ],
            "authenticated": True,
        },
        "47534e31030002008700000000000000000000007b2261757468656e74696361"
        "746564223a747275652c226d616e696665737473223a5b7b22636f6c756d6e73"
        "223a312c2264617461736574223a2264617461222c22646967657374223a2265"
        "396130336139336131353431613162222c22726f7773223a3630307d5d2c2270"
        "726f746f636f6c223a322c227368617264735f68656c64223a307d18c02b0a",
    ),
}


def _spec(**overrides) -> ShardQuerySpec:
    fields = dict(
        dataset="data",
        version=1,
        num_records=100,
        block_size=10,
        resampling_factor=1,
        plan_seed=424242,
        shards=2,
        output_dimension=1,
        fallback=(0.0,),
        clamp_lo=(0.0,),
        clamp_hi=(100.0,),
    )
    fields.update(overrides)
    return ShardQuerySpec(**fields)


#: The public spec of :func:`_spec` as EXECUTE carries it.
SPEC_HEADER = wire.spec_to_header(_spec())


class TestPinnedConstants:
    def test_kind_numbers_are_pinned(self):
        for name, number in PINNED_KINDS.items():
            assert wire.KIND_NAMES[number] == name

    def test_no_unpinned_kinds_exist(self):
        assert sorted(wire.KIND_NAMES) == sorted(PINNED_KINDS.values())

    def test_magic_and_version(self):
        assert wire.REMOTE_MAGIC == b"GSN1"
        assert wire.REMOTE_PROTOCOL_VERSION == 3

    def test_kind_four_stays_unassigned(self):
        # 4 was PLAN until v3 folded it into EXECUTE.
        assert 4 not in wire.KIND_NAMES
        assert not hasattr(wire, "PLAN")

    def test_node_to_coordinator_allowlist(self):
        # The privacy boundary: the untrusted return channel may only
        # carry these kinds.  Raw rows (SEGMENT) and executable plans
        # must never be legal node -> coordinator traffic.
        assert wire.NODE_TO_COORDINATOR_KINDS == frozenset(
            {
                wire.WELCOME,
                wire.PARTIAL,
                wire.PARTIAL_MISSING,
                wire.QUERY_DONE,
                wire.PONG,
                wire.BYE,
                wire.ERROR,
            }
        )
        assert wire.SEGMENT not in wire.NODE_TO_COORDINATOR_KINDS
        assert wire.EXECUTE not in wire.NODE_TO_COORDINATOR_KINDS
        assert wire.HELLO not in wire.NODE_TO_COORDINATOR_KINDS


class TestGoldenFrames:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_encode_matches_golden(self, name):
        kind, header, body, golden = GOLDEN_FRAMES[name]
        assert wire.encode_frame(kind, header, body).hex() == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_decode_golden_round_trips(self, name):
        kind, header, body, golden = GOLDEN_FRAMES[name]
        frame = wire.decode_frame(bytes.fromhex(golden))
        assert frame.kind == kind
        assert dict(frame.header) == header
        assert frame.body == body
        assert frame.kind_name == name

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_socket_round_trip(self, name):
        kind, header, body, golden = GOLDEN_FRAMES[name]
        left, right = socket.socketpair()
        try:
            wire.send_frame(left, kind, header, body)
            frame = wire.read_frame(right, timeout=5.0)
        finally:
            left.close()
            right.close()
        assert frame.kind == kind
        assert dict(frame.header) == header
        assert frame.body == body

    def test_header_encoding_is_canonical(self):
        # Key order in the input must not change the bytes — this is
        # what makes byte-level goldens possible at all.
        a = wire.encode_frame(wire.PING, {"token": 7, "extra": 1})
        b = wire.encode_frame(wire.PING, {"extra": 1, "token": 7})
        assert a == b

    def test_nan_headers_are_rejected_at_encode_time(self):
        with pytest.raises(ValueError):
            wire.encode_frame(wire.PARTIAL, {"elapsed": float("nan")})


class TestAuthGoldens:
    def test_proofs_are_pinned(self):
        assert (
            wire.auth_proof(
                AUTH_SECRET, wire.AUTH_ROLE_NODE, COORDINATOR_NONCE, NODE_NONCE
            )
            == NODE_PROOF
        )
        assert (
            wire.auth_proof(
                AUTH_SECRET, wire.AUTH_ROLE_COORDINATOR, NODE_NONCE, COORDINATOR_NONCE
            )
            == COORDINATOR_PROOF
        )

    def test_roles_are_bound_into_proofs(self):
        # A captured node proof replayed back as a coordinator proof
        # must not verify: the role string inside the HMAC input breaks
        # reflection even when an attacker controls both nonces.
        assert not wire.verify_proof(
            AUTH_SECRET,
            wire.AUTH_ROLE_COORDINATOR,
            COORDINATOR_NONCE,
            NODE_NONCE,
            NODE_PROOF,
        )

    def test_verify_rejects_wrong_and_non_string_proofs(self):
        assert wire.verify_proof(
            AUTH_SECRET, wire.AUTH_ROLE_NODE, COORDINATOR_NONCE, NODE_NONCE, NODE_PROOF
        )
        for bogus in (None, 7, b"proof", [NODE_PROOF], NODE_PROOF[:-1] + "0"):
            assert not wire.verify_proof(
                AUTH_SECRET,
                wire.AUTH_ROLE_NODE,
                COORDINATOR_NONCE,
                NODE_NONCE,
                bogus,
            )

    def test_manifest_digest_is_pinned(self):
        assert wire.manifest_entry("data", 600, 1) == {
            "dataset": "data",
            "rows": 600,
            "columns": 1,
            "digest": "e9a03a93a1541a1b",
        }
        assert wire.dataset_digest("data", 600, 1) != wire.dataset_digest(
            "data", 601, 1
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_AUTH_HANDSHAKE))
    def test_handshake_frames_encode_to_golden(self, name):
        kind, header, golden = GOLDEN_AUTH_HANDSHAKE[name]
        assert wire.encode_frame(kind, header).hex() == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_AUTH_HANDSHAKE))
    def test_handshake_goldens_round_trip(self, name):
        kind, header, golden = GOLDEN_AUTH_HANDSHAKE[name]
        frame = wire.decode_frame(bytes.fromhex(golden))
        assert frame.kind == kind
        assert dict(frame.header) == header


def _tamper_version(data: bytes, version: int) -> bytes:
    """Rewrite the version field and re-sign the CRC.

    A peer from a different build writes well-formed frames with valid
    checksums — the version check must fire on its own, not ride on a
    CRC failure.
    """
    prefix_off = len(wire.REMOTE_MAGIC)
    body = bytearray(data)
    struct.pack_into("<H", body, prefix_off, version)
    checked = bytes(body[prefix_off:-4])
    struct.pack_into("<I", body, len(body) - 4, zlib.crc32(checked))
    return bytes(body)


class TestRejection:
    GOLDEN = bytes.fromhex(GOLDEN_FRAMES["segment"][3])

    def test_version_mismatch_decode(self):
        with pytest.raises(wire.VersionMismatch) as excinfo:
            wire.decode_frame(_tamper_version(self.GOLDEN, 2))
        assert excinfo.value.theirs == 2

    def test_version_mismatch_socket(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_tamper_version(self.GOLDEN, 99))
            with pytest.raises(wire.VersionMismatch) as excinfo:
                wire.read_frame(right, timeout=5.0)
        finally:
            left.close()
            right.close()
        assert excinfo.value.theirs == 99

    @pytest.mark.parametrize("cut", [0, 1, 4, 8, 15, 16, 30, -1])
    def test_truncated_prefixes_decode(self, cut):
        torn = self.GOLDEN[: cut if cut >= 0 else len(self.GOLDEN) - 1]
        with pytest.raises(wire.TruncatedFrame):
            wire.decode_frame(torn)

    @pytest.mark.parametrize("cut", [1, 4, 8, 15, 16, 30, -1])
    def test_torn_stream_socket(self, cut):
        # A peer that writes part of a frame and closes the connection
        # must produce TruncatedFrame, never a partial message.
        left, right = socket.socketpair()
        try:
            left.sendall(self.GOLDEN[: cut if cut >= 0 else len(self.GOLDEN) - 1])
            left.close()
            with pytest.raises(wire.TruncatedFrame):
                wire.read_frame(right, timeout=5.0)
        finally:
            right.close()

    def test_stalled_stream_times_out_as_truncated(self):
        left, right = socket.socketpair()
        try:
            left.sendall(self.GOLDEN[:10])  # then stall, never close
            with pytest.raises(wire.TruncatedFrame):
                wire.read_frame(right, timeout=0.1)
        finally:
            left.close()
            right.close()

    def test_crc_corruption_every_byte(self):
        # Flipping any single byte after the magic must be detected.
        # (Bytes 4-5 are the version field — those raise
        # VersionMismatch, which is also a FrameError rejection.)
        for i in range(4, len(self.GOLDEN)):
            corrupted = bytearray(self.GOLDEN)
            corrupted[i] ^= 0xFF
            with pytest.raises(wire.FrameError):
                wire.decode_frame(bytes(corrupted))

    def test_bad_magic(self):
        with pytest.raises(wire.CorruptFrame):
            wire.decode_frame(b"XXXX" + self.GOLDEN[4:])

    def test_insane_header_length(self):
        body = bytearray(self.GOLDEN)
        struct.pack_into("<I", body, 8, wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(wire.CorruptFrame):
            wire.decode_frame(bytes(body))

    def test_insane_body_length(self):
        body = bytearray(self.GOLDEN)
        struct.pack_into("<Q", body, 12, wire.MAX_BODY_BYTES + 1)
        with pytest.raises(wire.CorruptFrame):
            wire.decode_frame(bytes(body))

    def test_non_object_header(self):
        header_bytes = b"[1,2]"
        prefix = struct.pack(
            "<HHIQ", wire.REMOTE_PROTOCOL_VERSION, wire.PING, len(header_bytes), 0
        )
        checked = prefix + header_bytes
        data = wire.REMOTE_MAGIC + checked + struct.pack("<I", zlib.crc32(checked))
        with pytest.raises(wire.CorruptFrame):
            wire.decode_frame(data)

    def test_unparseable_header(self):
        header_bytes = b"{not json"
        prefix = struct.pack(
            "<HHIQ", wire.REMOTE_PROTOCOL_VERSION, wire.PING, len(header_bytes), 0
        )
        checked = prefix + header_bytes
        data = wire.REMOTE_MAGIC + checked + struct.pack("<I", zlib.crc32(checked))
        with pytest.raises(wire.CorruptFrame):
            wire.decode_frame(data)


class TestPayloadHelpers:
    def test_array_round_trip(self):
        values = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        header, body = wire.array_to_body(values)
        restored = wire.body_to_array(header, body)
        assert restored.dtype == np.float64
        np.testing.assert_array_equal(restored, values)

    def test_array_dtype_is_pinned_little_endian(self):
        _, body = wire.array_to_body(np.array([[1.0]], dtype=">f8"))
        assert body == struct.pack("<d", 1.0)

    def test_array_body_length_mismatch(self):
        header, body = wire.array_to_body(np.zeros((2, 2)))
        with pytest.raises(wire.CorruptFrame):
            wire.body_to_array(header, body[:-1])

    def test_mask_round_trip(self):
        mask = np.array([True, False, True, True])
        raw = wire.mask_to_bytes(mask)
        assert raw == b"\x01\x00\x01\x01"
        np.testing.assert_array_equal(wire.bytes_to_mask(raw, 4), mask)

    def test_mask_length_mismatch(self):
        with pytest.raises(wire.CorruptFrame):
            wire.bytes_to_mask(b"\x01\x00", 3)

    def test_spec_round_trip(self):
        spec = _spec()
        assert wire.header_to_spec(wire.spec_to_header(spec)) == spec

    def test_spec_round_trip_no_clamp(self):
        spec = _spec(clamp_lo=None, clamp_hi=None)
        assert wire.header_to_spec(wire.spec_to_header(spec)) == spec

    def test_malformed_spec_is_corrupt_frame(self):
        header = wire.spec_to_header(_spec())
        del header["plan_seed"]
        with pytest.raises(wire.CorruptFrame):
            wire.header_to_spec(header)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("block_size", 0),
            ("resampling_factor", 0),
            ("shards", 0),
            ("output_dimension", 0),
            ("num_records", -1),
            ("plan_seed", -1),
        ],
    )
    def test_unplannable_spec_is_corrupt_frame(self, field, value):
        with pytest.raises(wire.CorruptFrame, match="out of range"):
            wire.header_to_spec(dict(SPEC_HEADER, **{field: value}))

    def test_execute_round_trip(self):
        spec = _spec()
        header = {"qid": 4, "spec": wire.spec_to_header(spec), "shards": [1]}
        assert wire.header_to_execute(header) == wire.Execute(4, spec, (1,), 0)
        header["origin"] = 300
        assert wire.header_to_execute(header).origin == 300

    @pytest.mark.parametrize(
        "header",
        [
            {"qid": "x", "shards": [0]},
            {"qid": 1, "spec": SPEC_HEADER},
            {"qid": "x", "spec": SPEC_HEADER, "shards": [0]},
            {"qid": float("inf"), "spec": SPEC_HEADER, "shards": [0]},
            {"qid": 1, "spec": SPEC_HEADER, "shards": 0},
            {"qid": 1, "spec": SPEC_HEADER, "shards": ["a"]},
            {"qid": 1, "spec": [1, 2], "shards": [0]},
            {"qid": 1, "spec": SPEC_HEADER, "shards": [0], "origin": "far"},
        ],
        ids=[
            "no-spec", "no-shards", "text-qid", "infinite-qid", "shards-int",
            "shards-text", "spec-list", "origin-text",
        ],
    )
    def test_malformed_execute_is_corrupt_frame(self, header):
        with pytest.raises(wire.CorruptFrame):
            wire.header_to_execute(header)

    @pytest.mark.parametrize(
        "header, body",
        [
            ({"dataset": "d", "version": "v", "shard": 0, "shape": [1, 1]}, b"\0" * 8),
            ({"dataset": "d", "version": 1, "shape": [1, 1]}, b"\0" * 8),
            ({"dataset": "d", "version": 1, "shard": 0, "shape": "1x1"}, b"\0" * 8),
            ({"dataset": "d", "version": 1, "shard": 0, "shape": [-1, -1]}, b"\0" * 8),
            ({"dataset": "d", "version": 1, "shard": 0, "shape": [1]}, b"\0" * 8),
            ({"dataset": "d", "version": 1, "shard": 0, "shape": [2, 1]}, b"\0" * 8),
        ],
        ids=[
            "text-version", "no-shard", "text-shape", "negative-shape",
            "one-dimensional", "short-body",
        ],
    )
    def test_malformed_segment_is_corrupt_frame(self, header, body):
        with pytest.raises(wire.CorruptFrame):
            wire.decode_segment(wire.Frame(wire.SEGMENT, header, body))

    def test_segment_rows_decode_read_only(self):
        header, body = wire.array_to_body(np.ones((2, 3)))
        header.update(dataset="d", version=2, shard=1)
        segment = wire.decode_segment(wire.Frame(wire.SEGMENT, header, body))
        assert segment[:3] == ("d", 2, 1)
        assert segment.rows.shape == (2, 3)
        assert not segment.rows.flags.writeable


# ----------------------------------------------------------------------
# Live handshake against an in-thread node
# ----------------------------------------------------------------------
@pytest.fixture()
def node():
    server = ShardNodeServer(host="127.0.0.1", port=0)
    host, port = server.start()
    yield host, port
    server.stop()


def _dial(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=5.0)
    wire.send_frame(sock, wire.HELLO, {"protocol": wire.REMOTE_PROTOCOL_VERSION})
    frame = wire.read_frame(sock, timeout=5.0)
    assert frame.kind == wire.WELCOME
    return sock


class TestLiveHandshake:
    def test_hello_welcome(self, node):
        sock = _dial(node)
        sock.close()

    def test_wrong_version_hello_is_refused(self, node):
        sock = socket.create_connection(node, timeout=5.0)
        try:
            wire.send_frame(sock, wire.HELLO, {"protocol": 999})
            frame = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert frame.kind == wire.ERROR
        assert frame.header["code"] == "version_mismatch"

    def test_non_hello_first_frame_is_refused(self, node):
        sock = socket.create_connection(node, timeout=5.0)
        try:
            wire.send_frame(sock, wire.PING, {"token": 1})
            frame = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert frame.kind == wire.ERROR

    def test_ping_pong_echoes_token(self, node):
        sock = _dial(node)
        try:
            wire.send_frame(sock, wire.PING, {"token": 42})
            frame = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert frame.kind == wire.PONG
        assert frame.header["token"] == 42

    def test_shutdown_bye(self, node):
        sock = _dial(node)
        try:
            wire.send_frame(sock, wire.SHUTDOWN, {"halt": False})
            frame = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert frame.kind == wire.BYE

    def test_execute_without_segment_reports_missing(self, node):
        sock = _dial(node)
        try:
            wire.send_frame(
                sock,
                wire.EXECUTE,
                {"qid": 5, "spec": wire.spec_to_header(_spec()), "shards": [0]},
                b"",
            )
            missing = wire.read_frame(sock, timeout=5.0)
            done = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert missing.kind == wire.PARTIAL_MISSING
        assert missing.header == {"qid": 5, "shard": 0, "reason": "no_segment"}
        assert done.kind == wire.QUERY_DONE
        assert done.header["qid"] == 5

    def test_full_query_cycle(self, node):
        import pickle

        from repro.estimators.statistics import Mean

        rng = np.random.default_rng(13)
        values = rng.uniform(0.0, 100.0, size=(100, 1))
        spec = _spec()
        from repro.core.blocks import shard_offsets

        bounds = shard_offsets(spec.num_records, spec.shards)
        sock = _dial(node)
        try:
            for shard in range(spec.shards):
                lo, hi = bounds[shard], bounds[shard + 1]
                header, body = wire.array_to_body(values[lo:hi])
                header.update(
                    {"dataset": spec.dataset, "version": spec.version, "shard": shard}
                )
                wire.send_frame(sock, wire.SEGMENT, header, body)
            wire.send_frame(
                sock,
                wire.EXECUTE,
                {
                    "qid": 9,
                    "spec": wire.spec_to_header(spec),
                    "shards": list(range(spec.shards)),
                },
                pickle.dumps(Mean()),
            )
            partials = {}
            while True:
                frame = wire.read_frame(sock, timeout=10.0)
                if frame.kind == wire.QUERY_DONE:
                    break
                assert frame.kind == wire.PARTIAL
                matrix_len = (
                    int(np.prod(frame.header["shape"], dtype=np.int64)) * 8
                )
                matrix = wire.body_to_array(frame.header, frame.body[:matrix_len])
                mask = wire.bytes_to_mask(
                    frame.body[matrix_len:], frame.header["shape"][0]
                )
                partials[frame.header["shard"]] = (matrix, mask)
        finally:
            sock.close()
        assert sorted(partials) == [0, 1]
        for matrix, mask in partials.values():
            assert mask.all()
            assert ((matrix >= 0.0) & (matrix <= 100.0)).all()


# ----------------------------------------------------------------------
# Read deadlines and session robustness (review regressions)
# ----------------------------------------------------------------------
class TestFrameReadDeadline:
    def test_trickling_peer_cannot_extend_the_read(self):
        """The timeout is one frame-level deadline, not a per-recv one.

        A peer sending one byte per 0.1s keeps every individual recv
        under a 0.4s timeout forever; only a deadline spanning the whole
        frame read catches it.
        """
        reader, writer = socket.socketpair()
        data = wire.encode_frame(wire.PING, {"token": 1})
        stop = threading.Event()

        def trickle():
            for offset in range(len(data)):
                if stop.is_set():
                    return
                try:
                    writer.sendall(data[offset : offset + 1])
                except OSError:
                    return
                stop.wait(0.1)

        thread = threading.Thread(target=trickle, daemon=True)
        started = time.monotonic()
        thread.start()
        try:
            with pytest.raises(wire.TruncatedFrame):
                wire.read_frame(reader, timeout=0.4)
            assert time.monotonic() - started < 2.0
        finally:
            stop.set()
            thread.join(timeout=5.0)
            reader.close()
            writer.close()


class TestNodeSessionRobustness:
    def test_new_coordinator_preempts_idle_dead_session(self):
        """A coordinator that died without FIN must not wedge the node.

        The node watches its listener while a session is idle: a
        reconnecting coordinator preempts the silent one instead of
        rotting in the accept backlog.
        """
        server = ShardNodeServer(host="127.0.0.1", port=0)
        address = server.start()
        first = None
        second = None
        try:
            # First coordinator completes the handshake then goes
            # silent forever (a crashed host never sends FIN).
            first = socket.create_connection(address, timeout=5.0)
            wire.send_frame(
                first, wire.HELLO, {"protocol": wire.REMOTE_PROTOCOL_VERSION}
            )
            assert wire.read_frame(first, timeout=5.0).kind == wire.WELCOME
            # A second coordinator dialing in must still get served.
            second = socket.create_connection(address, timeout=5.0)
            wire.send_frame(
                second, wire.HELLO, {"protocol": wire.REMOTE_PROTOCOL_VERSION}
            )
            assert wire.read_frame(second, timeout=10.0).kind == wire.WELCOME
            wire.send_frame(second, wire.PING, {"token": 7})
            pong = wire.read_frame(second, timeout=5.0)
            assert pong.kind == wire.PONG
            assert pong.header["token"] == 7
        finally:
            for sock in (first, second):
                if sock is not None:
                    sock.close()
            server.stop()

    def test_connect_and_close_probe_does_not_preempt(self, node):
        """A connect-and-close port scan must not kill a live session.

        Preemption only happens after the newcomer *completes* a valid
        handshake; a probe that dials and hangs up (or never speaks)
        is discarded and the original coordinator keeps its session.
        """
        sock = _dial(node)
        try:
            for _ in range(3):
                probe = socket.create_connection(node, timeout=5.0)
                probe.close()
            # Give the node time to notice (and wrongly act on) the
            # probes before we check the session still answers.
            time.sleep(0.3)
            wire.send_frame(sock, wire.PING, {"token": 31})
            pong = wire.read_frame(sock, timeout=5.0)
            assert pong.kind == wire.PONG
            assert pong.header["token"] == 31
        finally:
            sock.close()

    def test_garbage_dialer_does_not_preempt(self, node):
        """Bytes that never form a valid HELLO must not evict a session."""
        sock = _dial(node)
        garbage = None
        try:
            garbage = socket.create_connection(node, timeout=5.0)
            garbage.sendall(b"\x00" * 64)
            time.sleep(0.3)
            wire.send_frame(sock, wire.PING, {"token": 32})
            pong = wire.read_frame(sock, timeout=5.0)
            assert pong.kind == wire.PONG
            assert pong.header["token"] == 32
        finally:
            if garbage is not None:
                garbage.close()
            sock.close()


# ----------------------------------------------------------------------
# Malformed query frames against a live node
# ----------------------------------------------------------------------
#: ``(kind, header)`` frames a node must refuse without dying.  The body
#: is 8 zero bytes, one float: right for a ``[1, 1]`` segment.
MALFORMED_QUERY_FRAMES = {
    "execute-text-qid-no-spec": (wire.EXECUTE, {"qid": "x", "shards": [0]}),
    "execute-text-qid": (
        wire.EXECUTE, {"qid": "x", "spec": SPEC_HEADER, "shards": [0]}
    ),
    "execute-no-shards": (wire.EXECUTE, {"qid": 1, "spec": SPEC_HEADER}),
    "execute-spec-not-object": (
        wire.EXECUTE, {"qid": 1, "spec": "spec", "shards": [0]}
    ),
    # Well-typed geometry no node can plan used to kill the serve
    # thread from inside the shard kernel.
    "execute-zero-block-size": (
        wire.EXECUTE,
        {"qid": 1, "spec": dict(SPEC_HEADER, block_size=0), "shards": [0]},
    ),
    "execute-negative-seed": (
        wire.EXECUTE,
        {"qid": 1, "spec": dict(SPEC_HEADER, plan_seed=-1), "shards": [0]},
    ),
    "segment-text-version": (
        wire.SEGMENT,
        {"dataset": "data", "version": "v", "shard": 0, "shape": [1, 1]},
    ),
    "segment-no-shard": (
        wire.SEGMENT, {"dataset": "data", "version": 1, "shape": [1, 1]}
    ),
    "segment-text-shape": (
        wire.SEGMENT,
        {"dataset": "data", "version": 1, "shard": 0, "shape": "1x1"},
    ),
    "segment-shape-overflow": (
        wire.SEGMENT,
        {"dataset": "data", "version": 1, "shard": 0, "shape": [2**64, 1]},
    ),
    # 274177 * 67280421310721 == 2**64 + 1, which int64 wraps to the one
    # float the 8-byte body holds.
    "segment-shape-wraps": (
        wire.SEGMENT,
        {"dataset": "data", "version": 1, "shard": 0,
         "shape": [274177, 67280421310721]},
    ),
}


def _read_until_closed(sock) -> list:
    """Every frame the node sends until it hangs up."""
    frames = []
    while True:
        try:
            frames.append(wire.read_frame(sock, timeout=5.0))
        except wire.FrameError:
            return frames


class TestMalformedQueryFrames:
    """A header that does not decode ends one session, never the node."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_QUERY_FRAMES))
    def test_refused_and_node_keeps_serving(self, node, name):
        kind, header = MALFORMED_QUERY_FRAMES[name]
        sock = _dial(node)
        try:
            wire.send_frame(sock, kind, header, b"\0" * 8)
            frames = _read_until_closed(sock)
        finally:
            sock.close()
        assert [f.kind for f in frames] == [wire.ERROR]
        assert frames[0].header["code"] == "protocol_error"
        # The serve loop survived: the next coordinator is welcomed.
        again = _dial(node)
        try:
            wire.send_frame(again, wire.PING, {"token": 5})
            assert wire.read_frame(again, timeout=5.0).kind == wire.PONG
        finally:
            again.close()

    def test_malformed_spec_is_refused_without_a_partial(self, node):
        """EXECUTE's nested spec is parsed before any shard runs."""
        import pickle

        from repro.estimators.statistics import Mean

        spec = dict(SPEC_HEADER)
        del spec["plan_seed"]
        sock = _dial(node)
        try:
            header, body = wire.array_to_body(np.ones((50, 1)))
            header.update(dataset="data", version=1, shard=0)
            wire.send_frame(sock, wire.SEGMENT, header, body)
            wire.send_frame(
                sock,
                wire.EXECUTE,
                {"qid": 3, "spec": spec, "shards": [0]},
                pickle.dumps(Mean()),
            )
            frames = _read_until_closed(sock)
        finally:
            sock.close()
        assert [f.kind for f in frames] == [wire.ERROR]
        assert frames[0].header["code"] == "protocol_error"
        assert "plan_seed" in frames[0].header["error"]

    def test_coordinator_reports_a_non_integer_refusal_as_skew(self):
        """A refusal naming a non-integer version is still version skew."""
        from repro.observability import MetricsRegistry
        from repro.runtime.remote import RemoteShardBackend

        listener = socket.create_server(("127.0.0.1", 0))

        def refusing_node():
            conn, _ = listener.accept()
            try:
                wire.read_frame(conn, timeout=5.0)
                wire.send_frame(
                    conn, wire.ERROR, {"code": "version_mismatch", "protocol": "x"}
                )
            finally:
                conn.close()

        thread = threading.Thread(target=refusing_node, daemon=True)
        thread.start()
        backend = RemoteShardBackend(
            shards=2,
            nodes=["{0}:{1}".format(*listener.getsockname())],
            metrics=MetricsRegistry(),
            heartbeat_interval=None,
        )
        try:
            with pytest.raises(wire.VersionMismatch) as excinfo:
                backend._session(0)
        finally:
            backend.close()
            thread.join(timeout=5.0)
            listener.close()
        assert excinfo.value.theirs == "x"

    def test_non_integer_protocol_is_a_version_mismatch(self, node):
        sock = socket.create_connection(node, timeout=5.0)
        try:
            wire.send_frame(sock, wire.HELLO, {"protocol": "v"})
            frame = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert frame.kind == wire.ERROR
        assert frame.header["code"] == "version_mismatch"
        _dial(node).close()


# ----------------------------------------------------------------------
# One EXECUTE per dispatch
# ----------------------------------------------------------------------
class TestDispatchFrames:
    """What the coordinator sends each node for one query, pinned."""

    def test_each_node_gets_hello_its_segments_then_one_execute(self):
        import pickle

        from repro.estimators.statistics import Mean
        from repro.observability import MetricsRegistry
        from repro.runtime.remote import RemoteShardBackend

        sent = []

        def capture(direction, raw):
            if direction == "send":
                sent.append(wire.decode_frame(raw))

        spec = _spec(num_records=400, block_size=20, shards=4)
        values = np.random.default_rng(3).uniform(0.0, 100.0, size=(400, 1))
        backend = RemoteShardBackend(
            shards=4,
            nodes=2,
            metrics=MetricsRegistry(),
            frame_observer=capture,
            heartbeat_interval=None,
        )
        try:
            _, first = backend.run_sharded(pickle.dumps(Mean()), values, spec)
            first_frames, sent[:] = list(sent), []
            _, second = backend.run_sharded(pickle.dumps(Mean()), values, spec)
            second_frames = list(sent)
        finally:
            backend.close()
        assert first.succeeded.all() and second.succeeded.all()
        # Node 0 is dialed and fed, then node 1: HELLO, its two
        # SEGMENTs, then exactly one EXECUTE each.
        kinds = [f.kind for f in first_frames]
        assert kinds == [wire.HELLO, wire.SEGMENT, wire.SEGMENT, wire.EXECUTE] * 2
        segments = [f.header["shard"] for f in first_frames if f.kind == wire.SEGMENT]
        assert segments == [0, 1, 2, 3]
        # A warm query is one EXECUTE per node and nothing else.
        assert [f.kind for f in second_frames] == [wire.EXECUTE, wire.EXECUTE]
        for frames in (first_frames, second_frames):
            executes = [
                wire.header_to_execute(f.header)
                for f in frames
                if f.kind == wire.EXECUTE
            ]
            assert [e.shards for e in executes] == [(0, 1), (2, 3)]
            assert all(e.spec == spec for e in executes)
            assert "origin" not in frames[-1].header  # pushed, not curated


# ----------------------------------------------------------------------
# Copy-free frames: the bytes on the wire, receive allocation, node rows
# ----------------------------------------------------------------------
def _capture_send(kind, header, body) -> bytes:
    """The exact bytes :func:`wire.send_frame` writes to a socket."""
    left, right = socket.socketpair()
    # A socket with a timeout takes short writes, as the coordinator's
    # sessions do; a 1 MiB body overflows the pair's buffer several times.
    left.settimeout(5.0)
    received = bytearray()

    def drain():
        while chunk := right.recv(1 << 16):
            received.extend(chunk)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        wire.send_frame(left, kind, header, body)
        left.shutdown(socket.SHUT_WR)
        reader.join(timeout=10.0)
        assert not reader.is_alive()
    finally:
        left.close()
        right.close()
    return bytes(received)


class TestWireIdentity:
    """Gathered sends write exactly the bytes :func:`encode_frame` pins."""

    @pytest.mark.parametrize("size", [0, 1, 65535, 1 << 20, (1 << 20) + 1])
    def test_send_frame_writes_encode_frame_bytes(self, size):
        body = np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes()
        header = {"dataset": "d", "shard": 1}
        sent = _capture_send(wire.SEGMENT, header, body)
        assert sent == wire.encode_frame(wire.SEGMENT, header, body)
        assert wire.decode_frame(sent).body == body

    def test_array_body_is_the_rows_own_memory(self):
        resident = np.arange(40, dtype=np.float64).reshape(10, 4)
        _, body = wire.array_to_body(resident[2:6])
        assert np.shares_memory(np.frombuffer(body, dtype="<f8"), resident)

    @pytest.mark.parametrize("dataset", ["d", "dd"])  # odd and even headers
    def test_segment_from_a_strided_slice_decodes_to_aligned_rows(self, dataset):
        resident = np.random.default_rng(5).normal(size=(64, 6))
        source = resident[::3, 1:4]
        assert not source.flags.c_contiguous
        header, body = wire.array_to_body(source)
        header.update(dataset=dataset, version=1, shard=0)
        left, right = socket.socketpair()
        try:
            wire.send_frame(left, wire.SEGMENT, header, body)
            segment = wire.decode_segment(wire.read_frame(right, timeout=5.0))
        finally:
            left.close()
            right.close()
        rows = segment.rows
        assert rows.flags.aligned and not rows.flags.writeable
        assert rows.shape == source.shape
        assert rows.tobytes() == np.ascontiguousarray(source).tobytes()

    def test_frame_observer_sees_exactly_the_wire_bytes(self, node):
        """perfbench's ``remote.bytes_per_query`` counts what crosses."""
        import pickle

        from repro.estimators.statistics import Mean
        from repro.observability import MetricsRegistry
        from repro.runtime.remote import RemoteShardBackend

        observed = {"send": bytearray(), "recv": bytearray()}
        crossed = {"send": bytearray(), "recv": bytearray()}
        listener = socket.create_server(("127.0.0.1", 0))

        def pump(source, sink, record):
            while chunk := source.recv(1 << 16):
                record.extend(chunk)
                sink.sendall(chunk)
            try:
                sink.shutdown(socket.SHUT_WR)
            except OSError:
                pass

        def proxy():
            coordinator, _ = listener.accept()
            upstream = socket.create_connection(node)
            pumps = [
                threading.Thread(
                    target=pump, args=(coordinator, upstream, crossed["send"])
                ),
                threading.Thread(
                    target=pump, args=(upstream, coordinator, crossed["recv"])
                ),
            ]
            for thread in pumps:
                thread.start()
            for thread in pumps:
                thread.join(timeout=10.0)
            coordinator.close()
            upstream.close()

        relay = threading.Thread(target=proxy, daemon=True)
        relay.start()
        spec = _spec(num_records=20_000, block_size=100, shards=2)
        values = np.random.default_rng(8).uniform(0.0, 100.0, size=(20_000, 1))
        backend = RemoteShardBackend(
            shards=2,
            nodes=[listener.getsockname()[:2]],
            metrics=MetricsRegistry(),
            frame_observer=lambda way, raw: observed[way].extend(raw),
            heartbeat_interval=None,
        )
        try:
            for _ in range(2):
                _, batch = backend.run_sharded(pickle.dumps(Mean()), values, spec)
                assert batch.succeeded.all()
        finally:
            backend.close()
            relay.join(timeout=10.0)
            listener.close()
        assert not relay.is_alive()
        assert len(crossed["send"]) > 20_000 * 8  # both segments crossed
        assert observed == crossed


class TestBoundedReceive:
    """A declared length is never an up-front allocation."""

    @pytest.mark.parametrize("ending", ["close", "stall"])
    def test_declared_max_body_allocates_about_one_mib(self, ending):
        import tracemalloc

        header = b"{}"
        prefix = wire.REMOTE_MAGIC + struct.pack(
            "<HHIQ",
            wire.REMOTE_PROTOCOL_VERSION,
            wire.SEGMENT,
            len(header),
            wire.MAX_BODY_BYTES,
        )
        left, right = socket.socketpair()
        tracemalloc.start()
        try:
            left.sendall(prefix + header)
            if ending == "close":
                left.close()
            with pytest.raises(wire.TruncatedFrame):
                wire.read_frame(right, timeout=0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            left.close()
            right.close()
        assert peak < 4 << 20


class TestNodeSessionGuard:
    def test_memory_error_ends_only_the_session(self, node, monkeypatch):
        """An unexpected exception is refused with ``internal``; the node
        keeps serving and the next dial gets WELCOME."""
        from repro.runtime.remote import node as node_module

        def exhausted(*args, **kwargs):
            raise MemoryError("plan too large for this host")

        monkeypatch.setattr(node_module, "execute_shard_rows", exhausted)
        header, body = wire.array_to_body(np.ones((50, 1)))
        header.update(dataset="data", version=1, shard=0)
        sock = _dial(node)
        try:
            wire.send_frame(sock, wire.SEGMENT, header, body)
            wire.send_frame(
                sock,
                wire.EXECUTE,
                {"qid": 3, "spec": SPEC_HEADER, "shards": [0]},
                b"",
            )
            frames = _read_until_closed(sock)
        finally:
            sock.close()
        assert [f.kind for f in frames] == [wire.ERROR]
        assert frames[0].header == {
            "code": "internal",
            "error": "internal error: MemoryError",
        }
        again = _dial(node)
        try:
            wire.send_frame(again, wire.PING, {"token": 6})
            assert wire.read_frame(again, timeout=5.0).kind == wire.PONG
        finally:
            again.close()


# ----------------------------------------------------------------------
# Live authentication battery (curator mode)
# ----------------------------------------------------------------------
CURATED_ROWS = np.arange(12, dtype=np.float64).reshape(6, 2)


@pytest.fixture()
def secret_node():
    server = ShardNodeServer(
        host="127.0.0.1",
        port=0,
        secret=AUTH_SECRET,
        curated={"data": CURATED_ROWS},
    )
    address = server.start()
    yield address, server
    server.stop()


def _auth_dial(address, secret):
    """Run the coordinator side of the four-message auth handshake.

    Returns ``(sock, final_frame)`` — the caller owns the socket.  The
    final frame is the authenticated WELCOME on success or the node's
    refusal ERROR otherwise.
    """
    sock = socket.create_connection(address, timeout=5.0)
    nonce = COORDINATOR_NONCE
    wire.send_frame(
        sock,
        wire.HELLO,
        {"protocol": wire.REMOTE_PROTOCOL_VERSION, "nonce": nonce},
    )
    challenge = wire.read_frame(sock, timeout=5.0)
    if challenge.kind != wire.WELCOME:
        return sock, challenge
    node_nonce = challenge.header["challenge"]
    assert wire.verify_proof(
        AUTH_SECRET,
        wire.AUTH_ROLE_NODE,
        nonce,
        node_nonce,
        challenge.header["proof"],
    ), "node proved itself with the wrong secret"
    wire.send_frame(
        sock,
        wire.HELLO,
        {
            "protocol": wire.REMOTE_PROTOCOL_VERSION,
            "proof": wire.auth_proof(
                secret, wire.AUTH_ROLE_COORDINATOR, node_nonce, nonce
            ),
        },
    )
    return sock, wire.read_frame(sock, timeout=5.0)


class TestLiveAuthentication:
    def test_correct_secret_completes_and_reports_manifests(self, secret_node):
        address, _server = secret_node
        sock, final = _auth_dial(address, AUTH_SECRET)
        try:
            assert final.kind == wire.WELCOME
            assert final.header["authenticated"] is True
            assert final.header["manifests"] == [wire.manifest_entry("data", 6, 2)]
            # The session is fully live after the handshake.
            wire.send_frame(sock, wire.PING, {"token": 3})
            pong = wire.read_frame(sock, timeout=5.0)
            assert pong.kind == wire.PONG
            assert pong.header["token"] == 3
        finally:
            sock.close()

    def test_wrong_secret_is_refused_before_any_query_frame(self, secret_node):
        address, server = secret_node
        sock, final = _auth_dial(address, "not-the-secret")
        try:
            assert final.kind == wire.ERROR
            assert final.header["code"] == "auth_failed"
            # The node hung up: nothing after the refusal is served.
            with pytest.raises(wire.FrameError):
                wire.send_frame(sock, wire.PING, {"token": 4})
                wire.read_frame(sock, timeout=2.0)
        finally:
            sock.close()
        assert not server._segments

    def test_hello_without_nonce_is_refused(self, secret_node):
        address, _server = secret_node
        sock = socket.create_connection(address, timeout=5.0)
        try:
            wire.send_frame(
                sock, wire.HELLO, {"protocol": wire.REMOTE_PROTOCOL_VERSION}
            )
            final = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert final.kind == wire.ERROR
        assert final.header["code"] == "auth_failed"

    def test_query_instead_of_proof_is_refused(self, secret_node):
        """A dialer that skips the proof gets auth_failed, not service."""
        address, _server = secret_node
        sock = socket.create_connection(address, timeout=5.0)
        try:
            wire.send_frame(
                sock,
                wire.HELLO,
                {
                    "protocol": wire.REMOTE_PROTOCOL_VERSION,
                    "nonce": COORDINATOR_NONCE,
                },
            )
            challenge = wire.read_frame(sock, timeout=5.0)
            assert challenge.kind == wire.WELCOME
            wire.send_frame(sock, wire.PING, {"token": 9})
            final = wire.read_frame(sock, timeout=5.0)
        finally:
            sock.close()
        assert final.kind == wire.ERROR
        assert final.header["code"] == "auth_failed"

    def test_segment_push_to_curated_dataset_is_refused(self):
        """Curated rows are node property: SEGMENT for them is an error."""
        server = ShardNodeServer(
            host="127.0.0.1", port=0, curated={"data": CURATED_ROWS}
        )
        address = server.start()
        try:
            sock = _dial(address)
            try:
                header, body = wire.array_to_body(np.zeros((3, 2)))
                header.update({"dataset": "data", "version": 1, "shard": 0})
                wire.send_frame(sock, wire.SEGMENT, header, body)
                final = wire.read_frame(sock, timeout=5.0)
            finally:
                sock.close()
            assert final.kind == wire.ERROR
            assert "curated" in final.header["error"]
        finally:
            server.stop()
