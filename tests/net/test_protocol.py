"""Unit tests for the ndjson wire protocol (no sockets involved)."""

import json

import pytest

from repro.net import protocol
from repro.net.protocol import (
    FrameBuffer,
    ProtocolError,
    decode_frame,
    encode_frame,
    event_from_request,
    parse_request,
)
from tests.conftest import make_event


class TestFraming:
    def test_roundtrip(self):
        frame = {"type": "ingest", "seq": 3, "event": {"a": 1}}
        line = encode_frame(frame)
        assert line.endswith(b"\n")
        assert b" " not in line  # compact separators
        assert decode_frame(line[:-1]) == frame

    def test_garbage_is_a_typed_bad_frame(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"{not json")
        assert exc.value.code == protocol.ERR_BAD_FRAME

    def test_non_object_is_a_typed_bad_frame(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"[1,2,3]")
        assert exc.value.code == protocol.ERR_BAD_FRAME

    def test_invalid_utf8_is_a_typed_bad_frame(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"\xff\xfe\x00")
        assert exc.value.code == protocol.ERR_BAD_FRAME


class TestParseRequest:
    def test_valid_envelope(self):
        assert parse_request({"type": "health", "seq": 5}) == ("health", 5)

    def test_seq_defaults_to_zero(self):
        assert parse_request({"type": "flush"}) == ("flush", 0)

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"type": "purchase", "seq": 1})
        assert exc.value.code == protocol.ERR_BAD_FRAME

    @pytest.mark.parametrize("seq", [-1, 1.5, "7", True, None])
    def test_bad_seq_rejected(self, seq):
        with pytest.raises(ProtocolError) as exc:
            parse_request({"type": "ingest", "seq": seq})
        assert exc.value.code == protocol.ERR_BAD_REQUEST


class TestEventFromRequest:
    def test_roundtrip(self):
        event = make_event(123.0, "KERNEL-N-002", record_id=9)
        decoded = event_from_request(
            json.loads(encode_frame({"event": event.as_dict()}))
        )
        assert decoded == event

    def test_missing_event_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            event_from_request({"type": "ingest", "seq": 1})
        assert exc.value.code == protocol.ERR_BAD_EVENT

    def test_unconstructible_event_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            event_from_request({"event": {"timestamp": "not-a-number"}})
        assert exc.value.code == protocol.ERR_BAD_EVENT

    @pytest.mark.parametrize("field", ["event_type", "location", "entry_data"])
    @pytest.mark.parametrize("value", ["R00-\ud800", 7, None])
    def test_text_field_must_be_utf8_text(self, field, value):
        payload = make_event(1.0, "KERNEL-N-002").as_dict()
        payload[field] = value
        frame = json.loads(encode_frame({"event": payload}))
        with pytest.raises(ProtocolError) as exc:
            event_from_request(frame)
        assert exc.value.code == protocol.ERR_BAD_EVENT
        assert field in str(exc.value)


class TestFrameBuffer:
    def test_frames_split_across_chunks(self):
        buf = FrameBuffer()
        assert buf.feed(b'{"a":') == []
        assert buf.pending_bytes == 5
        assert buf.feed(b'1}\n{"b":2}\n{"c"') == [b'{"a":1}', b'{"b":2}']
        assert buf.feed(b":3}\n") == [b'{"c":3}']
        assert buf.pending_bytes == 0

    def test_empty_lines_are_keepalives(self):
        assert FrameBuffer().feed(b"\n\n{}\n\n") == [b"{}"]

    def test_oversized_complete_line_surfaces_none(self):
        buf = FrameBuffer(max_frame_bytes=8)
        assert buf.feed(b"x" * 20 + b"\n" + b'{"ok":1}\n') == [
            None,
            b'{"ok":1}',
        ]

    def test_oversized_frame_discarded_while_streaming(self):
        # The head of the huge frame is dropped before its newline
        # arrives: the buffer must not hold the bytes, and the frame
        # still surfaces as None in the right stream position.
        buf = FrameBuffer(max_frame_bytes=8)
        assert buf.feed(b"y" * 100) == []
        assert buf.pending_bytes == 0
        assert buf.feed(b"y" * 100) == []
        assert buf.feed(b"\n" + b'{"ok":2}\n') == [None, b'{"ok":2}']
        assert buf.feed(b'{"ok":3}\n') == [b'{"ok":3}']
