"""Wire protocol: framing, payload packing, and address parsing."""

import io
import pickle
import socket
import threading

import pytest

from repro.energy.events import EnergyEvents
from repro.eval.parallel import SweepPoint
from repro.serve import protocol

#: set when unpickling called _trip: unpack_record never may
_TRIPPED = []


def _trip():
    _TRIPPED.append(True)


class _Hostile:
    def __reduce__(self):
        return (_trip, ())


def _loopback():
    """A connected (client, server) socket pair."""
    a, b = socket.socketpair()
    return a, b


class TestFraming:
    def test_round_trip(self):
        a, b = _loopback()
        try:
            protocol.send_frame(a, {"op": "ping", "n": 7})
            assert protocol.recv_frame(b) == {"op": "ping", "n": 7}
        finally:
            a.close()
            b.close()

    def test_many_frames_one_stream(self):
        a, b = _loopback()
        try:
            for i in range(20):
                protocol.send_frame(a, {"i": i})
            for i in range(20):
                assert protocol.recv_frame(b) == {"i": i}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = _loopback()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = _loopback()
        try:
            frame = protocol.encode_frame({"op": "stats"})
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = _loopback()
        try:
            a.sendall(protocol._HEADER.pack(protocol.MAX_FRAME + 1))
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = _loopback()
        try:
            body = b"[1,2,3]"
            a.sendall(protocol._HEADER.pack(len(body)) + body)
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()


class TestPayloads:
    def test_record_pack_round_trip(self):
        obj = {"cycles": 123, "events": [1, 2, ("a", 3)]}
        assert protocol.unpack_record(protocol.pack_record(obj)) == obj

    def test_unpack_record_resolves_only_record_classes(self):
        with pytest.raises(pickle.UnpicklingError):
            protocol.unpack_record(protocol.pack_record(_Hostile()))
        with pytest.raises(pickle.UnpicklingError):
            protocol.unpack_record(
                protocol.pack_record({"nested": [_Hostile()]}))
        assert _TRIPPED == []
        events = EnergyEvents()
        assert protocol.unpack_record(
            protocol.pack_record({"events": events})) == {"events": events}

    def test_point_wire_round_trip(self):
        pt = SweepPoint("sgemm-uc", "io+x", mode="specialized",
                        scale="tiny", seed=3, schedule_cirs=True)
        back = protocol.point_from_wire(protocol.point_to_wire(pt))
        assert back == pt

    def test_adhoc_config_is_rejected(self):
        pt = SweepPoint("sgemm-uc", object())
        with pytest.raises(protocol.ProtocolError):
            protocol.point_to_wire(pt)

    def test_malformed_wire_point_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.point_from_wire({"config": "io"})   # no kernel
        with pytest.raises(protocol.ProtocolError):
            protocol.point_from_wire({"kernel": "sgemm-uc",
                                      "config": "io", "seed": "NaN?x"})


class TestAddresses:
    def test_explicit_unix(self):
        assert protocol.parse_address("unix:/run/s.sock") \
            == ("unix", "/run/s.sock", None)

    def test_bare_path_is_unix(self):
        assert protocol.parse_address("/tmp/x/s.sock") \
            == ("unix", "/tmp/x/s.sock", None)
        assert protocol.parse_address("serve.sock") \
            == ("unix", "serve.sock", None)

    def test_host_port(self):
        assert protocol.parse_address("127.0.0.1:7340") \
            == ("tcp", "127.0.0.1", 7340)
        assert protocol.parse_address(":9000") \
            == ("tcp", "127.0.0.1", 9000)

    def test_garbage_port(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_address("host:notaport")
