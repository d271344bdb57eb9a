"""Property tests for the transport's framing over a scripted socket.

A fake socket hands out a byte stream in chunks cut at chosen
boundaries, the way TCP may deliver it.  Whatever the cuts, the
envelopes read back equal the ones written; a stream cut short anywhere
fails with :class:`TransportError`; a frame that has arrived whole costs
exactly two ``recv`` calls (the head, then header and payload
together); and a connection re-arms its socket timeout only when the
timeout changes.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransportError
from repro.net.transport import (
    KIND_ANNOUNCE,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Connection,
    Envelope,
)

LIMIT = 1 << 20


class ScriptedSocket:
    """Serves ``chunks`` in order; one ``recv(n)`` returns at most
    ``n`` bytes of the current chunk, and ``b""`` once all are out
    (the peer closed)."""

    def __init__(self, chunks=(), timeout=None):
        self._chunks = deque(chunk for chunk in chunks if chunk)
        self._timeout = timeout
        self.recv_calls = 0
        self.settimeout_calls = []

    def recv(self, count):
        self.recv_calls += 1
        if not self._chunks:
            return b""
        chunk = self._chunks.popleft()
        if len(chunk) > count:
            self._chunks.appendleft(chunk[count:])
        return chunk[:count]

    def settimeout(self, timeout):
        self.settimeout_calls.append(timeout)
        self._timeout = timeout

    def gettimeout(self):
        return self._timeout

    def setsockopt(self, *args):
        pass

    def shutdown(self, how):
        pass

    def close(self):
        pass


json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.text(max_size=12),
)
envelopes = st.builds(
    Envelope,
    kind=st.sampled_from([KIND_TASK, KIND_RESULT, KIND_ERROR,
                          KIND_HEARTBEAT, KIND_SHUTDOWN, KIND_ANNOUNCE]),
    header=st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
    payload=st.binary(max_size=300),
)
streams = st.lists(envelopes, min_size=1, max_size=5)


def _blob(sent):
    return b"".join(envelope.encode(LIMIT) for envelope in sent)


def _split(blob, cuts):
    bounds = [0, *sorted({cut % len(blob) for cut in cuts}), len(blob)]
    return [blob[a:b] for a, b in zip(bounds, bounds[1:])]


def _read_all(sock, count):
    connection = Connection(sock, LIMIT)
    return [connection.recv() for _ in range(count)]


class TestFraming:
    @settings(max_examples=80, deadline=None)
    @given(sent=streams, cuts=st.lists(st.integers(min_value=0),
                                       max_size=12))
    def test_any_split_reads_back_equal(self, sent, cuts):
        sock = ScriptedSocket(_split(_blob(sent), cuts))
        assert _read_all(sock, len(sent)) == sent
        # Nothing is left: one more read finds the peer gone.
        with pytest.raises(TransportError):
            Connection(sock, LIMIT).recv()

    @settings(max_examples=80, deadline=None)
    @given(sent=streams, cut=st.integers(min_value=0),
           cuts=st.lists(st.integers(min_value=0), max_size=6))
    def test_a_cut_anywhere_is_a_transport_error(self, sent, cut,
                                                 cuts):
        blob = _blob(sent)
        truncated = blob[:cut % len(blob)]
        sock = ScriptedSocket(_split(truncated, cuts) if truncated
                              else [])
        with pytest.raises(TransportError):
            _read_all(sock, len(sent))

    @settings(max_examples=80, deadline=None)
    @given(sent=streams, one_chunk=st.booleans())
    def test_a_whole_frame_costs_two_reads(self, sent, one_chunk):
        frames = [envelope.encode(LIMIT) for envelope in sent]
        sock = ScriptedSocket([b"".join(frames)] if one_chunk
                              else frames)
        connection = Connection(sock, LIMIT)
        for envelope in sent:
            before = sock.recv_calls
            assert connection.recv() == envelope
            assert sock.recv_calls - before == 2


class TestTimeoutCache:
    @settings(max_examples=40, deadline=None)
    @given(timeout=st.floats(min_value=0.01, max_value=100.0),
           reads=st.integers(min_value=1, max_value=6))
    def test_repeated_timeout_is_set_once(self, timeout, reads):
        frame = Envelope(KIND_HEARTBEAT, {"nonce": 1}).encode(LIMIT)
        sock = ScriptedSocket([frame] * (reads + 1))
        connection = Connection(sock, LIMIT)
        for _ in range(reads):
            connection.recv(timeout=timeout)
        assert sock.settimeout_calls == [timeout]
        # A send-side timeout set in between is undone by the next
        # receive, which asks for its own again.
        connection.set_socket_timeout(None)
        connection.recv(timeout=timeout)
        assert sock.settimeout_calls == [timeout, None, timeout]

    def test_timeout_the_socket_already_has_is_not_reset(self):
        frame = Envelope(KIND_HEARTBEAT).encode(LIMIT)
        sock = ScriptedSocket([frame, frame], timeout=5.0)
        connection = Connection(sock, LIMIT)
        connection.recv(timeout=5.0)
        connection.recv(timeout=None)
        assert sock.settimeout_calls == [None]
