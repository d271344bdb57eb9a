"""Length-prefixed framed TCP transport for the distributed runtime.

One frame carries one :class:`Envelope` — a typed message with a small
JSON header and an opaque binary payload (ciphertext tensors use the
:mod:`repro.crypto.serialize` wire formats verbatim):

``magic(4) | version(1) | kind(1) | header_len(4) | payload_len(4)``
followed by ``header_len`` bytes of UTF-8 JSON and ``payload_len``
payload bytes.  All integers are big-endian.

Envelope kinds mirror the protocol's message types: ``hello`` /
``welcome`` (handshake), ``task`` / ``result`` / ``error`` (stage
work), ``heartbeat`` / ``heartbeat-ack`` (liveness), ``shutdown``,
and the membership trio ``join`` / ``leave`` / ``announce``
(docs/ELASTIC.md) spoken against the coordinator's membership
listener rather than a worker.

Both directions enforce a hard frame-size ceiling
(:attr:`~repro.config.RuntimeConfig.net_max_frame_bytes`): oversized
sends and oversized *declared* receive lengths fail with
:class:`~repro.errors.TransportError` before any allocation, so a
malicious or corrupted peer cannot exhaust memory.  Every malformed
frame — bad magic, unknown kind, truncation, invalid header JSON —
is a :class:`TransportError`, never silent garbage.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from ..config import DEFAULT_CONFIG
from ..errors import TransportError
from ..observability import OBS_OFF

#: Frame magic for transport envelopes (distinct from the ``PPST``
#: tensor magic so a stray tensor blob cannot be mistaken for a frame).
MAGIC = b"PPNT"
#: Transport protocol version (checked in the handshake).
VERSION = 1

_FRAME = struct.Struct(">4sBBII")

#: Envelope kinds and their wire bytes.
KIND_HELLO = "hello"
KIND_WELCOME = "welcome"
KIND_TASK = "task"
KIND_RESULT = "result"
KIND_ERROR = "error"
KIND_HEARTBEAT = "heartbeat"
KIND_HEARTBEAT_ACK = "heartbeat-ack"
KIND_SHUTDOWN = "shutdown"
KIND_JOIN = "join"
KIND_LEAVE = "leave"
KIND_ANNOUNCE = "announce"

_KIND_TO_BYTE = {
    KIND_HELLO: 1,
    KIND_WELCOME: 2,
    KIND_TASK: 3,
    KIND_RESULT: 4,
    KIND_ERROR: 5,
    KIND_HEARTBEAT: 6,
    KIND_HEARTBEAT_ACK: 7,
    KIND_SHUTDOWN: 8,
    KIND_JOIN: 9,
    KIND_LEAVE: 10,
    KIND_ANNOUNCE: 11,
}
_BYTE_TO_KIND = {byte: kind for kind, byte in _KIND_TO_BYTE.items()}

#: Seconds :func:`dial` waits for a TCP connect (and, with the timeout
#: left armed, for the handshake round trip that follows).
CONNECT_TIMEOUT = 5.0


@dataclass
class Envelope:
    """One typed transport message.

    Attributes:
        kind: one of the ``KIND_*`` strings.
        header: small JSON-serializable metadata dict.
        payload: opaque bytes (tensor frames, result arrays, empty for
            control messages).
    """

    kind: str
    header: dict = field(default_factory=dict)
    payload: bytes = b""

    def encode(self, max_frame_bytes: int) -> bytes:
        kind_byte = _KIND_TO_BYTE.get(self.kind)
        if kind_byte is None:
            raise TransportError(f"unknown envelope kind {self.kind!r}")
        header_bytes = json.dumps(self.header,
                                  separators=(",", ":")).encode("utf-8")
        total = _FRAME.size + len(header_bytes) + len(self.payload)
        if total > max_frame_bytes:
            raise TransportError(
                f"{self.kind} frame of {total} bytes exceeds the "
                f"{max_frame_bytes}-byte frame limit"
            )
        return (_FRAME.pack(MAGIC, VERSION, kind_byte,
                            len(header_bytes), len(self.payload))
                + header_bytes + self.payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            raise TransportError(
                f"receive timed out with {remaining}/{count} bytes "
                "outstanding"
            ) from exc
        except OSError as exc:
            raise TransportError(f"socket receive failed: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"peer closed the connection with {remaining}/{count} "
                "bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_envelope(sock: socket.socket,
                  max_frame_bytes: int) -> Envelope:
    """Read one framed envelope from a socket (blocking)."""
    return _read_frame(sock, max_frame_bytes)[0]


def _read_frame(sock: socket.socket,
                max_frame_bytes: int) -> tuple[Envelope, int]:
    """Read one framed envelope; returns it with its wire length."""
    head = _recv_exact(sock, _FRAME.size)
    magic, version, kind_byte, header_len, payload_len = \
        _FRAME.unpack(head)
    if magic != MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise TransportError(
            f"unsupported transport version {version} (speaking "
            f"{VERSION})"
        )
    kind = _BYTE_TO_KIND.get(kind_byte)
    if kind is None:
        raise TransportError(f"unknown envelope kind byte {kind_byte}")
    total = _FRAME.size + header_len + payload_len
    if total > max_frame_bytes:
        raise TransportError(
            f"peer declared a {total}-byte frame, over the "
            f"{max_frame_bytes}-byte limit"
        )
    header_bytes = _recv_exact(sock, header_len)
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    try:
        header = json.loads(header_bytes.decode("utf-8")) \
            if header_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed envelope header: {exc}") from exc
    if not isinstance(header, dict):
        raise TransportError(
            f"envelope header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    return Envelope(kind, header, payload), total


class Connection:
    """A framed, mutex-guarded envelope stream over one TCP socket.

    Thread-safe for one sender + one receiver; :meth:`request` (send
    then receive) additionally serializes whole round trips so several
    threads can share a connection for strict request/response traffic.
    Byte counters (``net_bytes_sent`` / ``net_bytes_received``, labeled
    by peer) land in the observability registry when enabled.
    """

    def __init__(self, sock: socket.socket,
                 max_frame_bytes: int = DEFAULT_CONFIG.net_max_frame_bytes,
                 obs=None, peer: str = "peer"):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP socket (e.g. a unix socketpair in tests)
        self._sock = sock
        self._max_frame_bytes = max_frame_bytes
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._rpc_lock = threading.Lock()
        self._closed = False
        self.peer = peer
        self.obs = obs if obs is not None else OBS_OFF
        self._m_sent = self.obs.registry.counter(
            "net_bytes_sent", peer=peer
        )
        self._m_received = self.obs.registry.counter(
            "net_bytes_received", peer=peer
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, envelope: Envelope) -> None:
        blob = envelope.encode(self._max_frame_bytes)
        with self._send_lock:
            if self._closed:
                raise TransportError(
                    f"connection to {self.peer} is closed"
                )
            try:
                self._sock.sendall(blob)
            except OSError as exc:
                raise TransportError(
                    f"send to {self.peer} failed: {exc}"
                ) from exc
        self._m_sent.inc(len(blob))

    def recv(self, timeout: float | None = None) -> Envelope:
        with self._recv_lock:
            if self._closed:
                raise TransportError(
                    f"connection to {self.peer} is closed"
                )
            try:
                self._sock.settimeout(timeout)
            except OSError as exc:
                raise TransportError(
                    f"connection to {self.peer} is unusable: {exc}"
                ) from exc
            envelope, size = _read_frame(self._sock,
                                         self._max_frame_bytes)
        self._m_received.inc(size)
        return envelope

    def request(self, envelope: Envelope,
                timeout: float | None = None) -> Envelope:
        """One strict round trip: send, then receive the reply."""
        with self._rpc_lock:
            self.send(envelope)
            return self.recv(timeout)

    def set_socket_timeout(self, timeout: float | None) -> None:
        """Set the socket-level timeout that bounds *sends* (receives
        set their own per-call timeout).  :func:`dial` leaves the
        connect timeout armed so the handshake cannot stall on a
        black-holed peer; callers clear it (``None``) once the
        handshake completes so large task frames are not spuriously
        bounded."""
        try:
            self._sock.settimeout(timeout)
        except OSError as exc:
            raise TransportError(
                f"connection to {self.peer} is unusable: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the socket; any thread blocked in recv wakes with a
        :class:`TransportError`."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def dial(host: str, port: int,
         connect_timeout: float = CONNECT_TIMEOUT,
         max_frame_bytes: int = DEFAULT_CONFIG.net_max_frame_bytes,
         obs=None, peer: str | None = None,
         factory=None) -> Connection:
    """Connect to a listening peer and wrap the socket.

    The connect timeout stays armed on the socket after the connect
    succeeds, so the *handshake* that follows is also deadlined: a
    listening-but-silent peer (accepted by the kernel backlog, never
    served) fails the hello/welcome round trip with
    :class:`TransportError` instead of stalling the dialer forever.
    Call :meth:`Connection.set_socket_timeout` with ``None`` once the
    handshake completes.

    Args:
        factory: optional ``factory(sock, max_frame_bytes, obs, peer)
            -> Connection`` override — the chaos layer
            (:mod:`repro.net.chaos`) injects its wrapper here.
    """
    try:
        sock = socket.create_connection((host, port),
                                        timeout=connect_timeout)
    except OSError as exc:
        raise TransportError(
            f"could not connect to {host}:{port}: {exc}"
        ) from exc
    sock.settimeout(connect_timeout)
    build = factory if factory is not None else Connection
    return build(sock, max_frame_bytes, obs=obs,
                 peer=peer or f"{host}:{port}")


def wait_for_port(host: str, port: int, deadline: float) -> None:
    """Poll until something accepts on ``host:port`` (test/CLI helper)."""
    end = time.monotonic() + deadline
    last: Exception | None = None
    while time.monotonic() < end:
        try:
            socket.create_connection((host, port), timeout=0.2).close()
            return
        except OSError as exc:
            last = exc
            time.sleep(0.05)
    raise TransportError(
        f"nothing listening on {host}:{port} after {deadline}s: {last}"
    )
