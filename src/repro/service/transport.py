"""The fleet daemon's control plane: one socket server and its client.

* :class:`SocketTransport` — the server.  It listens on a Unix socket,
  ``daemon.sock`` in the control directory (mode ``0600``: file permissions
  are its auth), and, with ``listen=``, on TCP as well (a shared-secret
  token guards that listener).  One acceptor serves both listeners; a
  thread per connection reads **length-prefixed JSON frames** (4-byte
  big-endian length + UTF-8 JSON) and only *enqueues* each request.  The
  daemon thread drains the queue (:meth:`SocketTransport.requests`) and
  answers, so job state never needs locking.
* :class:`SocketControlClient` — the client half of the wire protocol,
  used by ``DaemonClient`` and every ``qckpt daemon`` verb, over either
  listener.

Wire protocol (see ``docs/FORMATS.md`` for the byte-level spec)::

    frame    := len(4 bytes, big-endian uint32) + payload(len bytes, JSON)
    client   -> {"qckpt": 1, "token": "<shared secret>"}      # handshake
    server   -> {"ok": true, "protocol": 1}
    client   -> {"id": "ab12...", "op": "status", ...}        # request
    server   -> {"id": "ab12...", "ok": true, ...}            # response

Every server reply is a complete JSON object — errors are envelopes
(``{"ok": false, "error": "..."}``), never raw exceptions or closed pipes
without a reason where one can still be written.

``sun_path`` holds 108 bytes, less than a deep control directory can need,
so both halves bind and connect through ``/proc/self/fd/<dirfd>/daemon.sock``
(Linux only).
"""

from __future__ import annotations

import contextlib
import hmac
import json
import os
import queue
import select
import socket
import struct
import threading
import time
import uuid
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, TransportError
from repro.obs.log import get_logger

_log = get_logger("transport")

PROTOCOL_VERSION = 1
FRAME_HEADER = struct.Struct(">I")  # big-endian uint32 payload length
DEFAULT_MAX_FRAME_BYTES = 1 << 20  # 1 MiB: control traffic, not tensors
DEFAULT_CONNECTION_TIMEOUT = 30.0

SOCKET_NAME = "daemon.sock"

#: How many times one request may go out before its failure is final.
#: Every send carries the same request id and the daemon deduplicates by
#: id, so a request whose connection died mid-flight is safe to resend.
SEND_ATTEMPTS = 3

#: One queued request: the parsed body (its ``"id"`` always set), the
#: callable that carries the response back, and the listener it came in on
#: (``"unix"`` or ``"tcp"``).
Request = Tuple[Dict, Callable[[Dict], None], str]


class TransportConnectError(TransportError):
    """No server accepted the connection (refused, unreachable, no route).

    Distinct from in-flight failures (timeouts, dropped frames) because
    callers reason differently about the two: nothing was sent, so the
    request was certainly not applied; and a daemon that *refuses*
    connections after acknowledging a drain has exited, while one that is
    merely slow to answer has not.
    """


def parse_address(address: "str | Tuple[str, int]") -> Tuple[str, int]:
    """``"host:port"`` (or a ready tuple) -> ``(host, port)``.

    The split is on the *last* colon so bracketless IPv6 hosts at least
    fail with a useful message instead of binding port garbage.
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"address must look like HOST:PORT, got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(
            f"address port must be an integer, got {address!r}"
        ) from None


@contextlib.contextmanager
def _short_path(path: str) -> Iterator[str]:
    """``path`` spelled through its directory's fd, short enough for
    ``sun_path`` however deep the directory is."""
    directory, name = os.path.split(path)
    fd = os.open(directory or ".", os.O_PATH | os.O_DIRECTORY)
    try:
        yield f"/proc/self/fd/{fd}/{name}"
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, payload: Dict) -> None:
    """Write one length-prefixed JSON frame (sorted keys)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    try:
        sock.sendall(FRAME_HEADER.pack(len(body)) + body)
    except OSError as exc:
        raise TransportError(f"frame send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except socket.timeout as exc:
            raise TransportError("connection timed out mid-frame") from exc
        except OSError as exc:
            raise TransportError(f"frame receive failed: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Dict]:
    """Read one frame; ``None`` on clean EOF before any byte.

    Raises :class:`~repro.errors.TransportError` on truncation, oversized
    frames (the remote is either broken or hostile — the connection cannot
    be resynchronized, so the caller must close it), and non-JSON payloads.
    """
    try:
        first = sock.recv(1)
    except socket.timeout as exc:
        raise TransportError("connection idle past its timeout") from exc
    except OSError as exc:
        raise TransportError(f"frame receive failed: {exc}") from exc
    if not first:
        return None  # clean EOF between frames
    header = first + _recv_exact(sock, FRAME_HEADER.size - 1)
    (length,) = FRAME_HEADER.unpack(header)
    if length > max_frame_bytes:
        raise TransportError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte "
            "limit"
        )
    body = _recv_exact(sock, length)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise TransportError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class _Connection:
    """Server-side state of one accepted client connection."""

    def __init__(self, sock: socket.socket, peer: str, kind: str):
        self.sock = sock
        self.peer = peer
        self.kind = kind  # "unix" or "tcp"


class SocketTransport:
    """Threaded server feeding the daemon loop with framed requests.

    Listeners: ``<control_dir>/daemon.sock`` always, ``listen="host:port"``
    optionally.  :meth:`start` replaces a socket file already there, so
    the caller must own the directory first (the daemon claims
    ``daemon.json`` before it starts its server).  :meth:`close` leaves the
    file in place: a late client is refused, it does not find nothing.

    Threading model: one acceptor thread over both listeners plus one
    reader thread per connection.  A reader handshakes its client, then
    for each request frame enqueues it and *blocks* until the daemon
    thread responds (or ``response_timeout_seconds`` passes, in which case
    the reader answers with an error envelope itself).  All socket writes
    for a connection happen on its own reader thread, so frames are never
    interleaved and the daemon thread never touches a socket.

    Every connection starts with a handshake frame (it versions the
    protocol).  On TCP with ``auth_token`` set it must carry the exact
    token (compared constant-time); a wrong or missing token gets one
    error frame and a closed connection.  The Unix socket checks no token.
    """

    def __init__(
        self,
        control_dir: "str | os.PathLike",
        listen: "Optional[str | Tuple[str, int]]" = None,
        auth_token: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        connection_timeout_seconds: float = DEFAULT_CONNECTION_TIMEOUT,
        response_timeout_seconds: float = 10.0,
        backlog: int = 16,
    ):
        if max_frame_bytes < 1024:
            raise ConfigError(
                f"max_frame_bytes must be >= 1024, got {max_frame_bytes}"
            )
        if connection_timeout_seconds <= 0:
            raise ConfigError(
                "connection_timeout_seconds must be > 0, "
                f"got {connection_timeout_seconds}"
            )
        if response_timeout_seconds <= 0:
            raise ConfigError(
                "response_timeout_seconds must be > 0, "
                f"got {response_timeout_seconds}"
            )
        self.unix_path = os.path.join(os.fspath(control_dir), SOCKET_NAME)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        if listen is not None:
            self.host, self.port = parse_address(listen)
        self.auth_token = auth_token
        self.max_frame_bytes = int(max_frame_bytes)
        self.connection_timeout_seconds = float(connection_timeout_seconds)
        self.response_timeout_seconds = float(response_timeout_seconds)
        self.backlog = int(backlog)
        self._listeners: Dict[socket.socket, str] = {}  # listener -> kind
        self._acceptor: Optional[threading.Thread] = None
        # close() writes one byte here to wake the acceptor's select().
        self._wake: Optional[Tuple[socket.socket, socket.socket]] = None
        self._queue: "queue.Queue[Request]" = queue.Queue()
        self._connections: Dict[int, _Connection] = {}
        self._conn_lock = threading.Lock()
        self._closed = threading.Event()
        # Requests enqueued whose response frame is not yet on the wire;
        # close() waits (briefly) for these so a "drain" acknowledgement
        # is not severed by the very shutdown it triggered.
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # Observability counters (read by tests and the bench).
        self.connections_accepted = 0
        self.auth_failures = 0
        self.frame_errors = 0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        if self._listeners:
            return
        self._closed.clear()
        try:
            self._listeners[self._bind_unix()] = "unix"
            if self.host is not None:
                self._listeners[self._bind_tcp()] = "tcp"
        except TransportError:
            self._close_listeners()
            raise
        self._wake = socket.socketpair()
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            args=(dict(self._listeners), self._wake[0]),
            name="qckpt-accept",
            daemon=True,
        )
        self._acceptor.start()
        _log.info(
            "listening",
            unix=self.unix_path,
            tcp=self.address or "-",
            auth=self.auth_token is not None,
        )

    def _bind_unix(self) -> socket.socket:
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            with _short_path(self.unix_path) as path:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)  # left by a daemon that is gone
                listener.bind(path)
                # Before listen(): no connect succeeds while the file still
                # has the umask's permissions.
                os.chmod(path, 0o600)
            listener.listen(self.backlog)
        except OSError as exc:
            listener.close()
            raise TransportError(
                f"cannot listen on {self.unix_path}: {exc}"
            ) from exc
        return listener

    def _bind_tcp(self) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
            listener.listen(self.backlog)
        except OSError as exc:
            listener.close()
            raise TransportError(
                f"cannot listen on {self.host}:{self.port}: {exc}"
            ) from exc
        self.port = listener.getsockname()[1]  # resolve port 0
        return listener

    def _close_listeners(self) -> None:
        listeners, self._listeners = self._listeners, {}
        for listener in listeners:
            with contextlib.suppress(OSError):
                listener.close()

    def close(self) -> None:
        # Stop the acceptor before closing what it selects on.
        self._closed.set()
        if self._acceptor is not None:
            self._wake[1].send(b"\0")
            self._acceptor.join(timeout=5.0)
            self._acceptor = None
            for end in self._wake:
                end.close()
        self._close_listeners()
        # Let responses already handed to connection threads reach the
        # wire before the sockets are torn down under them.  Bounded: a
        # request the daemon will never answer (it enqueued after the
        # final drain of the queue) still times out on its own thread, so
        # don't wait for it here.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        with self._conn_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.sock.close()

    @property
    def address(self) -> Optional[str]:
        """``host:port`` of the TCP listener, ``None`` without one."""
        if self.host is None:
            return None
        return f"{self.host}:{self.port}"

    def describe(self) -> Dict:
        """The TCP listener's advertisement for ``daemon.json`` (empty
        without one: the Unix socket's place is fixed)."""
        if self.host is None:
            return {}
        # The advertisement exists so a *remote* client can learn where to
        # connect; a wildcard bind address is not a routable destination,
        # so substitute this machine's hostname (best effort) for it.
        host = self.host
        if host in ("", "0.0.0.0", "::"):
            host = socket.gethostname()
        return {
            "listen": f"{host}:{self.port}",
            "auth": self.auth_token is not None,
        }

    # -- accept / read loops ----------------------------------------------------

    def _accept_loop(
        self, listeners: Dict[socket.socket, str], wake: socket.socket
    ) -> None:
        while True:
            ready, _, _ = select.select([wake, *listeners], [], [])
            if wake in ready:
                return
            for listener in ready:
                try:
                    sock, addr = listener.accept()
                except OSError:
                    continue
                kind = listeners[listener]
                peer = f"{addr[0]}:{addr[1]}" if kind == "tcp" else "unix"
                connection = _Connection(sock, peer, kind)
                with self._conn_lock:
                    self._connections[id(connection)] = connection
                self.connections_accepted += 1
                _log.debug("connection-accepted", peer=peer)
                threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    name=f"qckpt-conn-{peer}",
                    daemon=True,
                ).start()

    def _drop_connection(self, connection: _Connection) -> None:
        with self._conn_lock:
            self._connections.pop(id(connection), None)
        with contextlib.suppress(OSError):
            connection.sock.close()

    def _serve_connection(self, connection: _Connection) -> None:
        sock = connection.sock
        sock.settimeout(self.connection_timeout_seconds)
        try:
            if not self._handshake(sock, check_token=connection.kind == "tcp"):
                return
            while not self._closed.is_set():
                try:
                    request = recv_frame(sock, self.max_frame_bytes)
                except TransportError as exc:
                    self.frame_errors += 1
                    self._try_error(sock, f"bad frame: {exc}")
                    return
                if request is None:
                    return  # client hung up cleanly
                if not self._serve_request(sock, request, connection.kind):
                    return  # client vanished mid-response: close our half
        finally:
            self._drop_connection(connection)

    def _handshake(self, sock: socket.socket, check_token: bool) -> bool:
        try:
            hello = recv_frame(sock, self.max_frame_bytes)
        except TransportError as exc:
            self.frame_errors += 1
            self._try_error(sock, f"bad handshake frame: {exc}")
            return False
        if hello is None:
            return False  # port-scanner said nothing; nothing owed
        if hello.get("qckpt") != PROTOCOL_VERSION:
            self.auth_failures += 1
            _log.warning(
                "handshake-rejected",
                reason="protocol",
                offered=hello.get("qckpt"),
            )
            self._try_error(
                sock,
                f"unsupported protocol {hello.get('qckpt')!r} "
                f"(server speaks {PROTOCOL_VERSION})",
            )
            return False
        if check_token and self.auth_token is not None:
            offered = hello.get("token")
            if not isinstance(offered, str) or not hmac.compare_digest(
                offered, self.auth_token
            ):
                self.auth_failures += 1
                _log.warning("handshake-rejected", reason="auth")
                self._try_error(sock, "bad auth token")
                return False
        try:
            send_frame(sock, {"ok": True, "protocol": PROTOCOL_VERSION})
        except TransportError:
            return False
        return True

    def _serve_request(
        self, sock: socket.socket, request: Dict, kind: str
    ) -> bool:
        request_id = str(request.get("id") or uuid.uuid4().hex[:12])
        request["id"] = request_id
        done = threading.Event()
        req_lock = threading.Lock()
        slot: List[Dict] = []
        abandoned = [False]

        def responder(response: Dict) -> None:
            # Counted as in-flight only while this connection thread will
            # still send it — a late answer to an abandoned (timed-out)
            # request must not pin close() on a frame nobody will write.
            with req_lock:
                slot.append(response)
                if not abandoned[0]:
                    with self._inflight_lock:
                        self._inflight += 1
                done.set()

        self._queue.put((request, responder, kind))
        # The daemon thread answers a read between training steps and a
        # write between scheduler passes; a wedged daemon must not wedge
        # the connection forever.
        done.wait(timeout=self.response_timeout_seconds)
        with req_lock:
            if slot:
                response = slot[0]
                counted = True
            else:
                abandoned[0] = True
                counted = False
                response = {
                    "ok": False,
                    "id": request_id,
                    "error": "daemon did not answer within "
                    f"{self.response_timeout_seconds}s",
                }
        try:
            send_frame(sock, response)
        except TransportError:
            # Client disconnected mid-response: its loss, daemon unharmed.
            return False
        finally:
            if counted:
                with self._inflight_lock:
                    self._inflight -= 1
        return True

    def _try_error(self, sock: socket.socket, message: str) -> None:
        try:
            send_frame(sock, {"ok": False, "error": message})
        except TransportError:
            pass

    # -- the daemon-facing side -------------------------------------------------

    def requests(self, wait: float = 0.0) -> List[Request]:
        """Every request received and not yet taken, oldest first.

        With none queued, blocks up to ``wait`` seconds for the first: the
        serve loop's idle wait, so an idle daemon answers at once.
        """
        try:
            pending = [self._queue.get(timeout=wait)]
        except queue.Empty:
            return []
        while True:
            try:
                pending.append(self._queue.get_nowait())
            except queue.Empty:
                return pending


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class SocketControlClient:
    """One connection to a :class:`SocketTransport`, TCP or Unix.

    ``address`` is ``"host:port"`` (or a tuple) for the TCP listener, or
    an ``os.PathLike`` naming the Unix socket.  Connects lazily,
    re-handshakes after a dropped connection, and correlates every
    response by request id.  Thread-safe: a lock serializes round trips so
    concurrent callers never interleave frames.

    A request whose connection fails after it went out is resent under
    the *same id* on a fresh connection, up to :data:`SEND_ATTEMPTS`
    sends within the one ``timeout``.  The daemon deduplicates by id
    (replaying its recorded response), so a submit or preempt is applied
    once however many deliveries happen.  A failed connect or handshake
    is never retried: nothing was sent.
    """

    def __init__(
        self,
        address: "str | Tuple[str, int] | os.PathLike",
        token: Optional[str] = None,
        timeout: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        if timeout <= 0:
            raise ConfigError(f"timeout must be > 0, got {timeout}")
        self._unix: Optional[str] = None
        self._tcp: Optional[Tuple[str, int]] = None
        if isinstance(address, os.PathLike):
            self._unix = self.address = os.fspath(address)
        else:
            self._tcp = parse_address(address)
            self.address = "%s:%d" % self._tcp
        self.token = token
        self.timeout = float(timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    # -- connection management --------------------------------------------------

    def _open(self, timeout: float) -> socket.socket:
        if self._tcp is not None:
            return socket.create_connection(self._tcp, timeout=timeout)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            with _short_path(self._unix) as path:
                sock.connect(path)
        except OSError:
            sock.close()
            raise
        return sock

    def _connect(self, timeout: float) -> socket.socket:
        try:
            sock = self._open(timeout)
        except OSError as exc:
            raise TransportConnectError(
                f"cannot connect to daemon at {self.address}: {exc}"
            ) from exc
        sock.settimeout(timeout)
        try:
            send_frame(
                sock, {"qckpt": PROTOCOL_VERSION, "token": self.token or ""}
            )
            welcome = recv_frame(sock, self.max_frame_bytes)
        except TransportError:
            sock.close()
            raise
        if welcome is None or not welcome.get("ok"):
            error = (welcome or {}).get("error", "connection closed")
            sock.close()
            raise TransportError(
                f"daemon at {self.address} refused the handshake: {error}"
            )
        return sock

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    # -- round trips ------------------------------------------------------------

    def request(self, body: Dict, timeout: Optional[float] = None) -> Dict:
        """One request/response round trip; raises on transport failure.

        ``timeout`` bounds the whole call, resends included.  The id is
        generated once, before the first send, and every resend carries
        it: a daemon that read the first delivery and lost the connection
        before answering replays that answer instead of applying the op
        twice.
        """
        timeout = self.timeout if timeout is None else float(timeout)
        request_id = str(body.get("id") or uuid.uuid4().hex[:12])
        frame = {**body, "id": request_id}
        give_up_at = time.monotonic() + timeout
        with self._lock:
            for attempt in range(1, SEND_ATTEMPTS + 1):
                remaining = max(give_up_at - time.monotonic(), 1e-3)
                if self._sock is None:
                    self._sock = self._connect(remaining)
                try:
                    self._sock.settimeout(remaining)
                    send_frame(self._sock, frame)
                    response = recv_frame(self._sock, self.max_frame_bytes)
                    if response is None:
                        raise TransportError(
                            f"daemon at {self.address} closed the "
                            "connection before responding"
                        )
                    if response.get("id") != request_id:
                        # A stale buffered frame (e.g. the server's
                        # idle-timeout envelope) from before this request:
                        # the connection is out of sync.
                        raise TransportError(
                            f"response id {response.get('id')!r} does not "
                            f"match request id {request_id!r}"
                        )
                    return response
                except TransportError:
                    self._drop()
                    if (
                        attempt == SEND_ATTEMPTS
                        or time.monotonic() >= give_up_at
                    ):
                        raise
