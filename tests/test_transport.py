"""The control plane: framing, Unix/TCP parity, faults, scheduling.

The daemon cannot tell (and must not care) which listener a request came
in on — so the heart of this module is a *parity* test driving the same
request sequence through the Unix socket and the TCP listener and
demanding byte-identical responses.  Around it: the socket fault matrix
(truncated/oversized frames, bad auth, mid-response disconnects, concurrent
clients), the daemon's Unix socket (deep paths, permissions, a leftover
socket, a refused second start), the full daemon op set over TCP only,
weighted scheduling shares, the client's fail-fast on a dead daemon,
journal auto-compaction, and same-id resends.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import stat
import threading
import time
import uuid
from pathlib import Path

import pytest

from repro.errors import ConfigError, TransportError
from repro.service import (
    ChunkStore,
    DaemonAlreadyRunning,
    DaemonClient,
    DaemonConfig,
    DaemonUnavailable,
    FleetDaemon,
    SocketControlClient,
    SocketTransport,
    TransportConnectError,
    WriterPool,
)
from repro.service.transport import (
    FRAME_HEADER,
    PROTOCOL_VERSION,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.storage.memory import InMemoryBackend


def _tiny_spec(job_id: str, steps: int = 3, **overrides) -> dict:
    spec = {
        "job_id": job_id,
        "workload": "classifier",
        "target_steps": steps,
        "params": {"qubits": 2, "layers": 1, "samples": 16, "batch_size": 4},
    }
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# Framing primitives
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "id": "x" * 12, "n": 7}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME_HEADER.pack(100) + b'{"op": "pi')
            a.close()
            with pytest.raises(TransportError, match="closed mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME_HEADER.pack(1 << 30))
            with pytest.raises(TransportError, match="exceeds"):
                recv_frame(b, max_frame_bytes=1 << 20)
        finally:
            a.close()
            b.close()

    def test_non_json_payload_raises(self):
        a, b = socket.socketpair()
        try:
            body = b"\xff\xfe not json"
            a.sendall(FRAME_HEADER.pack(len(body)) + body)
            with pytest.raises(TransportError, match="not JSON"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_raises(self):
        a, b = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            a.sendall(FRAME_HEADER.pack(len(body)) + body)
            with pytest.raises(TransportError, match="JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7777") == ("127.0.0.1", 7777)
        assert parse_address(("host", 5)) == ("host", 5)
        with pytest.raises(ConfigError, match="HOST:PORT"):
            parse_address("no-port-here")
        with pytest.raises(ConfigError, match="integer"):
            parse_address("host:seven")


# ---------------------------------------------------------------------------
# A deterministic handler served over both listeners
# ---------------------------------------------------------------------------


class _ScriptedServer:
    """Serves a deterministic handler over one :class:`SocketTransport`.

    Stands in for the daemon loop so parity tests compare *listeners*,
    not scheduler timing: the handler's output depends only on the request.
    """

    def __init__(self, transport: SocketTransport):
        self.transport = transport
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def handle(request: dict) -> dict:
        op = request.get("op")
        if op == "echo":
            return {"ok": True, "payload": request.get("payload")}
        if op == "sum":
            return {"ok": True, "total": sum(request.get("terms", []))}
        if op == "boom":
            raise ValueError("scripted failure")
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _loop(self):
        while not self._stop.is_set():
            for request, respond, _ in self.transport.requests(wait=0.01):
                try:
                    response = self.handle(request)
                except Exception as exc:  # noqa: BLE001 - mirrors daemon
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                response["id"] = request["id"]
                respond(response)

    def __enter__(self):
        self.transport.start()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.transport.close()


class TestTransportParity:
    # One sequence exercising success, structured data, handler crashes,
    # and unknown ops — everything an envelope can look like.
    SEQUENCE = [
        {"op": "echo", "payload": {"k": [1, 2, {"deep": "x"}]}},
        {"op": "sum", "terms": [1, 2, 3, 4]},
        {"op": "boom"},
        {"op": "nope"},
        {"op": "echo", "payload": None},
    ]

    def test_unix_and_tcp_give_byte_identical_responses(self, tmp_path):
        transport = SocketTransport(tmp_path, listen="127.0.0.1:0")
        with _ScriptedServer(transport):
            unix_client = SocketControlClient(Path(transport.unix_path))
            tcp_client = SocketControlClient(transport.address)
            try:
                for i, body in enumerate(self.SEQUENCE):
                    request_id = f"parity{i:04d}"
                    via_unix = unix_client.request({**body, "id": request_id})
                    via_tcp = tcp_client.request({**body, "id": request_id})
                    unix_bytes = json.dumps(via_unix, sort_keys=True).encode()
                    tcp_bytes = json.dumps(via_tcp, sort_keys=True).encode()
                    assert unix_bytes == tcp_bytes, (
                        f"listener responses diverge for {body}"
                    )
            finally:
                unix_client.close()
                tcp_client.close()
        assert transport.connections_accepted == 2

    def test_unreadable_frame_gets_error_envelope(self, tmp_path):
        transport = SocketTransport(tmp_path)
        with _ScriptedServer(transport):
            sock = _unix_conn(transport)
            try:
                assert _handshake(sock, token="")["ok"]
                body = b"\xff not json"
                sock.sendall(FRAME_HEADER.pack(len(body)) + body)
                reply = recv_frame(sock)
                assert not reply["ok"] and "not JSON" in reply["error"]
                assert recv_frame(sock) is None  # connection closed after it
            finally:
                sock.close()
            # The server survived: a well-formed request is answered.
            client = SocketControlClient(Path(transport.unix_path))
            try:
                response = client.request({"op": "sum", "terms": [1]})
                assert response["total"] == 1
            finally:
                client.close()
        assert transport.frame_errors == 1


# ---------------------------------------------------------------------------
# Socket fault matrix
# ---------------------------------------------------------------------------


@pytest.fixture
def scripted_socket(tmp_path):
    transport = SocketTransport(
        tmp_path,
        listen="127.0.0.1:0",
        auth_token="hunter2",
        max_frame_bytes=4096,
        connection_timeout_seconds=5.0,
        response_timeout_seconds=5.0,
    )
    with _ScriptedServer(transport):
        yield transport


def _raw_conn(transport: SocketTransport) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", transport.port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _unix_conn(transport: SocketTransport) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(transport.unix_path)
    return sock


def _handshake(sock: socket.socket, token: str = "hunter2") -> dict:
    send_frame(sock, {"qckpt": PROTOCOL_VERSION, "token": token})
    return recv_frame(sock)


class TestSocketFaults:
    def test_bad_auth_token_refused(self, scripted_socket):
        sock = _raw_conn(scripted_socket)
        try:
            reply = _handshake(sock, token="wrong")
            assert reply == {"ok": False, "error": "bad auth token"}
            # The server hangs up after refusing; nothing more arrives.
            assert recv_frame(sock) is None
        finally:
            sock.close()
        assert scripted_socket.auth_failures == 1

    def test_missing_token_refused(self, scripted_socket):
        sock = _raw_conn(scripted_socket)
        try:
            send_frame(sock, {"qckpt": PROTOCOL_VERSION})
            reply = recv_frame(sock)
            assert reply["ok"] is False
        finally:
            sock.close()

    def test_wrong_protocol_version_refused(self, scripted_socket):
        for connect in (_raw_conn, _unix_conn):
            sock = connect(scripted_socket)
            try:
                send_frame(sock, {"qckpt": 99, "token": "hunter2"})
                reply = recv_frame(sock)
                assert not reply["ok"] and "protocol" in reply["error"]
            finally:
                sock.close()

    def test_unix_socket_needs_no_token(self, scripted_socket):
        """File permissions guard the Unix socket; the token guards TCP."""
        sock = _unix_conn(scripted_socket)
        try:
            assert _handshake(sock, token="wrong")["ok"]
        finally:
            sock.close()
        client = SocketControlClient(Path(scripted_socket.unix_path))
        try:
            assert client.request({"op": "sum", "terms": [2, 3]})["total"] == 5
        finally:
            client.close()
        assert scripted_socket.auth_failures == 0

    def test_client_api_rejects_bad_token(self, scripted_socket):
        client = SocketControlClient(scripted_socket.address, token="nope")
        with pytest.raises(TransportError, match="bad auth token"):
            client.request({"op": "echo", "payload": 1})
        # A refused handshake is not resent: nothing was sent.
        assert scripted_socket.auth_failures == 1

    def test_oversized_frame_rejected_server_survives(self, scripted_socket):
        sock = _raw_conn(scripted_socket)
        try:
            assert _handshake(sock)["ok"]
            sock.sendall(FRAME_HEADER.pack(1 << 20))  # > max_frame_bytes=4096
            reply = recv_frame(sock)
            assert not reply["ok"] and "bad frame" in reply["error"]
            assert recv_frame(sock) is None  # connection closed after it
        finally:
            sock.close()
        # A fresh, well-behaved client is served as if nothing happened.
        client = SocketControlClient(scripted_socket.address, token="hunter2")
        try:
            assert client.request({"op": "sum", "terms": [2, 3]})["total"] == 5
        finally:
            client.close()

    def test_truncated_frame_server_survives(self, scripted_socket):
        sock = _raw_conn(scripted_socket)
        try:
            assert _handshake(sock)["ok"]
            sock.sendall(FRAME_HEADER.pack(512) + b'{"op": "ec')  # then die
        finally:
            sock.close()
        client = SocketControlClient(scripted_socket.address, token="hunter2")
        try:
            assert client.request({"op": "echo", "payload": "alive"})["ok"]
        finally:
            client.close()
        assert scripted_socket.frame_errors >= 1

    def test_disconnect_mid_request_server_survives(self, scripted_socket):
        sock = _raw_conn(scripted_socket)
        assert _handshake(sock)["ok"]
        send_frame(sock, {"op": "echo", "payload": "bye", "id": "gone000"})
        sock.close()  # gone before the response could be written
        client = SocketControlClient(scripted_socket.address, token="hunter2")
        try:
            assert client.request({"op": "echo", "payload": "here"})["ok"]
        finally:
            client.close()

    def test_concurrent_clients_all_served(self, scripted_socket):
        n_clients, n_requests = 6, 10
        failures = []

        def hammer(worker: int):
            # Half the clients on each listener: one queue serves both.
            if worker % 2:
                client = SocketControlClient(
                    scripted_socket.address, token="hunter2"
                )
            else:
                client = SocketControlClient(Path(scripted_socket.unix_path))
            try:
                for i in range(n_requests):
                    request_id = uuid.uuid4().hex[:12]
                    response = client.request(
                        {
                            "op": "sum",
                            "terms": [worker, i],
                            "id": request_id,
                        }
                    )
                    if (
                        response.get("total") != worker + i
                        or response.get("id") != request_id
                    ):
                        failures.append((worker, i, response))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((worker, repr(exc)))
            finally:
                client.close()

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures, failures
        assert scripted_socket.connections_accepted >= n_clients

    def test_connect_to_nobody_raises(self, tmp_path):
        for address in ("127.0.0.1:1", tmp_path / "daemon.sock"):
            client = SocketControlClient(address, timeout=1.0)
            with pytest.raises(TransportConnectError, match="cannot connect"):
                client.request({"op": "ping"})

    def test_stale_buffered_error_frame_triggers_fresh_retry(self):
        """An un-correlated frame on a cached connection is not the answer.

        A server that idles out a connection leaves an id-less error
        envelope buffered in the client's socket.  The client must not
        hand that frame back as the response to its next (unrelated)
        request — it must drop the poisoned connection and resend, fresh,
        exactly like any other stale-connection failure.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        answered = []

        def fake_server():
            # Connection 1: handshake, answer one request properly (this
            # makes it the client's *cached* connection), then emit an
            # id-less timeout envelope (mimicking
            # SocketTransport._try_error) and hard-close — the frame sits
            # buffered for whatever the client asks next.
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            first = recv_frame(conn)
            send_frame(conn, {"ok": True, "id": first["id"], "pong": 0})
            send_frame(
                conn, {"ok": False, "error": "connection idle past timeout"}
            )
            conn.close()
            # Connection 2: the resend — serve it properly.
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            request = recv_frame(conn)
            answered.append(request)
            send_frame(conn, {"ok": True, "id": request["id"], "pong": 1})
            conn.close()

        server = threading.Thread(target=fake_server, daemon=True)
        server.start()
        client = SocketControlClient(f"127.0.0.1:{port}", timeout=5.0)
        try:
            assert client.request({"op": "ping", "id": "primer000001"})[
                "pong"
            ] == 0
            # The cached connection now has the poisoned frame buffered;
            # this request must see it, drop the connection, and succeed
            # on a fresh one instead of returning the stale envelope.
            response = client.request({"op": "ping", "id": "realreq00001"})
            assert response == {"ok": True, "id": "realreq00001", "pong": 1}
            assert answered and answered[0]["id"] == "realreq00001"
        finally:
            client.close()
            listener.close()
            server.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The daemon's Unix socket
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _serving(control, **options):
    """A daemon serving ``control`` in a thread, yielded once it answers."""
    options.setdefault("config", DaemonConfig(tick_seconds=0.002))
    pool = WriterPool(workers=1)
    daemon = FleetDaemon(
        ChunkStore(InMemoryBackend(), block_bytes=2048),
        pool,
        control,
        **options,
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    try:
        # Not a request: over a stopped or stale daemon.json that would
        # fail fast until this daemon has claimed the directory.
        client = DaemonClient(control, timeout=30.0)
        deadline = time.monotonic() + 30.0
        while not client.is_alive():
            assert time.monotonic() < deadline, "daemon never answered"
            time.sleep(0.01)
        client.close()
        yield daemon
    finally:
        daemon._stop_requested = True
        thread.join(timeout=30.0)
        pool.close()


def _ping(control) -> dict:
    client = DaemonClient(control, timeout=30.0)
    try:
        return client.ping()
    finally:
        client.close()


def _ping_socket(control) -> dict:
    """A ping straight to ``daemon.sock``, past DaemonClient's liveness
    logic: only a daemon listening on that very socket answers it."""
    client = SocketControlClient(control / "daemon.sock", timeout=30.0)
    try:
        return client.request({"op": "ping"})
    finally:
        client.close()


def _write_meta(control, heartbeat: float, state: str = "running"):
    control.mkdir(parents=True, exist_ok=True)
    (control / "daemon.json").write_text(
        json.dumps(
            {
                "daemon_id": "daemon-dead00",
                "pid": 424242,
                "state": state,
                "heartbeat": heartbeat,
                "tick": 17,
            },
            sort_keys=True,
        )
    )


def _leave_dead_socket(control) -> None:
    """A ``daemon.sock`` with no listener behind it: connects are refused."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(str(control / "daemon.sock"))
    sock.close()


class TestUnixPlane:
    def test_long_control_path_serves_ping_submit_status(self, tmp_path):
        control = tmp_path / ("c" * 60) / ("d" * 60)
        assert len(str(control / "daemon.sock")) > 108  # past sun_path
        with _serving(control) as daemon:
            assert stat.S_ISSOCK(os.stat(control / "daemon.sock").st_mode)
            client = DaemonClient(control, timeout=30.0)
            try:
                assert client.ping()["daemon_id"] == daemon.daemon_id
                assert client.submit(_tiny_spec("deep", steps=2))["ok"]
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    job = client.status("deep")["jobs"]["deep"]
                    if job["state"] == "finished":
                        break
                    time.sleep(0.01)
                assert job["state"] == "finished" and job["final_step"] == 2
            finally:
                client.close()

    def test_socket_is_owner_only_and_left_in_place(self, tmp_path):
        control = tmp_path / "ctl"
        with _serving(control):
            mode = os.stat(control / "daemon.sock").st_mode
            assert stat.S_ISSOCK(mode)
            assert stat.S_IMODE(mode) == 0o600
        # A stopped daemon leaves the file: a late client is refused, and
        # learns from daemon.json that the daemon stopped.
        assert stat.S_ISSOCK(os.stat(control / "daemon.sock").st_mode)
        with pytest.raises(DaemonUnavailable, match="stopped"):
            _ping(control)

    def test_leftover_socket_reclaimed_after_stale_heartbeat(self, tmp_path):
        control = tmp_path / "ctl"
        _write_meta(control, heartbeat=time.time() - 120.0)
        _leave_dead_socket(control)
        with _serving(control) as daemon:
            assert _ping_socket(control)["daemon_id"] == daemon.daemon_id

    def test_refused_second_start_leaves_live_socket_answering(
        self, tmp_path
    ):
        control = tmp_path / "ctl"
        with _serving(control) as daemon:
            rival = FleetDaemon(
                ChunkStore(InMemoryBackend()),
                daemon.pool,
                control,
                config=DaemonConfig(tick_seconds=0.002),
            )
            with pytest.raises(DaemonAlreadyRunning):
                rival.serve()
            assert _ping_socket(control)["daemon_id"] == daemon.daemon_id

    def test_control_dir_left_by_request_file_daemon_is_claimed(
        self, tmp_path
    ):
        """A stopped daemon.json and stray request files from the older
        request-file protocol: claimed, and the strays are never read."""
        control = tmp_path / "ctl"
        _write_meta(control, heartbeat=time.time(), state="stopped")
        stray = control / "req-0123456789ab.json"
        stray.write_text(json.dumps({"op": "stop"}))
        with _serving(control):
            assert _ping(control)["state"] == "running"
            assert stray.read_text() == json.dumps({"op": "stop"})


# ---------------------------------------------------------------------------
# The daemon over TCP
# ---------------------------------------------------------------------------


class _SocketDaemonFixture:
    """A daemon with a TCP listener; the test talks TCP exclusively."""

    def __init__(self, tmp_path, token="secret-token", **config):
        config.setdefault("tick_seconds", 0.002)
        self.store = ChunkStore(InMemoryBackend(), block_bytes=2048)
        self.pool = WriterPool(workers=2)
        self.daemon = FleetDaemon(
            self.store,
            self.pool,
            tmp_path / "ctl",
            config=DaemonConfig(**config),
            listen="127.0.0.1:0",
            auth_token=token,
        )
        self.thread = threading.Thread(target=self.daemon.serve, daemon=True)
        self.token = token
        self.client = None

    def start(self) -> DaemonClient:
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while self.daemon.server.port == 0:
            if time.monotonic() > deadline:
                raise AssertionError("TCP listener never bound")
            time.sleep(0.002)
        self.client = DaemonClient(
            connect=self.daemon.listen_address,
            token=self.token,
            timeout=30.0,
        )
        self.client.ping()
        return self.client

    def wait_job(self, job_id: str, states=("finished",), timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.client.status(job_id)["jobs"][job_id]
            if status["state"] in states:
                return status
            time.sleep(0.01)
        raise AssertionError(
            f"job {job_id} never reached {states}; last: {status}"
        )

    def stop(self):
        if self.client is not None:
            if self.thread.is_alive():
                try:
                    self.client.stop(timeout=10.0)
                except (ConfigError, DaemonUnavailable):
                    pass
            self.client.close()
        self.thread.join(timeout=10.0)
        self.pool.close()


@pytest.fixture
def socket_daemon(tmp_path):
    fixture = _SocketDaemonFixture(tmp_path)
    yield fixture
    fixture.stop()


class TestSocketDaemon:
    def test_full_op_set_over_tcp(self, socket_daemon):
        """ping/submit/status/preempt/drain, all through the socket.

        The client never touches the control directory — this is the
        acceptance scenario for driving a daemon with no shared filesystem
        for control traffic.
        """
        client = socket_daemon.start()
        ping = client.ping()
        assert ping["ok"] and ping["state"] == "running"
        assert ping["daemon_id"] == socket_daemon.daemon.daemon_id

        assert client.submit(_tiny_spec("r1", steps=30))["ok"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if (client.status("r1")["jobs"]["r1"]["step"] or 0) >= 2:
                break
            time.sleep(0.01)
        preempted = client.preempt("r1", restart_delay_ticks=2)
        assert preempted["ok"] and preempted["preempted"] == ["r1"]
        status = socket_daemon.wait_job("r1")
        assert status["preemptions"] == 1
        assert status["restores"] == 1
        assert status["final_step"] == 30
        # Drain over the socket: the ack arrives over TCP and the client
        # observes completion as the daemon going unreachable.
        result = client.drain(wait=True, timeout=60.0)
        assert result["state"] == "stopped"
        socket_daemon.thread.join(timeout=10.0)
        assert not socket_daemon.thread.is_alive()
        assert socket_daemon.store.load_snapshot("r1").step == 30

    def test_stop_over_tcp(self, socket_daemon):
        client = socket_daemon.start()
        assert client.stop()["ok"]
        socket_daemon.thread.join(timeout=10.0)
        assert not socket_daemon.thread.is_alive()

    def test_unix_socket_answers_alongside_tcp(self, socket_daemon, tmp_path):
        """The TCP listener does not displace the Unix socket: both answer,
        and the Unix side needs no token."""
        socket_daemon.start()
        local = DaemonClient(tmp_path / "ctl", timeout=10.0)
        assert local.ping()["ok"]
        assert local.is_alive()
        meta = local.daemon_meta()
        assert meta["listen"] == socket_daemon.daemon.listen_address
        assert meta["auth"] is True

    def test_wrong_token_is_daemon_unavailable(self, socket_daemon):
        socket_daemon.start()
        bad = DaemonClient(
            connect=socket_daemon.daemon.listen_address,
            token="not-it",
            timeout=5.0,
        )
        with pytest.raises(DaemonUnavailable, match="bad auth token"):
            bad.ping()
        assert not bad.is_alive()


# ---------------------------------------------------------------------------
# Weighted scheduling
# ---------------------------------------------------------------------------


class TestWeightedScheduling:
    def test_priority_2_gets_double_share_without_starvation(self, tmp_path):
        store = ChunkStore(InMemoryBackend(), block_bytes=2048)
        pool = WriterPool(workers=2)
        daemon = FleetDaemon(
            store,
            pool,
            tmp_path / "ctl",
            config=DaemonConfig(tick_seconds=0.002),
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        client = DaemonClient(tmp_path / "ctl", timeout=30.0)
        try:
            # Unreachable targets: both jobs stay runnable for the whole
            # measurement window, so shares are pure scheduler policy.
            assert client.submit(
                _tiny_spec("hi", steps=100000, priority=2,
                           checkpoint_every=1000)
            )["ok"]
            assert client.submit(
                _tiny_spec("lo", steps=100000, priority=1,
                           checkpoint_every=1000)
            )["ok"]
            # Shares are read over a window that opens once both jobs
            # run: the ticks "hi" took alone while "lo"'s submit was in
            # flight are the control plane's timing, not the policy's.
            start = client.status()["jobs"]
            while start["lo"]["ticks_scheduled"] == 0:
                time.sleep(0.01)
                start = client.status()["jobs"]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                jobs = client.status()["jobs"]
                if jobs["lo"]["ticks_scheduled"] >= start["lo"][
                    "ticks_scheduled"
                ] + 30:
                    break
                time.sleep(0.01)
            jobs = client.status()["jobs"]
        finally:
            try:
                client.stop(timeout=10.0)
            except (ConfigError, DaemonUnavailable):
                pass
            thread.join(timeout=30.0)
            pool.close()
        hi, lo = jobs["hi"], jobs["lo"]
        assert hi["priority"] == 2 and lo["priority"] == 1
        window = {
            job_id: jobs[job_id]["ticks_scheduled"]
            - start[job_id]["ticks_scheduled"]
            for job_id in ("hi", "lo")
        }
        ratio = window["hi"] / window["lo"]
        assert 1.6 <= ratio <= 2.4, (
            f"priority-2 share off target: {ratio:.2f}x "
            f"({window['hi']} vs {window['lo']} ticks in the window)"
        )
        # Starvation protection: the low-priority job kept training.
        assert lo["steps_executed"] >= 30
        assert 0.0 < lo["sched_share"] < hi["sched_share"]
        assert abs(hi["sched_share"] + lo["sched_share"] - 1.0) < 1e-9

    def test_priority_validation(self):
        from repro.service import FleetJobSpec

        with pytest.raises(ConfigError, match="priority"):
            FleetJobSpec(
                job_id="x",
                trainer_factory=lambda: None,
                target_steps=1,
                priority=0,
            )


# ---------------------------------------------------------------------------
# Client fail-fast on a dead daemon, patience with a starting one
# ---------------------------------------------------------------------------


class TestStaleDaemonFailFast:
    def test_stale_heartbeat_fails_fast_naming_the_corpse(self, tmp_path):
        control = tmp_path / "ctl"
        _write_meta(control, heartbeat=time.time() - 120.0)
        _leave_dead_socket(control)
        client = DaemonClient(control, timeout=30.0)
        started = time.monotonic()
        with pytest.raises(DaemonUnavailable) as excinfo:
            client.ping()
        elapsed = time.monotonic() - started
        # Fail-fast: nowhere near the 30 s request timeout.
        assert elapsed < 5.0, f"stale daemon took {elapsed:.1f}s to surface"
        message = str(excinfo.value)
        assert "daemon-dead00" in message
        assert "424242" in message
        assert "heartbeat 120" in message

    def test_stopped_state_fails_fast(self, tmp_path):
        control = tmp_path / "ctl"
        _write_meta(control, heartbeat=time.time(), state="stopped")
        client = DaemonClient(control, timeout=30.0)
        started = time.monotonic()
        with pytest.raises(DaemonUnavailable, match="stopped") as excinfo:
            client.request("status", job=None)
        assert time.monotonic() - started < 5.0
        assert "424242" in str(excinfo.value)
        assert "heartbeat" in str(excinfo.value)

    def test_no_meta_still_waits_for_a_late_daemon(self, tmp_path):
        # An empty control directory may belong to a daemon that has not
        # claimed it *yet* — the client must keep waiting (and time out
        # with the old error), not fail fast.
        client = DaemonClient(tmp_path / "virgin", timeout=0.4)
        with pytest.raises(ConfigError, match="did not answer"):
            client.ping()

    def test_waiting_client_reaches_a_daemon_that_starts_late(self, tmp_path):
        control = tmp_path / "ctl"
        answers = []
        waiter = threading.Thread(
            target=lambda: answers.append(
                _ping(control)
            )
        )
        waiter.start()
        time.sleep(0.3)  # the client is retrying its connect by now
        with _serving(control) as daemon:
            waiter.join(timeout=30.0)
            assert answers and answers[0]["daemon_id"] == daemon.daemon_id

    def test_fresh_heartbeat_is_not_stale(self, tmp_path):
        control = tmp_path / "ctl"
        _write_meta(control, heartbeat=time.time())
        client = DaemonClient(control, timeout=0.6)
        # Live-looking daemon that never answers: normal timeout path.
        with pytest.raises(ConfigError, match="did not answer"):
            client.ping()

    def test_client_needs_some_control_plane(self):
        with pytest.raises(ConfigError, match="control directory or"):
            DaemonClient()


# ---------------------------------------------------------------------------
# Journal auto-compaction during serve()
# ---------------------------------------------------------------------------


class TestJournalAutoCompaction:
    def test_journal_stays_bounded_while_serving(self, tmp_path):
        from repro.storage.placement import PlacementJournal
        from repro.storage.tiered import TieredBackend

        journal = PlacementJournal(
            InMemoryBackend(), "daemon-c", refresh_seconds=0.0
        )
        tier = TieredBackend(
            InMemoryBackend(),
            InMemoryBackend(),
            fast_capacity_bytes=1 << 22,
            journal=journal,
        )
        store = ChunkStore(tier, block_bytes=2048, placement_journal=journal)
        pool = WriterPool(workers=2)
        daemon = FleetDaemon(
            store,
            pool,
            tmp_path / "ctl",
            config=DaemonConfig(
                tick_seconds=0.002,
                heartbeat_seconds=0.05,
                stale_after_seconds=1.0,
                compact_journal_records=8,
            ),
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        client = DaemonClient(tmp_path / "ctl", timeout=30.0)
        try:
            # Every checkpoint appends pin/unpin records; 3 jobs x 8 steps
            # crosses the 8-record threshold repeatedly.
            for i in range(3):
                assert client.submit(_tiny_spec(f"j{i}", steps=8))["ok"]
            for i in range(3):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    job = client.status(f"j{i}")["jobs"][f"j{i}"]
                    if job["state"] == "finished":
                        break
                    time.sleep(0.01)
                assert job["state"] == "finished", job
            # Let at least one heartbeat pass after the last save so the
            # cadence check observes the final record count.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if (
                    daemon.journal_compactions > 0
                    and len(journal.records()) <= 8 + 4
                ):
                    break
                time.sleep(0.02)
            assert daemon.journal_compactions > 0, (
                "serve() never compacted the journal"
            )
            # Bounded: threshold + a few records of post-compaction churn,
            # nowhere near the ~50 pin/unpin records the run generated.
            assert len(journal.records()) <= 8 + 4
            # Compaction preserved the placement facts: every job's newest
            # manifest is still pinned.
            pinned = journal.pinned_names()
            for i in range(3):
                assert store.manifest_names(f"j{i}")[-1] in pinned
        finally:
            try:
                client.stop(timeout=10.0)
            except (ConfigError, DaemonUnavailable):
                pass
            thread.join(timeout=30.0)
            pool.close()

    def test_zero_threshold_disables_cadence_compaction(self, tmp_path):
        from repro.storage.placement import PlacementJournal
        from repro.storage.tiered import TieredBackend

        journal = PlacementJournal(
            InMemoryBackend(), "daemon-z", refresh_seconds=0.0
        )
        tier = TieredBackend(
            InMemoryBackend(),
            InMemoryBackend(),
            fast_capacity_bytes=1 << 22,
            journal=journal,
        )
        store = ChunkStore(tier, block_bytes=2048, placement_journal=journal)
        pool = WriterPool(workers=2)
        daemon = FleetDaemon(
            store,
            pool,
            tmp_path / "ctl",
            config=DaemonConfig(
                tick_seconds=0.002,
                heartbeat_seconds=0.05,
                stale_after_seconds=1.0,
                compact_journal_records=0,
            ),
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        client = DaemonClient(tmp_path / "ctl", timeout=30.0)
        try:
            assert client.submit(_tiny_spec("j0", steps=8))["ok"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.status("j0")["jobs"]["j0"]["state"] == "finished":
                    break
                time.sleep(0.01)
            assert daemon.journal_compactions == 0
        finally:
            try:
                client.stop(timeout=10.0)
            except (ConfigError, DaemonUnavailable):
                pass
            thread.join(timeout=30.0)
            pool.close()


# ---------------------------------------------------------------------------
# Resent requests: one request id across reconnects; daemon-side dedup
# ---------------------------------------------------------------------------


class TestRetriedReconnect:
    def test_same_request_id_across_reconnect(self):
        """Regression: a reconnect must resend the SAME request id.

        The old race: the client regenerated the id on its fresh-connection
        retry, so a daemon that *had* read the first delivery (then lost the
        connection before answering) saw two distinct requests and applied
        the op twice.  The id is generated once before any send, making
        the resend deduplicable; and a healthy first connection is served
        on the first send.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        delivered_ids = []

        def dying_then_healthy_server():
            # Connection 1: handshake, READ the request (the daemon has now
            # seen it), then die without answering — the ambiguous window.
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            request = recv_frame(conn)
            delivered_ids.append(request["id"])
            conn.close()
            # Connection 2: the resend; answer it and the next request.
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            for applied in (1, 2):
                request = recv_frame(conn)
                delivered_ids.append(request["id"])
                send_frame(
                    conn, {"ok": True, "id": request["id"], "applied": applied}
                )
            conn.close()

        server = threading.Thread(target=dying_then_healthy_server, daemon=True)
        server.start()
        client = SocketControlClient(f"127.0.0.1:{port}", timeout=5.0)
        try:
            response = client.request({"op": "preempt", "job": "j0"})
            assert response["applied"] == 1
            assert len(delivered_ids) == 2
            assert delivered_ids[0] == delivered_ids[1]  # the fix under test
            # The cached connection serves the next request first time.
            assert client.request({"op": "ping"})["applied"] == 2
            assert len(delivered_ids) == 3
        finally:
            client.close()
            listener.close()
            server.join(timeout=5.0)


class TestDaemonIdempotency:
    def test_duplicate_request_id_replays_instead_of_reapplying(
        self, tmp_path
    ):
        """A resent submit (same id) must not register the job twice."""
        control = tmp_path / "ctl"
        with _serving(control) as daemon:
            client = SocketControlClient(control / "daemon.sock")
            frame = {
                "op": "submit", "spec": _tiny_spec("j0"), "id": "fixedid00001"
            }
            try:
                first = client.request(frame)
                assert first["ok"] is True
                # The client never saw the response (crash/drop); it resends
                # the identical frame.  Without dedup: "job exists".
                replayed = client.request(frame)
            finally:
                client.close()
            assert replayed == first  # byte-equal replay, not a re-apply
            assert daemon.duplicate_requests == 1
            assert list(daemon.scheduler.jobs) == ["j0"]

    def test_resent_read_gets_a_fresh_answer(self, tmp_path):
        """Only write ops are remembered: a status resent under its id is
        answered again, not replayed, and is no duplicate."""
        control = tmp_path / "ctl"
        with _serving(control) as daemon:
            client = SocketControlClient(control / "daemon.sock")
            frame = {"op": "status", "id": "fixedid00002"}
            try:
                first = client.request(frame)
                second = client.request(frame)
            finally:
                client.close()
            assert second["requests_served"] == first["requests_served"] + 1
            assert daemon.duplicate_requests == 0

    def test_distinct_ids_are_not_deduplicated(self, tmp_path):
        control = tmp_path / "ctl"
        with _serving(control) as daemon:
            served = daemon.requests_served
            client = SocketControlClient(control / "daemon.sock")
            try:
                for request_id in ("aaaaaaaaaaa1", "aaaaaaaaaaa2"):
                    client.request({"op": "ping", "id": request_id})
            finally:
                client.close()
            assert daemon.duplicate_requests == 0
            assert daemon.requests_served == served + 2
