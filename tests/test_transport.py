"""Control-plane transports: framing, file/socket parity, faults, scheduling.

The transport contract says the daemon cannot tell (and must not care) how a
request arrived — so the heart of this module is a *parity* test driving the
same request sequence through the file protocol and the TCP wire protocol
and demanding byte-identical responses.  Around it: the socket fault matrix
(truncated/oversized frames, bad auth, mid-response disconnects, concurrent
clients), the full daemon op set over TCP only, weighted scheduling shares,
the client's fail-fast on a dead daemon, and journal auto-compaction.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import uuid

import pytest

from repro.errors import ConfigError, TransportError
from repro.service import (
    ChunkStore,
    DaemonClient,
    DaemonConfig,
    DaemonUnavailable,
    FileTransport,
    FleetDaemon,
    SocketControlClient,
    SocketTransport,
    WriterPool,
)
from repro.service.transport import (
    FRAME_HEADER,
    PROTOCOL_VERSION,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.storage.local import LocalDirectoryBackend
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
# A deterministic handler served over both transports
# ---------------------------------------------------------------------------


class _ScriptedServer:
    """Serves a deterministic handler over any set of transports.

    Stands in for the daemon loop so parity tests compare *transports*,
    not scheduler timing: the handler's output depends only on the request.
    """

    def __init__(self, *transports):
        self.transports = transports
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
            handled = 0
            for transport in self.transports:
                for pending in transport.poll():
                    if pending.request is None:
                        response = {"ok": False, "error": "unreadable request"}
                    else:
                        try:
                            response = self.handle(pending.request)
                        except Exception as exc:  # noqa: BLE001 - mirrors daemon
                            response = {
                                "ok": False,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                    response["id"] = pending.request_id
                    pending.respond(response)
                    handled += 1
            if not handled:
                time.sleep(0.002)

    def __enter__(self):
        for transport in self.transports:
            transport.start()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        for transport in self.transports:
            transport.close()


def _file_roundtrip(control, body: dict, request_id: str) -> dict:
    """One raw file-protocol round trip with a chosen request id."""
    control.write(
        f"req-{request_id}.json",
        json.dumps(body, sort_keys=True).encode("utf-8"),
    )
    deadline = time.monotonic() + 10.0
    name = f"res-{request_id}.json"
    while time.monotonic() < deadline:
        if control.exists(name):
            response = json.loads(control.read(name).decode("utf-8"))
            control.delete(name)
            return response
        time.sleep(0.002)
    raise AssertionError(f"no response to {body}")


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

    def test_same_requests_byte_identical_responses(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl", fsync=False)
        file_transport = FileTransport(control)
        socket_transport = SocketTransport("127.0.0.1", 0)
        with _ScriptedServer(file_transport, socket_transport):
            sock_client = SocketControlClient(socket_transport.address)
            try:
                for i, body in enumerate(self.SEQUENCE):
                    request_id = f"parity{i:04d}"
                    via_file = _file_roundtrip(control, dict(body), request_id)
                    via_sock = sock_client.request({**body, "id": request_id})
                    file_bytes = json.dumps(via_file, sort_keys=True).encode()
                    sock_bytes = json.dumps(via_sock, sort_keys=True).encode()
                    assert file_bytes == sock_bytes, (
                        f"transport responses diverge for {body}"
                    )
            finally:
                sock_client.close()

    def test_unreadable_file_request_gets_error_envelope(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl", fsync=False)
        transport = FileTransport(control)
        with _ScriptedServer(transport):
            control.write("req-broken000.json", b"\xff not json")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if control.exists("res-broken000.json"):
                    break
                time.sleep(0.002)
            response = json.loads(control.read("res-broken000.json"))
            assert response == {
                "ok": False,
                "error": "unreadable request",
                "id": "broken000",
            }
            # The unreadable request was consumed, not re-served forever.
            assert not control.exists("req-broken000.json")


# ---------------------------------------------------------------------------
# Socket fault matrix
# ---------------------------------------------------------------------------


@pytest.fixture
def scripted_socket():
    transport = SocketTransport(
        "127.0.0.1",
        0,
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
        sock = _raw_conn(scripted_socket)
        try:
            send_frame(sock, {"qckpt": 99, "token": "hunter2"})
            reply = recv_frame(sock)
            assert not reply["ok"] and "protocol" in reply["error"]
        finally:
            sock.close()

    def test_client_api_rejects_bad_token(self, scripted_socket):
        client = SocketControlClient(scripted_socket.address, token="nope")
        with pytest.raises(TransportError, match="bad auth token"):
            client.request({"op": "echo", "payload": 1})

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
            client = SocketControlClient(
                scripted_socket.address, token="hunter2"
            )
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

    def test_connect_to_nobody_raises(self):
        client = SocketControlClient("127.0.0.1:1", timeout=1.0)
        with pytest.raises(TransportError, match="cannot connect"):
            client.request({"op": "ping"})

    def test_stale_buffered_error_frame_triggers_fresh_retry(self):
        """An un-correlated frame on a cached connection is not the answer.

        A server that idles out a connection leaves an id-less error
        envelope buffered in the client's socket.  The client must not
        hand that frame back as the response to its next (unrelated)
        request — it must drop the poisoned connection and retry once,
        fresh, exactly like any other stale-connection failure.
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
            # Connection 2: the retry — serve it properly.
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
# The daemon over TCP only
# ---------------------------------------------------------------------------


class _SocketDaemonFixture:
    """A daemon serving file + socket; the test talks TCP exclusively."""

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
        while self.daemon.socket_transport.port == 0:
            if time.monotonic() > deadline:
                raise AssertionError("socket transport never bound")
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

    def test_file_transport_still_works_alongside(
        self, socket_daemon, tmp_path
    ):
        """Socket serving does not displace the file plane: both answer."""
        socket_daemon.start()
        file_client = DaemonClient(tmp_path / "ctl", timeout=10.0)
        assert file_client.ping()["ok"]
        assert file_client.is_alive()
        meta = file_client.daemon_meta()
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
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                jobs = client.status()["jobs"]
                if jobs["lo"]["ticks_scheduled"] >= 30:
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
        # ~2x the ticks, with slack for the startup transient.
        ratio = hi["ticks_scheduled"] / lo["ticks_scheduled"]
        assert 1.6 <= ratio <= 2.4, (
            f"priority-2 share off target: {ratio:.2f}x "
            f"({hi['ticks_scheduled']} vs {lo['ticks_scheduled']})"
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
# Client fail-fast on a dead daemon
# ---------------------------------------------------------------------------


class TestStaleDaemonFailFast:
    def _write_meta(self, control, heartbeat: float, state: str = "running"):
        control.write(
            "daemon.json",
            json.dumps(
                {
                    "daemon_id": "daemon-dead00",
                    "pid": 424242,
                    "state": state,
                    "heartbeat": heartbeat,
                    "tick": 17,
                },
                sort_keys=True,
            ).encode("utf-8"),
        )

    def test_stale_heartbeat_fails_fast_naming_the_corpse(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl", fsync=False)
        self._write_meta(control, heartbeat=time.time() - 120.0)
        client = DaemonClient(control, timeout=30.0, stale_after_seconds=2.0)
        started = time.monotonic()
        with pytest.raises(DaemonUnavailable) as excinfo:
            client.ping()
        elapsed = time.monotonic() - started
        # Fail-fast: nowhere near the 30 s request timeout.
        assert elapsed < 5.0, f"stale daemon took {elapsed:.1f}s to surface"
        message = str(excinfo.value)
        assert "daemon-dead00" in message
        assert "424242" in message
        assert "heartbeat" in message
        # The abandoned request was cleaned up.
        assert not control.list("req-")

    def test_stopped_state_fails_fast(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl", fsync=False)
        self._write_meta(control, heartbeat=time.time(), state="stopped")
        client = DaemonClient(control, timeout=30.0)
        started = time.monotonic()
        with pytest.raises(DaemonUnavailable, match="stopped"):
            client.request("status", job=None)
        assert time.monotonic() - started < 5.0
        assert not control.list("req-")

    def test_no_meta_still_waits_for_a_late_daemon(self, tmp_path):
        # An empty control directory may belong to a daemon that has not
        # claimed it *yet* — the client must keep waiting (and time out
        # with the old error), not fail fast.
        client = DaemonClient(tmp_path / "virgin", timeout=0.4)
        with pytest.raises(ConfigError, match="did not answer"):
            client.ping()

    def test_fresh_heartbeat_is_not_stale(self, tmp_path):
        control = LocalDirectoryBackend(tmp_path / "ctl", fsync=False)
        self._write_meta(control, heartbeat=time.time())
        client = DaemonClient(control, timeout=0.6, stale_after_seconds=30.0)
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
# Retried reconnect: one request id across reconnects; daemon-side dedup
# ---------------------------------------------------------------------------


class TestRetriedReconnect:
    def test_same_request_id_across_reconnect(self):
        """Regression: a reconnect must resend the SAME request id.

        The old race: the client regenerated the id on its fresh-connection
        retry, so a daemon that *had* read the first delivery (then lost the
        connection before answering) saw two distinct requests and applied
        the op twice.  With a retry policy the id is generated once before
        any attempt, making the resend deduplicable.
        """
        from repro.reliability import RetryPolicy

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
            # Connection 2: the policy-driven reconnect; answer properly.
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            request = recv_frame(conn)
            delivered_ids.append(request["id"])
            send_frame(conn, {"ok": True, "id": request["id"], "applied": 1})
            conn.close()

        server = threading.Thread(target=dying_then_healthy_server, daemon=True)
        server.start()
        client = SocketControlClient(
            f"127.0.0.1:{port}",
            timeout=5.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter="none"),
        )
        try:
            response = client.request({"op": "preempt", "job": "j0"})
            assert response["applied"] == 1
            assert len(delivered_ids) == 2
            assert delivered_ids[0] == delivered_ids[1]  # the fix under test
        finally:
            client.close()
            listener.close()
            server.join(timeout=5.0)

    def test_without_policy_legacy_single_retry_still_works(self):
        """The conservative legacy regime is untouched when retry=None."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]

        def server_once():
            conn, _ = listener.accept()
            assert recv_frame(conn)["qckpt"] == PROTOCOL_VERSION
            send_frame(conn, {"ok": True, "protocol": PROTOCOL_VERSION})
            request = recv_frame(conn)
            send_frame(conn, {"ok": True, "id": request["id"], "pong": 1})
            conn.close()

        server = threading.Thread(target=server_once, daemon=True)
        server.start()
        client = SocketControlClient(f"127.0.0.1:{port}", timeout=5.0)
        try:
            assert client.request({"op": "ping"})["pong"] == 1
        finally:
            client.close()
            listener.close()
            server.join(timeout=5.0)


class TestDaemonIdempotency:
    def test_duplicate_request_id_replays_instead_of_reapplying(self):
        """A resent submit (same id) must not register the job twice."""
        control = InMemoryBackend()
        pool = WriterPool(workers=1)
        try:
            daemon = FleetDaemon(
                ChunkStore(InMemoryBackend(), block_bytes=2048),
                pool,
                control,
                config=DaemonConfig(tick_seconds=0.002),
            )
            daemon._claim_control()
            body = json.dumps(
                {"op": "submit", "spec": _tiny_spec("j0"), "id": "fixedid00001"},
                sort_keys=True,
            ).encode("utf-8")
            control.write("req-fixedid00001.json", body)
            assert daemon._poll_control() == 1
            first = json.loads(
                control.read("res-fixedid00001.json").decode("utf-8")
            )
            assert first["ok"] is True

            # The client never saw the response (crash/drop); it resends the
            # identical request.  Without dedup this would be "job exists".
            control.delete("res-fixedid00001.json")
            control.write("req-fixedid00001.json", body)
            assert daemon._poll_control() == 1
            replayed = json.loads(
                control.read("res-fixedid00001.json").decode("utf-8")
            )
            assert replayed == first  # byte-equal replay, not a re-apply
            assert daemon.duplicate_requests == 1
            assert list(daemon.scheduler.jobs) == ["j0"]
        finally:
            pool.close()

    def test_distinct_ids_are_not_deduplicated(self):
        control = InMemoryBackend()
        pool = WriterPool(workers=1)
        try:
            daemon = FleetDaemon(
                ChunkStore(InMemoryBackend(), block_bytes=2048),
                pool,
                control,
                config=DaemonConfig(tick_seconds=0.002),
            )
            daemon._claim_control()
            for request_id in ("aaaaaaaaaaa1", "aaaaaaaaaaa2"):
                control.write(
                    f"req-{request_id}.json",
                    json.dumps(
                        {"op": "ping", "id": request_id}, sort_keys=True
                    ).encode("utf-8"),
                )
            assert daemon._poll_control() == 2
            assert daemon.duplicate_requests == 0
            assert daemon.requests_served == 2
        finally:
            pool.close()
