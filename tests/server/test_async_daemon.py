"""The asyncio daemon: coalescing, backpressure, and wire stability."""

import json
import socket
import threading

import pytest

from repro.engine import IncrementalEngine
from repro.server import AnalysisService, serve_async_tcp
from repro.server.protocol import OVERLOADED

ML = 'type t = A of int | B\nexternal get : t -> int = "ml_get"\n'

GOOD_C = """\
value ml_get(value x)
{
    if (Is_long(x)) return Val_int(0);
    return Field(x, 0);
}
"""


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "lib.ml").write_text(ML)
    (root / "good.c").write_text(GOOD_C)
    return root


class Daemon:
    """serve_async_tcp on an ephemeral port, in a background thread."""

    def __init__(self, root, *, port=0, workers=2, max_queue=4):
        self.service = AnalysisService(IncrementalEngine(root))
        ready = threading.Event()
        bound = []
        self.thread = threading.Thread(
            target=serve_async_tcp,
            args=(self.service,),
            kwargs={
                "port": port,
                "workers": workers,
                "max_queue": max_queue,
                "ready": ready,
                "bound": bound,
            },
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(timeout=30), "daemon did not come up"
        self.address = bound[0]

    def call_lines(self, *requests):
        """One connection, sequential round-trips; raw response lines."""
        with socket.create_connection(self.address, timeout=30) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            lines = []
            for request in requests:
                handle.write(json.dumps(request) + "\n")
                handle.flush()
                lines.append(handle.readline())
            return lines

    def call(self, *requests):
        return [json.loads(line) for line in self.call_lines(*requests)]

    def stop(self):
        if self.thread.is_alive():
            self.call({"id": "stop", "method": "shutdown"})
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture()
def daemon(tree):
    handle = Daemon(tree)
    yield handle
    handle.stop()


class TestWire:
    def test_ping_check_status(self, daemon):
        ping, check, status = daemon.call(
            {"id": 1, "method": "ping"},
            {"id": 2, "method": "check"},
            {"id": 3, "method": "status"},
        )
        assert ping["result"]["pong"] is True
        assert check["result"]["tally"]["errors"] == 0
        server = status["result"]["server"]
        assert server["workers"] == 2
        assert server["max_queue"] == 4
        assert server["shed"] == 0
        assert status["result"]["coalescing"]["requests"] >= 1

    def test_invalid_check_params_rejected(self, daemon):
        (response,) = daemon.call(
            {"id": 1, "method": "check", "params": {"units": "nope"}}
        )
        assert response["error"]["code"] == -32602

    def test_malformed_frame_answered_not_fatal(self, daemon):
        with socket.create_connection(daemon.address, timeout=30) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            handle.write("{nope\n")
            handle.flush()
            first = json.loads(handle.readline())
            handle.write(json.dumps({"id": 2, "method": "ping"}) + "\n")
            handle.flush()
            second = json.loads(handle.readline())
        assert "error" in first
        assert second["result"]["pong"] is True

    def test_shutdown_frame_stops_the_daemon(self, tree):
        handle = Daemon(tree)
        (response,) = handle.call({"id": 1, "method": "shutdown"})
        assert response["result"] == {"ok": True}
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()

    def test_second_client_sees_the_warm_engine(self, daemon):
        (first,) = daemon.call({"id": 1, "method": "check"})
        assert first["result"]["tally"]["errors"] == 0
        (second,) = daemon.call({"id": 2, "method": "check"})
        assert second["result"]["incremental"]["reused"] == 1


class TestRebind:
    def test_restart_can_rebind_the_same_port_immediately(self, tree):
        """A restarted daemon must reclaim its port while the old
        connection lingers in TIME_WAIT, not crash with EADDRINUSE
        (``asyncio.start_server`` sets ``SO_REUSEADDR`` on POSIX)."""
        first = Daemon(tree)
        host, port = first.address
        with socket.create_connection(first.address, timeout=30) as conn:
            handle = conn.makefile("rw", encoding="utf-8")
            handle.write(json.dumps({"id": 1, "method": "shutdown"}) + "\n")
            handle.flush()
            assert json.loads(handle.readline())["result"] == {"ok": True}
            # wait for the daemon to hang up first: the side that closes
            # first holds TIME_WAIT, here on the daemon's own port
            assert handle.readline() == ""
        first.thread.join(timeout=10)
        assert not first.thread.is_alive()

        reborn = Daemon(tree, port=port)
        try:
            assert reborn.address == (host, port)
        finally:
            reborn.stop()


class TestCoalescing:
    def test_concurrent_identical_checks_compute_once(self, daemon):
        """Two identical in-flight checks elect one leader; the follower
        shares its computation — the tentpole's core contract.  The
        leader is wedged on an event until the follower has provably
        coalesced, so the overlap is deterministic, not a race."""
        engine = daemon.service.engine
        coalescer = daemon.service.coalescer
        original = engine.check
        started = threading.Event()
        release = threading.Event()

        def wedged_check(*args, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            return original(*args, **kwargs)

        engine.check = wedged_check
        lines = []
        lock = threading.Lock()

        def fire():
            line = daemon.call_lines({"id": 9, "method": "check"})[0]
            with lock:
                lines.append(line)

        leader = threading.Thread(target=fire)
        leader.start()
        assert started.wait(timeout=30), "leader never computed"
        follower = threading.Thread(target=fire)
        follower.start()
        try:
            deadline = threading.Event()
            for _ in range(200):
                if coalescer.coalesced_inflight >= 1:
                    break
                deadline.wait(0.05)
        finally:
            release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        engine.check = original

        assert len(lines) == 2
        # identical ids -> byte-identical responses (the splice contract)
        assert lines[0] == lines[1]
        assert json.loads(lines[0])["result"]["tally"]["errors"] == 0
        assert coalescer.computed == 1
        assert coalescer.coalesced_inflight == 1

    def test_memo_replay_is_byte_identical_across_connections(self, daemon):
        # reach steady state first: the cold check re-analyzes (and so
        # bumps the engine revision); the next check computes the
        # steady-state response that the memo then replays verbatim
        daemon.call({"id": "cold", "method": "check"})
        daemon.call({"id": "steady", "method": "check"})
        (first,) = daemon.call_lines({"id": 5, "method": "check"})
        (second,) = daemon.call_lines({"id": 5, "method": "check"})
        assert first == second
        stats = daemon.service.coalescer.stats()
        assert stats["coalesced_memo"] >= 2

    def test_invalidate_busts_the_memo(self, daemon, tree):
        (first,) = daemon.call({"id": 1, "method": "check"})
        assert first["result"]["incremental"]["ran"]
        edited = tree / "good.c"
        edited.write_text(edited.read_text() + "\n/* edit */\n")
        daemon.call(
            {
                "id": 2,
                "method": "invalidate",
                "params": {"paths": [str(edited)]},
            }
        )
        (after,) = daemon.call({"id": 3, "method": "check"})
        # a memo replay would report ran == []; the edit must re-run
        assert len(after["result"]["incremental"]["ran"]) == 1


class TestBackpressure:
    def test_saturated_daemon_sheds_with_overloaded_code(self, tree):
        """With one worker, no queue, and the only worker wedged, every
        further computation is shed with the distinct wire error."""
        handle = Daemon(tree, workers=1, max_queue=0)
        try:
            handle.call({"id": "warm", "method": "check"})
            engine = handle.service.engine
            original = engine.check
            started = threading.Event()
            release = threading.Event()

            def wedged_check(*args, **kwargs):
                started.set()
                assert release.wait(timeout=30)
                return original(*args, **kwargs)

            engine.check = wedged_check
            leader_lines = []

            def lead():
                leader_lines.extend(
                    handle.call(
                        {"id": "slow", "method": "check", "params": {"tag": 0}}
                    )
                )

            leader = threading.Thread(target=lead)
            leader.start()
            try:
                assert started.wait(timeout=30), "leader never computed"
                sheds = handle.call(
                    *[
                        {"id": i, "method": "check", "params": {"tag": i + 1}}
                        for i in range(4)
                    ]
                )
            finally:
                release.set()
                leader.join(timeout=30)
            engine.check = original

            for response in sheds:
                error = response["error"]
                assert error["code"] == OVERLOADED == -32005
                assert "overloaded" in error["message"]
                assert "queue_depth" in error["data"]
                assert error["data"]["workers"] == 1
            assert leader_lines and "result" in leader_lines[0]
            # shed requests never strand followers: the same params
            # compute fine once the daemon has capacity again
            (retry,) = handle.call(
                {"id": "retry", "method": "check", "params": {"tag": 1}}
            )
            assert "result" in retry
            status = handle.call({"id": "s", "method": "status"})[0]
            assert status["result"]["server"]["shed"] >= 4
        finally:
            handle.stop()
