"""Tests for the RPC server, sync client, and pub/sub hub."""

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro import telemetry
from repro.errors import ConfigurationError, ProtocolError
from repro.service.pubsub import PubSubHub, topic_matches
from repro.service.rpc import Client, RemoteError, RPCServer


@contextlib.contextmanager
def rpc_server(methods, registry=None):
    """An RPCServer on a background loop thread, for sync tests;
    the loop thread records into *registry* (a fresh one by
    default)."""
    holder = {}
    started = threading.Event()

    def main():
        async def body():
            hub = PubSubHub()
            server = RPCServer(methods, hub)
            address = await server.start()
            holder.update(address=address, hub=hub,
                          loop=asyncio.get_running_loop(),
                          stop=asyncio.Event())
            started.set()
            try:
                await holder["stop"].wait()
            finally:
                await server.stop()

        with telemetry.use_registry(registry):
            asyncio.run(body())

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    try:
        yield holder
    finally:
        holder["loop"].call_soon_threadsafe(holder["stop"].set)
        thread.join(timeout=10)


def publish(holder, topic, data):
    """Publish onto the server's hub from the test thread."""
    holder["loop"].call_soon_threadsafe(holder["hub"].publish,
                                        topic, data)


class TestTopicMatching:
    @pytest.mark.parametrize("pattern,topic,match", [
        ("job.3.state", "job.3.state", True),
        ("job.3.state", "job.30.state", False),
        ("job.*", "job.3.partial", True),
        ("job.3.*", "job.3.partial", True),
        ("job.3.*", "job.30.partial", False),
        ("*", "anything.at.all", True),
    ])
    def test_patterns(self, pattern, topic, match):
        assert topic_matches(pattern, topic) is match


class TestPubSubHub:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_drop_oldest_backpressure(self):
        async def body():
            hub = PubSubHub()
            with telemetry.use_registry() as reg:
                sub = hub.subscribe(["t"], maxsize=2)
                for i in range(5):
                    hub.publish("t", i)
                got = [await sub.get(), await sub.get()]
            # The two newest survive; three were evicted.
            assert [e["data"] for e in got] == [3, 4]
            assert [e["seq"] for e in got] == [4, 5]
            assert sub.dropped == 3
            counters = reg.to_dict()["counters"]
            assert counters["service.events_dropped"] == 3
            assert counters["service.events_published"] == 5

        self._run(body())

    def test_seq_is_per_topic_and_monotonic(self):
        async def body():
            hub = PubSubHub()
            sub = hub.subscribe(["*"])
            hub.publish("a", 1)
            hub.publish("b", 1)
            hub.publish("a", 2)
            events = [await sub.get() for _ in range(3)]
            assert [(e["event"], e["seq"]) for e in events] == \
                [("a", 1), ("b", 1), ("a", 2)]

        self._run(body())

    def test_unsubscribe_delivers_sentinel(self):
        async def body():
            hub = PubSubHub()
            sub = hub.subscribe(["t"])
            hub.unsubscribe(sub)
            assert await sub.get() is None
            assert hub.n_subscribers == 0

        self._run(body())

    def test_bad_config_rejected(self):
        hub = PubSubHub()
        with pytest.raises(ConfigurationError):
            hub.subscribe([])
        with pytest.raises(ConfigurationError):
            PubSubHub(default_maxsize=0)


class TestRPCRoundTrip:
    def test_call_returns_result(self):
        with rpc_server({"echo": lambda **kw: kw}) as srv:
            with Client(*srv["address"]) as cli:
                assert cli.call("echo", a=1, b="x") == \
                    {"a": 1, "b": "x"}

    def test_attribute_proxy(self):
        with rpc_server({"add": lambda x, y: x + y}) as srv:
            with Client(*srv["address"]) as cli:
                assert cli.add(x=2, y=3) == 5

    def test_unknown_method_is_remote_error(self):
        with rpc_server({}) as srv:
            with Client(*srv["address"]) as cli:
                with pytest.raises(RemoteError) as err:
                    cli.call("nope")
                assert err.value.remote_type == "ProtocolError"

    def test_handler_exception_propagates_with_traceback(self):
        def boom():
            raise ValueError("knob out of range")

        with rpc_server({"boom": boom}) as srv:
            with Client(*srv["address"]) as cli:
                with pytest.raises(RemoteError) as err:
                    cli.call("boom")
                assert err.value.remote_type == "ValueError"
                assert "knob out of range" in str(err.value)
                assert "ValueError" in err.value.remote_traceback
                # The connection survives the failure.
                assert cli.call("methods")

    def test_async_handler_awaited(self):
        async def slow_double(x):
            await asyncio.sleep(0.01)
            return x * 2

        with rpc_server({"double": slow_double}) as srv:
            with Client(*srv["address"]) as cli:
                assert cli.double(x=21) == 42

    def test_concurrent_requests_one_connection(self):
        """A slow call must not block a fast one on the same
        connection (requests dispatch as independent tasks)."""
        async def slow():
            await asyncio.sleep(0.4)
            return "slow"

        with rpc_server({"slow": slow,
                         "fast": lambda: "fast"}) as srv:
            with Client(*srv["address"]) as cli:
                order = []

                def call(name):
                    cli.call(name)
                    order.append(name)

                t1 = threading.Thread(target=call, args=("slow",))
                t1.start()
                time.sleep(0.05)
                call("fast")
                t1.join()
                assert order == ["fast", "slow"]

    def test_concurrent_clients(self):
        with rpc_server({"whoami": lambda tag: tag}) as srv:
            clients = [Client(*srv["address"]) for _ in range(3)]
            try:
                for i, cli in enumerate(clients):
                    assert cli.whoami(tag=i) == i
            finally:
                for cli in clients:
                    cli.close()

    def test_malformed_line_gets_error_response(self):
        with rpc_server({}) as srv:
            sock = socket.create_connection(srv["address"])
            try:
                sock.sendall(b"{this is not json}\n")
                reply = sock.makefile("rb").readline()
                assert b'"ok":false' in reply
                assert b"ProtocolError" in reply
            finally:
                sock.close()

    def test_call_after_close_rejected(self):
        with rpc_server({"echo": lambda **kw: kw}) as srv:
            cli = Client(*srv["address"])
            cli.close()
            with pytest.raises(ProtocolError):
                cli.call("echo")


class TestRPCEvents:
    def test_subscribed_events_stream_in(self):
        with rpc_server({}) as srv:
            with Client(*srv["address"]) as cli:
                cli.subscribe("job.*")
                for i in range(3):
                    publish(srv, "job.1.partial", {"i": i})
                events = [cli.next_event(timeout_s=5)
                          for _ in range(3)]
                assert all(e is not None for e in events)
                assert [e["data"]["i"] for e in events] == [0, 1, 2]
                assert [e["seq"] for e in events] == [1, 2, 3]

    def test_pattern_filters_topics(self):
        with rpc_server({}) as srv:
            with Client(*srv["address"]) as cli:
                cli.subscribe("job.7.*")
                publish(srv, "job.1.partial", "other")
                publish(srv, "job.7.state", "mine")
                event = cli.next_event(timeout_s=5)
                assert event["event"] == "job.7.state"
                assert cli.next_event(timeout_s=0.2) is None

    def test_events_interleave_with_calls(self):
        with rpc_server({"echo": lambda **kw: kw}) as srv:
            with Client(*srv["address"]) as cli:
                cli.subscribe("*")
                publish(srv, "t", 1)
                assert cli.echo(x=1) == {"x": 1}
                publish(srv, "t", 2)
                got = [cli.next_event(timeout_s=5)["data"]
                       for _ in range(2)]
                assert got == [1, 2]
