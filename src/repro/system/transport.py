"""Transport layer of the edge server: connection frontends.

This module owns everything between the kernel and the serving core —
accepting connections, reading length-prefixed frames off the wire,
decoding them into :class:`~repro.system.messages.Message` envelopes and
writing replies back — and knows nothing about scheduling, batching or
model execution.  ``python -m tools.reprolint --checker layering`` pins
that boundary in CI: the transport may import :mod:`repro.system.messages` and the standard
library, never the scheduler or the executor.

The serving core (an :class:`~repro.system.engine.EdgeServer`) plugs in
through three callbacks::

    core.connection_opened(conn)                  -> None
    core.connection_message(conn, message)        -> Optional[work thunk]
    core.connection_closed(conn, error: str|None) -> None

``connection_message`` does only cheap work inline — handshake replies,
statistics booking, admission control — and returns a zero-argument
callable when the frame needs engine compute.  *Where* that callable runs
is the frontend's decision: the threaded frontend executes it on the
connection's own handler thread (one thread per connection, bounded by
``max_workers`` accept slots), the asyncio frontend hands it to a
``max_workers``-wide compute pool so the event loop never blocks on model
execution.  Replies travel through the :class:`Connection` the frontend
handed to the core — its ``send_bytes`` is thread-safe, so batcher and
compute threads reply directly without going back through the frontend.

Two frontends ship today, selectable via ``ServerConfig(frontend=...)``
(which also validates ``max_workers`` and ``backlog`` before they get here):

``"threaded"`` (default)
    The original thread-per-connection server.  Simple, and fine up to a
    few hundred connections; beyond that, idle connections each pin a
    thread and an accept slot.

``"async"``
    One asyncio event loop multiplexes every connection (thousands of
    mostly-idle ones cost a read callback each, not a thread each);
    compute is handed to a ``max_workers``-wide thread pool.  The
    semantics of ``max_workers`` therefore shift from "concurrent
    connections" to "concurrent engine calls" — idle connections are no
    longer bounded by it.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Tuple

from .messages import (_LENGTH_SIZE, KIND_STOP, _parse_prefix, _prefixed,
                       deserialize_message, disable_nagle, recv_message,
                       send_payload)

#: Frontend identifiers (``ServerConfig.frontend``).
FRONTEND_THREADED = "threaded"
FRONTEND_ASYNC = "async"
FRONTENDS = (FRONTEND_THREADED, FRONTEND_ASYNC)


class Connection:
    """One client connection as seen by the serving core.

    The core never touches sockets or event loops directly: it receives
    decoded messages through its callbacks and replies through
    :meth:`send_bytes`, which frames ``blob`` with the wire's length
    prefix and is safe to call from any thread (batcher threads and
    compute workers reply concurrently with the reader).  A write to a
    connection that is already gone raises :class:`OSError` — exactly
    like a plain socket — so the core's reply bookkeeping (book, write,
    roll back on failure) works identically under every frontend.
    """

    peer: str = ""

    def send_bytes(self, blob: bytes) -> int:
        """Frame and send one serialized message; returns bytes queued."""
        raise NotImplementedError


class _SocketConnection(Connection):
    """Blocking-socket connection of the threaded frontend."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self._sock = sock
        #: Serializes concurrent writers (handler thread vs batcher /
        #: compute threads) so frames never interleave on the wire.
        self._send_lock = threading.Lock()
        self.peer = peer

    def send_bytes(self, blob: bytes) -> int:
        with self._send_lock:
            return send_payload(self._sock, blob)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class ThreadedFrontend:
    """Thread-per-connection frontend (the original ``EdgeServer`` server).

    An accept loop holds a worker slot *before* accepting, so connections
    beyond ``max_workers`` genuinely wait in the kernel's listen backlog
    instead of being accepted and left unanswered; each accepted
    connection gets a handler thread that reads frames and runs the
    core's compute thunks inline.
    """

    def __init__(self, core, host: str, port: int, *, max_workers: int,
                 backlog: int) -> None:
        self._core = core
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        # A short accept timeout lets the accept loop poll the stop flag;
        # closing a listening socket from another thread is not guaranteed
        # to wake a blocked accept().
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._slots = threading.BoundedSemaphore(max_workers)
        self._lock = threading.Lock()
        self._connections: Dict[_SocketConnection, threading.Thread] = {}

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._serve, daemon=True)
        self._accept_thread.start()

    def _serve(self) -> None:
        while not self._stopped.is_set():
            # Bounded worker pool: hold a slot *before* accepting, so
            # excess connections wait in the listen backlog.  The short
            # timeouts keep shutdown from wedging on a full pool.
            if not self._slots.acquire(timeout=0.1):
                continue
            handed_off = False
            try:
                accepted = self._accept()
                if accepted is None:
                    return
                sock, addr = accepted
                sock.settimeout(None)
                disable_nagle(sock)
                connection = _SocketConnection(sock, peer="%s:%d" % addr[:2])
                handler = threading.Thread(target=self._handle,
                                           args=(connection,), daemon=True)
                with self._lock:
                    self._connections[connection] = handler
                handler.start()
                handed_off = True  # the handler releases the slot on exit
            finally:
                if not handed_off:
                    self._slots.release()

    def _accept(self) -> Optional[Tuple[socket.socket, Tuple]]:
        while not self._stopped.is_set():
            try:
                return self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stopped.is_set():
                    return None  # listener closed by stop()
                # Transient accept failure (fd exhaustion, aborted backlog
                # connection): keep the loop alive — a dead accept thread
                # would leave the server half-dead, serving existing
                # connections while silently refusing new ones.
                time.sleep(0.05)
        return None

    def _handle(self, connection: _SocketConnection) -> None:
        self._core.connection_opened(connection)
        error: Optional[str] = None
        try:
            while not self._stopped.is_set():
                try:
                    message = recv_message(connection._sock)
                except Exception as exc:
                    # Truncated, reset, or undecodable stream — all
                    # unrecoverable for a length-prefixed protocol: drop
                    # the connection but keep the server alive.  A read
                    # failing because stop() tore the socket down is the
                    # shutdown path, not a client error.
                    if not self._stopped.is_set():
                        error = f"{type(exc).__name__}: {exc}"
                    break
                if message is None or message.kind == KIND_STOP:
                    break
                try:
                    work = self._core.connection_message(connection, message)
                    if work is not None:
                        work()
                except OSError:
                    break
        finally:
            self._core.connection_closed(connection, error)
            connection.close()
            with self._lock:
                self._connections.pop(connection, None)
            self._slots.release()

    def stop(self) -> None:
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            live = list(self._connections.items())
        for connection, _handler in live:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for _connection, handler in live:
            handler.join(timeout=5.0)


class _AsyncConnection(Connection):
    """Event-loop connection of the asyncio frontend.

    ``send_bytes`` is called from compute/batcher threads: it hops the
    framed payload onto the event loop with ``call_soon_threadsafe``, and
    the loop does the actual non-blocking write.  Each payload is one
    ``write()`` call, so concurrent senders never interleave frames.  The
    returned byte count is the queued size — with an event-loop transport
    the write completes asynchronously, so a connection that dies in
    flight may under-report errors compared to the threaded frontend
    (the core's counters stay approximate, never corrupt).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 writer: asyncio.StreamWriter, peer: str) -> None:
        self._loop = loop
        self._writer = writer
        self._closed = False
        self.peer = peer

    def send_bytes(self, blob: bytes) -> int:
        if self._closed:
            raise OSError("connection is closed")
        payload = _prefixed(blob)
        try:
            self._loop.call_soon_threadsafe(self._write, payload)
        except RuntimeError as exc:  # loop already shut down
            raise OSError(f"frontend event loop is gone: {exc}")
        return len(payload)

    def _write(self, payload: bytes) -> None:
        if not self._closed and not self._writer.transport.is_closing():
            self._writer.write(payload)

    def mark_closed(self) -> None:
        """Flag writes as dead (called on the loop when the reader exits)."""
        self._closed = True


class AsyncFrontend:
    """Asyncio selector frontend: one event loop, many idle connections.

    The loop thread owns every socket: it accepts, reads length-prefixed
    frames with ``readexactly`` and decodes them; connections therefore
    cost a coroutine each instead of a thread each, so thousands of
    mostly-idle clients are cheap.  Compute thunks returned by the core
    are submitted to a ``max_workers``-wide thread pool — the event loop
    never runs model code — and replies re-enter the loop through
    :meth:`_AsyncConnection.send_bytes`.

    Engine guarantees are unchanged: frames are decoded and delivered to
    the core in arrival order per connection, replies are whole-frame
    atomic, and a connection torn down mid-reply surfaces as ``OSError``
    to the replying thread exactly as a closed socket would.
    """

    def __init__(self, core, host: str, port: int, *, max_workers: int,
                 backlog: int) -> None:
        self._core = core
        # Bind eagerly so host/port are known before start() — callers
        # (and tests) read server.port right after construction, exactly
        # like the threaded frontend.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
        sock.setblocking(False)
        self._sock = sock
        self.host, self.port = sock.getsockname()
        self._executor = ThreadPoolExecutor(max_workers=max_workers,
                                            thread_name_prefix="edge-compute")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = False

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run_loop, daemon=True,
                                        name="edge-frontend-loop")
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError("async frontend failed to start") \
                from self._startup_error

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._serve_connection, sock=self._sock))
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # stop() parked a loop.stop(); finish an orderly teardown on
            # the loop thread: cancel every live handler coroutine (their
            # finally blocks run connection_closed) and drain them.
            self._server.close()
            pending = [task for task in asyncio.all_tasks(loop)
                       if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        loop = self._loop
        assert loop is not None
        # asyncio disables Nagle only on sockets created with an explicit
        # proto=IPPROTO_TCP; ones accepted from our listener report proto 0.
        disable_nagle(writer.get_extra_info("socket"))
        peername = writer.get_extra_info("peername") or ("?", 0)
        connection = _AsyncConnection(loop, writer,
                                      peer="%s:%d" % peername[:2])
        self._core.connection_opened(connection)
        error: Optional[str] = None
        try:
            while True:
                try:
                    # An over-cap prefix raises ConnectionError here —
                    # before any buffering toward the claimed size.
                    length = _parse_prefix(
                        await reader.readexactly(_LENGTH_SIZE))
                    blob = await reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        # The stream ended inside a frame — the async twin
                        # of recv_message's mid-frame ConnectionError.
                        error = ("connection closed mid-frame: received "
                                 f"{len(exc.partial)} partial bytes")
                    break  # empty partial: clean close on a frame boundary
                try:
                    message = deserialize_message(blob)
                except Exception as exc:
                    error = f"undecodable message: {type(exc).__name__}: {exc}"
                    break
                message.wire_bytes = length + _LENGTH_SIZE
                if message.kind == KIND_STOP:
                    break
                try:
                    work = self._core.connection_message(connection, message)
                except OSError:
                    break
                if work is not None:
                    # Model compute must never run on the event loop: hand
                    # it to the bounded pool; the reply re-enters the loop
                    # through connection.send_bytes.
                    try:
                        self._executor.submit(self._run_work, work)
                    except RuntimeError:  # pool shut down: server stopping
                        break
        except (ConnectionError, OSError) as exc:
            if not self._stopping:  # shutdown teardown is not a client error
                error = f"{type(exc).__name__}: {exc}"
        except asyncio.CancelledError:
            pass  # stop() cancelled us; fall through to cleanup
        finally:
            connection.mark_closed()
            self._core.connection_closed(connection, error)
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    def _run_work(work: Callable[[], None]) -> None:
        try:
            work()
        except OSError:
            # The core replies inside work() and already tolerates dead
            # connections; a stray OSError here must not kill the pool
            # thread's usefulness for the next frame.
            pass

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        # cancel_futures needs 3.9+; compute in flight finishes, queued
        # thunks are dropped (their connections are gone anyway).
        self._executor.shutdown(wait=False, cancel_futures=True)
        try:
            self._sock.close()
        except OSError:
            pass


def create_frontend(kind: str, core, host: str, port: int, *,
                    max_workers: int, backlog: int):
    """Build the frontend named ``kind`` (one of :data:`FRONTENDS`)."""
    frontend = {FRONTEND_THREADED: ThreadedFrontend,
                FRONTEND_ASYNC: AsyncFrontend}[kind]
    return frontend(core, host, port, max_workers=max_workers,
                    backlog=backlog)
