"""TCP replica node: the shard worker behind a socket.

A *node* is :class:`~repro.runtime.shard.ReplicaCore` — the exact worker
loop the shards run — reached over TCP instead of a pipe, so a fleet of
machines can serve the same zoo the way one box's cores do.  Everything
above the socket is shared code: the same JSON zoo payload bootstrap (same
seed → bit-identical replica weights), the same ``frame``/``publish``
envelope kinds in the versioned raw wire framing, the same idempotent
snapshot replication and pin checks.  So is the byte stream itself: each
end of a node hop drives its connected socket through the stream endpoint
a shard's pipes use (``_StreamEndpoint`` in :mod:`repro.runtime.shard`:
a non-blocking descriptor, ``poll`` waits, a two-part write deadline and a
receive cap).

Handshake
---------
A node starts *empty* — it holds no models until a router connects — so
nodes can be launched standalone on remote machines (``python -m
repro.runtime.node --port 9000``) before any router exists.  Each
connection runs the one worker handshake every shard runs too
(``_serve_worker``): the router's hello (one ``publish`` envelope whose
``meta`` is the full bootstrap dict) builds the node's core on first
contact, or — on a reconnect — idempotently installs the hello's snapshot
if it is newer than what the node already holds; the node answers
``ready`` (pid, node id, installed version) and then serves the normal
envelope loop, including ``ping`` → ``pong`` heartbeats, until the
connection closes.

Connections are served concurrently (one thread each) against the single
shared core, mirroring the in-process server's worker threads; a router
redialing after a partition therefore never waits for the stale
connection to finish dying.

Crash behavior mirrors the shard tier: the router detects a dead node
(reader failure, missed heartbeats) and fails that node's in-flight
requests with :class:`NodeCrashedError` — a :class:`ConnectionError` — so
a killed node produces clean per-frame errors while new traffic reroutes
to the surviving replicas.  A spawned node likewise exits when its parent
disappears.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Optional

from ..system.messages import disable_nagle
# bootstrap_meta is re-exported: a node's hello is the shard tier's hello,
# so there is one builder for both.
from .shard import (_CoreHolder, _StreamEndpoint, _parent_alive,
                    _serve_worker, bootstrap_meta)

#: How long a node's accept loop sleeps between liveness polls (seconds).
_ACCEPT_POLL_S = 0.5


class NodeCrashedError(ConnectionError):
    """A replica node died (or became unreachable) mid-request."""


@dataclass
class NodeStats:
    """Router-side view of one node's serving counters.

    Folded into :class:`~repro.system.engine.EdgeServerStats` by a
    clustered server so operators see per-node utilization, replication
    lag (``snapshot_version``) and dead nodes in the same snapshot as the
    socket-level statistics.
    """

    node_id: int
    #: ``host:port`` the router dials for this node.
    address: str
    alive: bool
    frames: int
    #: Requests shipped to the node, one envelope each (a lone frame is a
    #: batch of one), so ``frames / batches`` is the mean request size.
    batches: int
    errors: int
    #: Engine time the node reported for its executed frames (excludes
    #: transport; the server's ``mean_service_time_s`` includes it).
    service_time_s: float
    bytes_to_node: int
    bytes_from_node: int
    #: Latest snapshot version the node acknowledged (ready or publish ack).
    snapshot_version: int
    #: Last heartbeat round-trip in milliseconds; ``None`` before the
    #: first pong (or after the node died).
    rtt_ms: Optional[float]
    #: Times this slot was reconnected/respawned (0 = original connection).
    restarts: int = 0
    #: True once the supervisor stopped respawning this slot (crash loop).
    quarantined: bool = False
    #: Why the node behind this slot most recently died, if it ever did.
    last_death_reason: Optional[str] = None


def _serve_connection(conn: socket.socket, holder: _CoreHolder,
                      node_id: int) -> None:
    """Handshake then envelope loop for one router connection."""
    _serve_worker(_StreamEndpoint(conn), holder, node_id)


def _node_main(node_id: int, host: str, port: int, ready_conn=None) -> None:
    """Entry point of one node process (spawn-safe, module-level).

    Binds ``host:port`` (0 = ephemeral), reports the bound port back
    through ``ready_conn`` (a ``multiprocessing`` pipe end) when given,
    then accepts router connections until its parent disappears.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        bound_port = listener.getsockname()[1]
    except Exception as exc:
        if ready_conn is not None:
            import traceback
            ready_conn.send(("error",
                             f"{type(exc).__name__}: {exc}\n"
                             f"{traceback.format_exc()}"))
            ready_conn.close()
        listener.close()
        return
    if ready_conn is not None:
        ready_conn.send(("ok", bound_port))
        ready_conn.close()

    holder = _CoreHolder()
    listener.settimeout(_ACCEPT_POLL_S)
    try:
        while _parent_alive():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            disable_nagle(conn)
            threading.Thread(target=_serve_connection,
                             args=(conn, holder, node_id),
                             name=f"node-{node_id}-conn",
                             daemon=True).start()
    finally:
        listener.close()


class NodeProcess:
    """Spawn one localhost replica node and learn its bound address.

    The test/bench harness for the cluster tier: spawns
    :func:`_node_main` in a fresh process (spawn context — same isolation
    the shard tier uses), waits for the child to report the port it
    actually bound (``port=0`` → ephemeral, no collisions), and exposes
    ``address`` for :class:`~repro.serving.ClusterConfig.nodes`.
    """

    def __init__(self, node_id: int = 0, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.node_id = node_id
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._process = None

    def start(self, timeout: float = 30.0) -> "NodeProcess":
        import multiprocessing
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_node_main,
            args=(self.node_id, self.host, self._requested_port, child_conn),
            name=f"repro-node-{self.node_id}", daemon=True)
        self._process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(timeout):
                raise NodeCrashedError(
                    f"node {self.node_id} did not report a port within "
                    f"{timeout:.0f}s")
            status, detail = parent_conn.recv()
        except EOFError:
            raise NodeCrashedError(
                f"node {self.node_id} died before reporting a port")
        finally:
            parent_conn.close()
        if status != "ok":
            self.stop()
            raise NodeCrashedError(
                f"node {self.node_id} failed to bind "
                f"{self.host}:{self._requested_port}: {detail}")
        self.port = int(detail)
        return self

    @property
    def address(self) -> str:
        if self.port is None:
            raise RuntimeError("node not started")
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def kill(self) -> None:
        """SIGKILL the node — the chaos tests' hard-crash injection."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=10.0)

    def restart(self, timeout: float = 30.0) -> "NodeProcess":
        """Respawn a dead node on the address it previously bound.

        The listener binds with ``SO_REUSEADDR``, so rebinding the same
        port immediately after a crash is safe — the router's configured
        ``host:port`` for this slot stays valid across the respawn.  The
        fresh process starts *empty* exactly like the original; the
        router's reconnect handshake replays the current snapshot.
        """
        if self.alive():
            return self
        if self.port is not None:
            self._requested_port = self.port
        self._process = None
        return self.start(timeout=timeout)

    def stop(self) -> None:
        if self._process is None:
            return
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=10.0)
            if self._process.is_alive():  # pragma: no cover - last resort
                self._process.kill()
                self._process.join(timeout=10.0)
        self._process = None

    def __enter__(self) -> "NodeProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv=None) -> None:
    """Run one replica node in the foreground (remote-machine deploys)."""
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="0.0.0.0",
                        help="interface to bind (default: all)")
    parser.add_argument("--port", type=int, default=9000,
                        help="TCP port to listen on (0 = ephemeral)")
    parser.add_argument("--node-id", type=int, default=0,
                        help="identity reported in ready/pong envelopes")
    options = parser.parse_args(argv)
    print(f"repro node {options.node_id} listening on "
          f"{options.host}:{options.port}", flush=True)
    _node_main(options.node_id, options.host, options.port)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    main()
