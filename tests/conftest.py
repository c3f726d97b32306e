"""Shared fixtures: tiny datasets, profiles, systems and serving helpers.

Everything is deliberately small (few points, few classes, few layers) so the
whole suite runs quickly; the benchmarks exercise the larger paper-scale
configurations.

Serving tests get three anti-flake helpers (see ``docs/testing.md``):

``free_port()`` / the ``free_port`` fixture
    An OS-assigned ephemeral port for tests that must know a port *before*
    binding it (proxies, cluster configs).  Components that bind their own
    socket should keep using ``port=0`` and read the bound port back.
``served_app``
    Factory fixture building a *started* ``ServingApp`` (and stopping every
    app it built at teardown, pass-or-fail) — no hand-rolled listeners, no
    sleep-until-probably-up.
``wait_until``
    Bounded condition polling that raises with a description on timeout —
    the replacement for bare ``while: sleep()`` loops that hang forever
    when the condition never comes true.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.graph import SyntheticModelNet40, SyntheticMR, stratified_split
from repro.hardware import (DataProfile, JETSON_TX2, RASPBERRY_PI_4B, INTEL_I7,
                            NVIDIA_1060, LINK_40MBPS, LINK_10MBPS)
from repro.core import DesignSpace
from repro.system import CoInferenceSimulator, SystemConfig
from repro.system.messages import _LENGTH_FORMAT, _LENGTH_SIZE, _RAW_MAGIC

#: Per-test wall-clock cap (seconds) applied when pytest-timeout is
#: installed: a deadlocked socket test must fail, not hang the whole job.
#: Individual tests override with an explicit ``@pytest.mark.timeout``.
DEFAULT_TEST_TIMEOUT_S = 120


def pytest_collection_modifyitems(config, items):
    if not config.pluginmanager.hasplugin("timeout"):
        # pytest-timeout is CI tooling, not a hard dependency — without it
        # the suite runs exactly as before (no cap).
        return
    for item in items:
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(DEFAULT_TEST_TIMEOUT_S))


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port the OS just handed out (and we released).

    For components that need an address *before* they can bind (e.g. a
    ClusterConfig naming a proxy that is not up yet).  The tiny window
    between release and reuse is the reason components that *can* bind
    ``port=0`` themselves should — this helper is for the rest, and is
    still immune to the classic collision source (two tests hard-coding
    the same number).
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


@pytest.fixture(name="free_port")
def free_port_fixture():
    """Fixture twin of :func:`free_port` (call it for more ports)."""
    return free_port()


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.01,
               message: str = "condition"):
    """Poll ``predicate`` until truthy; raise ``TimeoutError`` otherwise.

    Returns the predicate's (truthy) value so callers can assert on it.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(f"{message} not met within {timeout:.1f}s")
        time.sleep(interval)


@pytest.fixture(name="wait_until")
def wait_until_fixture():
    return wait_until


def per_frame(edge_fn):
    """A per-frame ``edge_fn(arrays, meta)`` as the batched callable an
    ``EdgeServer`` entry takes — the same lift the server applies to its
    positional default ``edge_fn``."""
    return lambda frames: [edge_fn(*frame) for frame in frames]


def frame_specs(blob: bytes) -> list:
    """The array specs of a serialized frame, in either framing."""
    if blob[0] != _RAW_MAGIC:
        blob = zlib.decompress(blob)
    (header_len,) = struct.unpack_from(_LENGTH_FORMAT, blob, 2)
    start = 2 + _LENGTH_SIZE
    return json.loads(blob[start:start + header_len])["arrays"]


@contextlib.contextmanager
def fake_peer(handler):
    """A throwaway localhost listener whose job is to misbehave.

    ``handler(conn)`` runs once on the first accepted connection — slam it
    shut, feed it garbage, go silent — for tests of how clients survive a
    broken peer.  Yields ``(host, port)``; the listener, the connection and
    the handler thread are torn down on exit, pass or fail.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def accept_and_handle():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        try:
            handler(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    thread = threading.Thread(target=accept_and_handle, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(timeout=5.0)


@pytest.fixture
def served_app():
    """Factory for started ``ServingApp``s, all stopped at teardown.

    Usage::

        def test_something(served_app):
            app = served_app(zoo, config, in_dim=3, num_classes=3)
            with app.client(model="m") as client: ...

    The app binds ``port=0`` (the OS picks a free port — no collisions)
    and teardown stops every app the test built even when it failed, so a
    crashed assertion can never leak a listening socket into later tests.
    """
    from repro.serving import serve

    apps = []

    def factory(zoo, config=None, **kwargs):
        app = serve(zoo, config, **kwargs)
        apps.append(app)
        return app

    yield factory
    for app in reversed(apps):
        app.stop()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_modelnet():
    """5-class, 32-point synthetic ModelNet with a train/val/test split."""
    dataset = SyntheticModelNet40(num_points=32, samples_per_class=6,
                                  num_classes=5, seed=0)
    return stratified_split(dataset.generate(), 0.6, 0.2, seed=0)


@pytest.fixture(scope="session")
def tiny_mr():
    """Small synthetic MR split (2 classes, ~17 nodes, 64-dim features)."""
    dataset = SyntheticMR(num_documents=40, feature_dim=64, mean_nodes=12, seed=0)
    return stratified_split(dataset.generate(), 0.6, 0.2, seed=0)


@pytest.fixture(scope="session")
def modelnet_profile():
    return DataProfile.modelnet40(num_points=32, num_classes=5)


@pytest.fixture(scope="session")
def mr_profile():
    return DataProfile.mr(num_words=12, feature_dim=64)


@pytest.fixture(scope="session")
def paper_modelnet_profile():
    """Full-scale ModelNet profile used for hardware-model calibration tests."""
    return DataProfile.modelnet40()


@pytest.fixture(scope="session")
def tx2_i7_system():
    return SystemConfig(device=JETSON_TX2, edge=INTEL_I7, link=LINK_40MBPS)


@pytest.fixture(scope="session")
def pi_1060_system():
    return SystemConfig(device=RASPBERRY_PI_4B, edge=NVIDIA_1060, link=LINK_40MBPS)


@pytest.fixture(scope="session")
def tx2_i7_simulator(tx2_i7_system):
    return CoInferenceSimulator(tx2_i7_system)


@pytest.fixture
def modelnet_space(modelnet_profile):
    return DesignSpace(num_layers=6, profile=modelnet_profile,
                       combine_widths=(16, 32, 64), k_choices=(4, 8),
                       max_communicates=2)


@pytest.fixture
def mr_space(mr_profile):
    return DesignSpace(num_layers=5, profile=mr_profile,
                       combine_widths=(16, 32), k_choices=(4,),
                       max_communicates=2)
