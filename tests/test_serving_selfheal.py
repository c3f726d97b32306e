"""Self-healing serving: supervised respawn, quarantine, and shm hygiene.

The supervisor (``repro.serving.supervisor``) turns crash *detection* into
crash *recovery*, and each of its safety bounds is pinned here with a real
SIGKILL rather than a simulated flag:

* killing one of two shard workers (and, separately, one of two cluster
  node replicas) under live traffic with a client-side
  :class:`~repro.serving.RetryPolicy` produces **zero client-visible
  failures**: the pool returns to full strength within the backoff budget
  and post-respawn logits stay <= 1e-9 equivalent to the in-process
  reference;
* a slot that dies ``quarantine_deaths`` times within the window is
  quarantined — never respawned again — with the reason surfaced in
  ``app.stats()``, while publishes keep succeeding against the survivors;
* :meth:`~repro.serving.sharding.ShardPool.respawn` closes *and unlinks*
  the dead worker's shared-memory rings before the replacement spawns, so
  arbitrarily long restart histories never leak segments; ``stop()``
  racing an in-flight respawn is clean either way the race lands.

The chaos tests also dump the supervisor's machine-readable counters
(restart totals, time-to-full-strength, hardware envelope) to
``supervisor_stats.json`` under pytest's base temp directory — never into
the checkout; the CI ``cluster-chaos`` job passes ``--basetemp`` and
uploads the artifact from there.
"""

from __future__ import annotations

import json
import os
import platform
import threading

import numpy as np
import pytest

from conftest import wait_until
from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.runtime.node import NodeProcess
from repro.serving import (ClientConfig, ClusterConfig, ModelRepository,
                           RetryPolicy, ServingConfig, ShardingConfig,
                           Supervisor, SupervisorConfig, serve,
                           sharding_supported)
from repro.serving.sharding import ShardPool

needs_shm = pytest.mark.skipif(
    not sharding_supported("shm"),
    reason="platform lacks multiprocessing.shared_memory")


def _arch(name: str, k: int, width: int) -> Architecture:
    return Architecture(ops=(
        OpSpec(OpType.SAMPLE, "knn", k=k),
        OpSpec(OpType.AGGREGATE, "max"),
        OpSpec(OpType.COMMUNICATE, "uplink"),
        OpSpec(OpType.COMBINE, width),
        OpSpec(OpType.GLOBAL_POOL, "max||mean"),
    ), name=name)


ZOO_V1 = ArchitectureZoo([ZooEntry("m", _arch("m", k=4, width=16),
                                   0.9, 40.0, 0.4)])
ZOO_V2 = ArchitectureZoo([ZooEntry("m", _arch("m", k=8, width=32),
                                   0.93, 55.0, 0.5)])


def _frames(count: int = 2):
    graphs = SyntheticModelNet40(num_points=24, samples_per_class=2,
                                 num_classes=3, seed=1).generate()
    return [Batch.from_graphs([graphs[i % len(graphs)]]) for i in range(count)]


def _reference_logits(zoo: ArchitectureZoo, name: str, frames) -> list:
    model = ArchitectureModel(zoo.get(name).architecture, in_dim=3,
                              num_classes=3, seed=0)
    return [model(frame).data for frame in frames]


def _supervisor(**kwargs) -> SupervisorConfig:
    """Fast knobs: tight polling and a small backoff so tests heal in ms."""
    defaults = dict(enabled=True, poll_interval_s=0.02,
                    backoff_initial_s=0.05, backoff_multiplier=2.0,
                    backoff_max_s=0.2, backoff_jitter=0.0,
                    quarantine_deaths=4, quarantine_window_s=30.0,
                    respawn_timeout_s=60.0)
    defaults.update(kwargs)
    return SupervisorConfig(**defaults)


#: Client resilience for the chaos streams: enough budget that a frame
#: caught mid-crash always outlives the respawn window.
RETRIES = ClientConfig(retry=RetryPolicy(max_retries=8, backoff_ms=25.0,
                                         max_backoff_ms=200.0))

@pytest.fixture
def supervisor_artifact(tmp_path_factory):
    """Recorder merging one tier's supervisor counters into the CI artifact."""
    path = tmp_path_factory.getbasetemp() / "supervisor_stats.json"

    def record(tier: str, stats: dict) -> None:
        payload = json.loads(path.read_text("utf-8")) if path.exists() else {}
        payload[tier] = stats
        payload["hardware"] = {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    return record


class _Traffic:
    """A live client stream with retries; collects rounds and failures."""

    def __init__(self, app, frames) -> None:
        self.app = app
        self.frames = frames
        self.stop_event = threading.Event()
        self.rounds: list = []
        self.errors: list = []
        self.frames_retried = 0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            with self.app.client(model="m", config=RETRIES) as client:
                while not self.stop_event.is_set():
                    results, stats = client.run(self.frames)
                    self.frames_retried += stats.frames_retried
                    self.rounds.append(results)
        except Exception as exc:  # pragma: no cover - the failure we forbid
            self.errors.append(exc)

    def __enter__(self) -> "_Traffic":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_event.set()
        self._thread.join(timeout=120.0)


def _assert_rounds_match(rounds, expected) -> None:
    """Every round of every stream: complete and <= 1e-9 to the reference."""
    assert rounds, "traffic thread completed no rounds"
    for results in rounds:
        assert len(results) == len(expected)
        for result, reference in zip(results, expected):
            np.testing.assert_allclose(result.arrays["logits"], reference,
                                       atol=1e-9)


def _ring_names(shard) -> list:
    """The two shared-memory segment names behind one shard's channel."""
    channel = shard.channel
    return [channel._send._shm.name, channel._recv._shm.name]


def _shm_exists(name: str) -> bool:
    from multiprocessing import shared_memory
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


# ----------------------------------------------------------------------
# SupervisorConfig unit behavior
# ----------------------------------------------------------------------
class TestSupervisorConfig:
    def test_defaults_disabled(self):
        config = SupervisorConfig()
        assert not config.enabled  # seed behavior: route around, no respawn

    def test_validation(self):
        with pytest.raises(ValueError, match="poll_interval_s"):
            SupervisorConfig(poll_interval_s=0.0)
        with pytest.raises(ValueError, match="backoff_multiplier"):
            SupervisorConfig(backoff_multiplier=0.5)
        with pytest.raises(ValueError, match="quarantine_deaths"):
            SupervisorConfig(quarantine_deaths=0)
        with pytest.raises(ValueError, match="backoff_jitter"):
            SupervisorConfig(backoff_jitter=1.5)

    def test_backoff_grows_exponentially_and_caps(self):
        config = SupervisorConfig(backoff_initial_s=0.1,
                                  backoff_multiplier=2.0, backoff_max_s=0.5,
                                  backoff_jitter=0.0)
        delays = [config.backoff_s(deaths) for deaths in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.5]

    def test_backoff_jitter_bounded_and_injectable(self):
        config = SupervisorConfig(backoff_initial_s=1.0, backoff_jitter=0.1)
        assert config.backoff_s(1, rand=lambda: 1.0) == pytest.approx(1.1)
        assert config.backoff_s(1, rand=lambda: 0.0) == pytest.approx(0.9)
        assert config.backoff_s(1, rand=lambda: 0.5) == pytest.approx(1.0)

    def test_round_trips_through_serving_config(self):
        config = ServingConfig(supervisor=SupervisorConfig(
            enabled=True, quarantine_deaths=5, backoff_initial_s=0.25))
        rebuilt = ServingConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.supervisor.enabled
        assert rebuilt.supervisor.quarantine_deaths == 5


# ----------------------------------------------------------------------
# Supervisor._scan driven by hand (no monitor thread, no sleeps)
# ----------------------------------------------------------------------
class _ScriptedPool:
    """The uniform slot surface the supervisor consumes, fully scripted."""

    tier = "scripted"

    def __init__(self, count: int, respawn_works: bool = True) -> None:
        self.alive = [True] * count
        self.respawn_works = respawn_works
        self.quarantined: dict = {}

    @property
    def num_slots(self) -> int:
        return len(self.alive)

    def slot_alive(self, index: int) -> bool:
        return self.alive[index]

    def respawn(self, index: int, timeout=None) -> None:
        if not self.respawn_works:
            raise RuntimeError("scripted respawn failure")
        self.alive[index] = True

    def set_quarantined(self, index: int, reason: str) -> None:
        self.quarantined[index] = reason

    def death_reason(self, index: int) -> str:
        return "scripted death"


class TestSupervisorScan:
    #: A backoff shorter than two clock reads: the scan after the one that
    #: saw the death may respawn at once, with no sleep in the test.
    INSTANT = dict(backoff_initial_s=1e-9, backoff_max_s=1e-9)

    def test_recovery_booked_by_the_scan_that_respawned(self):
        pool = _ScriptedPool(2)
        supervisor = Supervisor(_supervisor(**self.INSTANT), [pool])
        supervisor._scan()
        assert not supervisor.stats()["degraded"]
        pool.alive[1] = False
        supervisor._scan()  # observes the death, starts the backoff
        stats = supervisor.stats()
        assert stats["degraded"]
        assert stats["time_to_full_strength_s"] is None
        supervisor._scan()  # respawns: the outage ends within this scan
        assert pool.alive == [True, True]
        stats = supervisor.stats()
        assert stats["degraded"] is False
        assert stats["time_to_full_strength_s"] > 0.0
        assert stats["restarts_total"] == 1
        assert stats["slots"][1]["tier"] == "scripted"

    def test_failed_respawns_keep_degraded_until_quarantine(self):
        pool = _ScriptedPool(1, respawn_works=False)
        supervisor = Supervisor(
            _supervisor(quarantine_deaths=3, **self.INSTANT), [pool])
        pool.alive[0] = False
        supervisor._scan()  # death 1
        supervisor._scan()  # failed respawn: death 2
        stats = supervisor.stats()
        assert stats["degraded"] and stats["slots"][0]["failed_respawns"] == 1
        assert not pool.quarantined
        supervisor._scan()  # failed respawn: death 3 -> quarantine
        assert "crash loop" in pool.quarantined[0]
        assert "scripted death" in pool.quarantined[0]
        supervisor._scan()  # nothing left to fight for: outage closed
        stats = supervisor.stats()
        assert stats["quarantined_total"] == 1 and not stats["degraded"]


# ----------------------------------------------------------------------
# ShardPool.respawn hygiene (pool-level, no supervisor thread)
# ----------------------------------------------------------------------
@needs_shm
class TestShardRespawnHygiene:
    def test_respawn_unlinks_dead_rings_across_cycles(self):
        """No shm leak over restart cycles; replacements re-pin the snapshot."""
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        # The segment names under test exist on the shm transport only.
        pool = ShardPool(repo, ShardingConfig(num_shards=2,
                                              transport="shm")).start()
        try:
            for cycle in range(3):
                victim = pool._links[0]
                names = _ring_names(victim)
                assert all(_shm_exists(name) for name in names)
                victim.process.kill()
                wait_until(lambda: not victim.alive,
                           message="victim shard marked dead")
                pool.respawn(0)
                assert all(not _shm_exists(name) for name in names), (
                    f"cycle {cycle}: dead shard's rings still linked — "
                    "respawn leaks shared memory")
                assert pool.restarts(0) == cycle + 1
                assert pool.live_count() == 2
                # The replacement bootstrapped from the current snapshot.
                assert pool.stats()[0].snapshot_version == repo.version
        finally:
            pool.stop()

    def test_respawn_refuses_live_and_quarantined_slots(self):
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        pool = ShardPool(repo, ShardingConfig(num_shards=2)).start()
        try:
            with pytest.raises(RuntimeError, match="alive"):
                pool.respawn(0)
            victim = pool._links[1]
            victim.process.kill()
            wait_until(lambda: not victim.alive,
                       message="victim shard marked dead")
            pool.set_quarantined(1, "crash loop: test")
            with pytest.raises(RuntimeError, match="quarantined"):
                pool.respawn(1)
        finally:
            pool.stop()

    def test_stop_during_inflight_respawn_is_clean(self):
        """stop() racing respawn(): both orders settle with nothing leaked."""
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        # The segment names under test exist on the shm transport only.
        pool = ShardPool(repo, ShardingConfig(num_shards=2,
                                              transport="shm")).start()
        initial_names = [name for shard in pool._links
                         for name in _ring_names(shard)]
        victim = pool._links[0]
        victim.process.kill()
        wait_until(lambda: not victim.alive,
                   message="victim shard marked dead")
        outcome = []

        def respawn():
            try:
                pool.respawn(0)
                outcome.append("respawned")
            except RuntimeError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=respawn)
        thread.start()
        pool.stop()
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "respawn hung across stop()"
        assert len(outcome) == 1
        if isinstance(outcome[0], RuntimeError):
            # Lost the race: the abort must name the stop, not crash oddly.
            assert "stopped" in str(outcome[0])
        # Either way the pool is fully torn down: every ring (the corpse's,
        # the survivor's, and a swapped-in replacement's) is unlinked.
        final_names = [name for shard in pool._links
                       for name in _ring_names(shard)]
        for name in set(initial_names + final_names):
            assert not _shm_exists(name), f"segment {name} leaked"


# ----------------------------------------------------------------------
# Shard tier chaos: SIGKILL under live traffic, crash-loop quarantine
# ----------------------------------------------------------------------
@pytest.mark.slow
@needs_shm
class TestShardSelfHealing:
    def test_sigkill_under_traffic_returns_to_full_strength(
            self, supervisor_artifact):
        """Kill 1 of 2 shards mid-stream: zero failures, full recovery."""
        frames = _frames(2)
        expected = _reference_logits(ZOO_V1, "m", frames)
        config = ServingConfig(sharding=ShardingConfig(num_shards=2),
                               supervisor=_supervisor())
        with serve(ZOO_V1, config, in_dim=3, num_classes=3) as app:
            assert app.supervisor is not None and app.supervisor.running
            pool = app.shard_pool
            with _Traffic(app, frames) as traffic:
                wait_until(lambda: len(traffic.rounds) >= 2,
                           message="pre-kill traffic flowing")
                pool._links[0].process.kill()
                wait_until(lambda: pool.restarts(0) == 1, timeout=60.0,
                           message="supervisor respawned the dead shard")
                wait_until(lambda: pool.live_count() == 2,
                           message="pool back to full strength")
                rounds_before = len(traffic.rounds)
                wait_until(lambda: len(traffic.rounds) >= rounds_before + 2,
                           message="post-respawn traffic flowing")
            assert traffic.errors == [], (
                f"client-visible failures during self-heal: {traffic.errors}")
            _assert_rounds_match(traffic.rounds, expected)
            stats = app.stats()
            assert stats.shards[0].restarts == 1
            assert not stats.shards[0].quarantined
            assert stats.shards[0].last_death_reason
            supervisor_stats = app.supervisor.stats()
            assert supervisor_stats["restarts_total"] >= 1
            assert not supervisor_stats["degraded"]
            recovery = supervisor_stats["time_to_full_strength_s"]
            assert recovery is not None and recovery > 0.0
            supervisor_artifact("shard", supervisor_stats)

    def test_crash_loop_quarantined_and_publish_survives(self):
        """K deaths in the window: quarantine, report, keep publishing."""
        frames = _frames(2)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        config = ServingConfig(sharding=ShardingConfig(num_shards=2),
                               supervisor=_supervisor(quarantine_deaths=2))
        with serve(ZOO_V1, config, in_dim=3, num_classes=3,
                   repository=repo) as app:
            pool = app.shard_pool
            pool._links[0].process.kill()
            wait_until(lambda: pool.restarts(0) == 1, timeout=60.0,
                       message="first respawn of the crashing slot")
            pool._links[0].process.kill()
            wait_until(lambda: pool.quarantine_reason(0) is not None,
                       timeout=60.0, message="slot quarantined")
            reason = pool.quarantine_reason(0)
            assert "crash loop" in reason
            # Quarantined means no further respawns: restarts stays put.
            assert pool.restarts(0) == 1
            assert pool.live_count() == 1
            # Publishes succeed against the surviving slot.
            repo.publish(ZOO_V2)
            assert pool.stats()[1].snapshot_version == repo.version
            expected = _reference_logits(ZOO_V2, "m", frames)
            with app.client(model="m", config=RETRIES) as client:
                results, _ = client.run(frames)
            for result, reference in zip(results, expected):
                np.testing.assert_allclose(result.arrays["logits"],
                                           reference, atol=1e-9)
            stats = app.stats()
            assert stats.shards[0].quarantined
            assert stats.shards[0].last_death_reason
            supervisor_stats = app.supervisor.stats()
            assert supervisor_stats["quarantined_total"] == 1
            assert supervisor_stats["slots"][0]["quarantined"] == reason


# ----------------------------------------------------------------------
# Cluster tier chaos: SIGKILL an app-owned node replica
# ----------------------------------------------------------------------
@pytest.mark.cluster
class TestNodeSelfHealing:
    def test_sigkill_node_under_traffic_self_heals(self, supervisor_artifact):
        """Kill 1 of 2 owned replicas mid-stream: restart, rejoin, no loss."""
        frames = _frames(2)
        expected = _reference_logits(ZOO_V1, "m", frames)
        with NodeProcess(0) as first, NodeProcess(1) as second:
            config = ServingConfig(
                cluster=ClusterConfig(nodes=(first.address, second.address),
                                      heartbeat_ms=50.0, heartbeat_misses=2),
                supervisor=_supervisor())
            with serve(ZOO_V1, config, in_dim=3, num_classes=3,
                       node_processes=[first, second]) as app:
                pool = app.cluster_pool
                with _Traffic(app, frames) as traffic:
                    wait_until(lambda: len(traffic.rounds) >= 2,
                               message="pre-kill traffic flowing")
                    first.kill()
                    wait_until(lambda: pool.restarts(0) == 1, timeout=60.0,
                               message="supervisor respawned the node")
                    wait_until(lambda: pool.live_count() == 2,
                               message="fleet back to full strength")
                    rounds_before = len(traffic.rounds)
                    wait_until(
                        lambda: len(traffic.rounds) >= rounds_before + 2,
                        message="post-respawn traffic flowing")
                assert traffic.errors == [], (
                    f"client-visible failures during node self-heal: "
                    f"{traffic.errors}")
                _assert_rounds_match(traffic.rounds, expected)
                # The supervisor restarted the app-owned process in place,
                # rebinding the same configured address.
                assert first.alive()
                stats = app.stats()
                assert stats.nodes[0].restarts == 1
                assert not stats.nodes[0].quarantined
                supervisor_stats = app.supervisor.stats()
                assert supervisor_stats["restarts_total"] >= 1
                recovery = supervisor_stats["time_to_full_strength_s"]
                assert recovery is not None and recovery > 0.0
                supervisor_artifact("node", supervisor_stats)

    def test_node_crash_loop_quarantined(self):
        frames = _frames(2)
        repo = ModelRepository(in_dim=3, num_classes=3, zoo=ZOO_V1)
        with NodeProcess(0) as first, NodeProcess(1) as second:
            config = ServingConfig(
                cluster=ClusterConfig(nodes=(first.address, second.address),
                                      heartbeat_ms=50.0, heartbeat_misses=2),
                supervisor=_supervisor(quarantine_deaths=2))
            with serve(ZOO_V1, config, in_dim=3, num_classes=3,
                       repository=repo,
                       node_processes=[first, second]) as app:
                pool = app.cluster_pool
                first.kill()
                wait_until(lambda: pool.restarts(0) == 1, timeout=60.0,
                           message="first respawn of the crashing node")
                first.kill()
                wait_until(lambda: pool.quarantine_reason(0) is not None,
                           timeout=60.0, message="node slot quarantined")
                assert "crash loop" in pool.quarantine_reason(0)
                assert pool.restarts(0) == 1
                # Publishes succeed against the surviving replica.
                repo.publish(ZOO_V2)
                assert pool.stats()[1].snapshot_version == repo.version
                expected = _reference_logits(ZOO_V2, "m", frames)
                with app.client(model="m", config=RETRIES) as client:
                    results, _ = client.run(frames)
                for result, reference in zip(results, expected):
                    np.testing.assert_allclose(result.arrays["logits"],
                                               reference, atol=1e-9)
                stats = app.stats()
                assert stats.nodes[0].quarantined
                assert stats.nodes[0].last_death_reason
                assert app.supervisor.stats()["quarantined_total"] == 1
