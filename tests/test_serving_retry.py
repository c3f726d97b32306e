"""Retry/backoff resilience policy of the device client.

These tests pin the :class:`repro.serving.RetryPolicy` semantics against a
*scripted* wire-protocol server, so every rejection/error/acceptance is
deterministic — no real scheduler or worker crash is needed to exercise
the client-side state machine:

* a rejected frame is re-submitted after at least the server's
  ``retry_after_ms`` hint (the hint is a floor under the policy backoff);
* an exhausted retry budget surfaces the *original typed*
  :class:`RequestRejectedError`, not a retry-specific wrapper;
* retries never outlive the frame's ``deadline_ms`` freshness budget;
* ``on_rejected="drop"`` bypasses retries entirely;
* ``"error"`` replies are re-submitted only when the server marked them
  ``retryable`` (worker crashes — execution is pure, so re-running a
  frame that never produced a result is safe; deterministic model
  failures must not be retried).

The re-execution-safety argument pinned here is documented on
``DeviceClient`` (Resilience section) and ``RetryPolicy``.
"""

import socket
import threading
from collections import deque
from time import monotonic

import numpy as np
import pytest

from repro.serving import ClientConfig, RequestRejectedError, RetryPolicy
from repro.system.engine import DeviceClient
from repro.system.messages import (KIND_ERROR, KIND_FRAME, KIND_HELLO,
                                   KIND_REJECTED, KIND_RESULT, KIND_STOP,
                                   REJECT_REASON_META_KEY,
                                   RETRY_AFTER_MS_META_KEY, Message,
                                   recv_message, send_message)

FRAME = object()


def device_fn(_frame):
    return {"x": np.arange(4.0)}, {}


class ScriptedServer:
    """A wire-speaking edge server whose reply per arrival is scripted.

    ``script`` maps a frame_id to a deque of actions consumed one per
    arrival of that frame: ``("reject", reason, retry_after_ms)``,
    ``("error", retryable)``, or ``"result"``; an exhausted (or absent)
    script echoes the frame's arrays back as a result.  Every arrival is
    logged with a monotonic timestamp for backoff assertions.
    """

    def __init__(self, script=None):
        self.script = {fid: deque(actions)
                       for fid, actions in (script or {}).items()}
        self.arrivals = []  # [(monotonic, frame_id)]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _reply(self, message):
        action = "result"
        if self.script.get(message.frame_id):
            action = self.script[message.frame_id].popleft()
        if action == "result":
            return Message(kind=KIND_RESULT, frame_id=message.frame_id,
                           arrays=dict(message.arrays), meta={},
                           wire_format=message.wire_format)
        if action[0] == "reject":
            _, reason, retry_after_ms = action
            return Message(kind=KIND_REJECTED, frame_id=message.frame_id,
                           meta={REJECT_REASON_META_KEY: reason,
                                 RETRY_AFTER_MS_META_KEY: retry_after_ms},
                           wire_format=message.wire_format)
        if action[0] == "error":
            return Message(kind=KIND_ERROR, frame_id=message.frame_id,
                           meta={"error": "ShardCrashedError: boom",
                                 "traceback": "scripted traceback",
                                 "retryable": action[1]},
                           wire_format=message.wire_format)
        raise AssertionError(f"unknown scripted action {action!r}")

    def _serve(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        with conn:
            while True:
                try:
                    message = recv_message(conn)
                except (OSError, ValueError):
                    return
                if message is None or message.kind == KIND_STOP:
                    return
                if message.kind == KIND_HELLO:
                    send_message(conn, Message(kind=KIND_HELLO,
                                               meta={"models": []}))
                    continue
                assert message.kind == KIND_FRAME
                self.arrivals.append((monotonic(), message.frame_id))
                try:
                    send_message(conn, self._reply(message))
                except OSError:
                    return

    def submissions(self, frame_id):
        return [t for t, fid in self.arrivals if fid == frame_id]

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=10.0)


def run_one(server, policy=RetryPolicy(), **knobs):
    client = DeviceClient(server.host, server.port,
                          ClientConfig(retry=policy, **knobs))
    try:
        return client.run_pipeline([FRAME], device_fn, timeout_s=30.0)
    finally:
        client.close()
        server.close()


# ----------------------------------------------------------------------
# policy semantics against the scripted server
# ----------------------------------------------------------------------
class TestRetrySemantics:
    def test_rejected_then_accepted_honors_retry_after(self):
        server = ScriptedServer({0: [("reject", "capacity", 150.0)]})
        policy = RetryPolicy(max_retries=3, backoff_ms=1.0, jitter=0.0)
        results, stats = run_one(server, policy)
        assert len(results) == 1
        np.testing.assert_allclose(results[0].arrays["x"], np.arange(4.0))
        assert stats.frames_retried == 1
        assert stats.retry_histogram == {1: 1}
        assert stats.frames_rejected == 0
        times = server.submissions(0)
        assert len(times) == 2  # original + one re-submission
        # The server's hint is a floor under the policy's (smaller) backoff.
        assert times[1] - times[0] >= 0.150

    def test_budget_exhausted_raises_original_typed_error(self):
        server = ScriptedServer({0: [("reject", "capacity", 1.0)] * 5})
        policy = RetryPolicy(max_retries=2, backoff_ms=1.0, jitter=0.0)
        with pytest.raises(RequestRejectedError) as excinfo:
            run_one(server, policy)
        assert excinfo.value.reason == "capacity"
        assert excinfo.value.frame_id == 0
        # 1 original + exactly max_retries re-submissions, then the error.
        assert len(server.submissions(0)) == 3

    def test_retries_never_outlive_deadline_ms(self):
        server = ScriptedServer({0: [("reject", "capacity", 0.0)] * 5})
        # Minimum backoff (500ms) exceeds the whole freshness budget, so
        # not even one retry may be scheduled.
        policy = RetryPolicy(max_retries=5, backoff_ms=500.0, jitter=0.0)
        start = monotonic()
        with pytest.raises(RequestRejectedError):
            run_one(server, policy, deadline_ms=150.0)
        assert len(server.submissions(0)) == 1
        assert monotonic() - start < 0.5  # failed now, not after the nap

    def test_drop_mode_bypasses_retries(self):
        server = ScriptedServer({0: [("reject", "capacity", 1.0)]})
        policy = RetryPolicy(max_retries=3, backoff_ms=1.0, jitter=0.0)
        results, stats = run_one(server, policy, on_rejected="drop")
        assert results == []
        assert stats.frames_rejected == 1
        assert stats.frames_retried == 0
        assert len(server.submissions(0)) == 1

    def test_retryable_error_is_resubmitted(self):
        server = ScriptedServer({0: [("error", True)]})
        policy = RetryPolicy(max_retries=2, backoff_ms=1.0, jitter=0.0)
        results, stats = run_one(server, policy)
        assert len(results) == 1
        assert stats.frames_retried == 1
        assert len(server.submissions(0)) == 2

    def test_deterministic_error_is_not_retried(self):
        server = ScriptedServer({0: [("error", False)]})
        policy = RetryPolicy(max_retries=3, backoff_ms=1.0, jitter=0.0)
        with pytest.raises(RuntimeError, match="scripted traceback"):
            run_one(server, policy)
        assert len(server.submissions(0)) == 1

    def test_retry_connection_errors_opt_out(self):
        server = ScriptedServer({0: [("error", True)]})
        policy = RetryPolicy(max_retries=3, backoff_ms=1.0, jitter=0.0,
                             retry_connection_errors=False)
        with pytest.raises(RuntimeError, match="boom"):
            run_one(server, policy)
        assert len(server.submissions(0)) == 1

    def test_no_policy_keeps_seed_semantics(self):
        server = ScriptedServer({0: [("reject", "capacity", 7.0)]})
        with pytest.raises(RequestRejectedError) as excinfo:
            run_one(server)
        assert excinfo.value.retry_after_ms == 7.0
        assert len(server.submissions(0)) == 1

    def test_disabled_policy_is_a_no_op(self):
        server = ScriptedServer({0: [("reject", "capacity", 1.0)]})
        with pytest.raises(RequestRejectedError):
            run_one(server, RetryPolicy())  # max_retries=0: disabled
        assert len(server.submissions(0)) == 1


# ----------------------------------------------------------------------
# RetryPolicy config unit behavior
# ----------------------------------------------------------------------
class TestRetryPolicyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_ms=-1.0)

    def test_enabled_flag(self):
        assert not RetryPolicy().enabled
        assert RetryPolicy(max_retries=1).enabled

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_retries=10, backoff_ms=10.0,
                             backoff_multiplier=2.0, max_backoff_ms=50.0,
                             jitter=0.0)
        delays = [policy.delay_ms(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [10.0, 20.0, 40.0, 50.0, 50.0]

    def test_server_hint_is_a_floor(self):
        policy = RetryPolicy(max_retries=3, backoff_ms=10.0, jitter=0.0)
        assert policy.delay_ms(1, floor_ms=250.0) == 250.0
        assert policy.delay_ms(1, floor_ms=5.0) == 10.0

    def test_jitter_is_bounded_and_injectable(self):
        policy = RetryPolicy(max_retries=1, backoff_ms=100.0, jitter=0.1)
        assert policy.delay_ms(1, rand=lambda: 1.0) == pytest.approx(110.0)
        assert policy.delay_ms(1, rand=lambda: 0.0) == pytest.approx(90.0)
        assert policy.delay_ms(1, rand=lambda: 0.5) == pytest.approx(100.0)

    def test_round_trips_through_client_config(self):
        from repro.serving import ClientConfig
        config = ClientConfig(retry={"max_retries": 4, "backoff_ms": 12.5})
        assert isinstance(config.retry, RetryPolicy)
        assert config.retry.max_retries == 4
        again = ClientConfig.from_dict(config.to_dict())
        assert again.retry == config.retry
