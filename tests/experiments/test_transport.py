"""Worker reply framing: replies carry their arrays out of band.

Every worker reply goes through ``runner._send_reply`` — a small header
(the protocol-5 pickle plus the buffer sizes) followed by one pipe
message per array buffer — and the pool rebuilds it with
``runner._recv_reply``.  These tests drive both ends over a real
``multiprocessing.Pipe`` and through the pool.
"""

import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import registry, runner
from repro.experiments.base import ExperimentResult

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool path requires the fork start method")


def _sent_in_thread(conn, message) -> threading.Thread:
    """Send ``message`` from a thread: a reply larger than the pipe's
    buffer only completes while the other end reads."""
    thread = threading.Thread(target=runner._send_reply,
                              args=(conn, message))
    thread.start()
    return thread


def _round_trip(message):
    receiver, sender = multiprocessing.Pipe()
    with receiver, sender:
        thread = _sent_in_thread(sender, message)
        received = runner._recv_reply(receiver)
        thread.join()
    return received


ARRAYS = {
    "empty": np.zeros(0),
    "empty-2d": np.zeros((0, 3), dtype=np.int8),
    "strided": np.arange(40, dtype=np.float64).reshape(5, 8)[:, ::3],
    "fortran": np.asfortranarray(
        np.arange(24, dtype=np.int16).reshape(4, 6)),
    "c-order": np.linspace(0.0, 1.0, 100_000),
}


class TestRoundTrip:
    def test_arrays_keep_values_dtype_shape_order_and_writeable(self):
        kind, elapsed, payload = _round_trip(("ok", 1.5, dict(ARRAYS)))
        assert (kind, elapsed) == ("ok", 1.5)
        assert list(payload) == list(ARRAYS)
        for name, sent in ARRAYS.items():
            got = payload[name]
            assert got.dtype == sent.dtype, name
            assert got.shape == sent.shape, name
            assert np.array_equal(got, sent), name
            assert got.flags.writeable, name
        fortran = payload["fortran"]
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        payload["c-order"][0] = -1.0  # the rebuilt array owns its memory
        assert ARRAYS["c-order"][0] == 0.0

    def test_arrays_travel_out_of_band(self):
        big = np.ones(1 << 20)  # 8 MiB of float64
        receiver, sender = multiprocessing.Pipe()
        with receiver, sender:
            thread = _sent_in_thread(sender, ("ok", 0.0, {"flat": big}))
            header = receiver.recv_bytes()
            head, sizes = pickle.loads(header)
            bodies = [receiver.recv_bytes() for __ in sizes]
            thread.join()
        assert len(header) < 4096
        assert sizes == [big.nbytes]
        assert [len(body) for body in bodies] == sizes
        __, __, payload = pickle.loads(head, buffers=bodies)
        assert np.array_equal(payload["flat"], big)

    def test_unpicklable_message_sends_nothing(self):
        receiver, sender = multiprocessing.Pipe()
        with receiver, sender:
            with pytest.raises(TypeError, match="pickle"):
                runner._send_reply(sender, ("ok", 0.0, threading.Lock()))
            assert not receiver.poll(0.05)

    def test_pipe_ending_mid_frame_raises(self):
        receiver, sender = multiprocessing.Pipe()
        with receiver:
            sender.send((pickle.dumps(None, protocol=5), [16]))
            sender.close()
            with pytest.raises((EOFError, OSError)):
                runner._recv_reply(receiver)


# Pool experiments live at module level so forked workers inherit them
# through the monkeypatched registry.
def _raises(scale: float) -> ExperimentResult:
    raise RuntimeError("injected transport failure")


_REAL_SEND = runner._send_reply


def _header_then_exit(conn, message) -> None:
    """Send a reply's header, then die before its buffers (first
    attempt only: the marker file remembers across forks)."""
    marker = os.environ["HBMSIM_TEST_MARKER"]
    if os.path.exists(marker):
        return _REAL_SEND(conn, message)
    with open(marker, "w"):
        pass
    buffers = []
    head = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    assert buffers, "the reply must carry arrays to cut mid-frame"
    conn.send((head, [buffer.raw().nbytes for buffer in buffers]))
    os._exit(7)


@needs_fork
class TestPoolReplies:
    def test_error_reply_arrives_as_experiment_error(self, monkeypatch):
        monkeypatch.setitem(registry.EXPERIMENTS, "transport-bad", _raises)
        with pytest.raises(ExperimentError) as info:
            runner.run_resilient(["transport-bad"], timeout=30.0)
        error = info.value
        assert error.cause_type == "RuntimeError"
        assert error.cause_message == "injected transport failure"
        assert "injected transport failure" in error.cause_traceback

    @pytest.fixture()
    def cut_reply(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HBMSIM_TEST_MARKER", str(tmp_path / "marker"))
        monkeypatch.setattr(runner, "_send_reply", _header_then_exit)

    def test_sender_dying_after_header_is_a_crash(self, cut_reply):
        record, = runner.run_resilient(["fig05"], scale=0.02, shard="0/2",
                                       timeout=60.0, keep_going=True,
                                       retry_delay=0.0)
        assert record.status == "failed"
        assert record.error.startswith("worker crashed (exit code 7)")

    def test_sender_dying_after_header_is_retried(self, cut_reply):
        record, = runner.run_resilient(["fig05"], scale=0.02, shard="0/2",
                                       timeout=60.0, retries=1,
                                       retry_delay=0.0)
        assert (record.status, record.attempts) == ("retried", 2)
        expected = registry.run_experiment("fig05", 0.02, shard="0/2")
        assert record.result.text == expected.text
        flats = record.result.data["flats"]
        for label, by_pattern in expected.data["flats"].items():
            for name, column in by_pattern.items():
                assert np.array_equal(flats[label][name], column)
