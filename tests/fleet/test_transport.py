"""Envelope ordering and the deadline-bounded pipe endpoint."""

import multiprocessing as mp
import pickle

import pytest

from repro.fleet import (
    AdvanceCmd,
    BarrierTimeout,
    Envelope,
    Hello,
    PipeEndpoint,
    RoundAck,
    WorkerFailed,
    WorkerGone,
    sort_envelopes,
)


def env(src=0, dst=1, sent=0.5, deliver=1.5, seq=0, payload="x"):
    return Envelope(src=src, dst=dst, sent_s=sent, deliver_s=deliver,
                    seq=seq, payload=payload)


class TestEnvelopeOrdering:
    def test_sorts_by_due_time_first(self):
        late, early = env(deliver=3.0), env(deliver=2.0)
        assert sort_envelopes([late, early]) == [early, late]

    def test_ties_break_by_dst_then_src_then_seq(self):
        batch = [
            env(dst=2, src=1, seq=0),
            env(dst=1, src=2, seq=0),
            env(dst=1, src=1, seq=1),
            env(dst=1, src=1, seq=0),
        ]
        ordered = sort_envelopes(batch)
        assert [(e.dst, e.src, e.seq) for e in ordered] == [
            (1, 1, 0), (1, 1, 1), (1, 2, 0), (2, 1, 0),
        ]

    def test_order_is_input_permutation_invariant(self):
        import itertools

        batch = [env(dst=d, seq=s, deliver=1.0 + d) for d in (2, 0, 1)
                 for s in (1, 0)]
        reference = sort_envelopes(batch)
        for perm in itertools.permutations(batch):
            assert sort_envelopes(list(perm)) == reference


class TestProtocolMessages:
    @pytest.mark.parametrize("message", [
        Hello(partition=1, vehicles=(1, 3), pid=1234),
        WorkerFailed(partition=0, error="boom"),
        AdvanceCmd(round_index=3, barrier_s=4.0, inbound=(env(),)),
        RoundAck(round_index=3, barrier_s=4.0, outbound=(env(),),
                 partition_hash="abc", advance_wall_s=0.5),
    ])
    def test_picklable(self, message):
        assert pickle.loads(pickle.dumps(message)) == message


class TestPipeEndpoint:
    def test_roundtrip(self):
        a, b = mp.Pipe(duplex=True)
        left, right = PipeEndpoint(a), PipeEndpoint(b)
        left.send(Hello(partition=0, vehicles=(0, 2), pid=1))
        assert right.recv(deadline_s=5.0) == Hello(0, (0, 2), 1)

    def test_deadline_raises_barrier_timeout(self):
        a, _b = mp.Pipe(duplex=True)
        with pytest.raises(BarrierTimeout):
            PipeEndpoint(a).recv(deadline_s=0.05)

    def test_closed_peer_raises_worker_gone(self):
        a, b = mp.Pipe(duplex=True)
        b.close()
        with pytest.raises(WorkerGone):
            PipeEndpoint(a).recv(deadline_s=1.0)

    def test_buffered_message_survives_peer_close(self):
        a, b = mp.Pipe(duplex=True)
        PipeEndpoint(b).send("last words")
        b.close()
        assert PipeEndpoint(a).recv(deadline_s=1.0) == "last words"

    def test_close_is_idempotent(self):
        a, _b = mp.Pipe(duplex=True)
        endpoint = PipeEndpoint(a)
        endpoint.close()
        endpoint.close()
