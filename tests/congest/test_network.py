"""The synchronous CONGEST round loop: delivery, bandwidth, quiescence."""

import pytest

from repro.congest import (
    BandwidthExceededError,
    CongestNetwork,
    FaultPlan,
    NodeProgram,
    ProtocolViolationError,
    RoundLimitExceededError,
    RoundMetrics,
    run_program,
)
from repro.obs import Sink
from repro.planar.generators import path_graph


class EchoOnce(NodeProgram):
    """Round 1: everyone pings neighbors; afterwards just record."""

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.heard = {}
        self.done = True

    def on_start(self):
        return {u: ("ping", self.node_id) for u in self.neighbors}

    def on_round(self, round_no, inbox):
        self.heard.update(inbox)
        return {}

    def result(self):
        return sorted(self.heard)


class TestDelivery:
    def test_messages_arrive_next_round(self):
        g = path_graph(3)
        results = run_program(g, EchoOnce)
        assert results[0] == [1]
        assert results[1] == [0, 2]

    def test_round_count_emergent(self):
        g = path_graph(4)
        m = RoundMetrics()
        run_program(g, EchoOnce, metrics=m)
        assert m.rounds == 1  # one round of sends
        assert m.messages == 2 * g.num_edges


class TestEnforcement:
    def test_bandwidth_enforced(self):
        class Blaster(EchoOnce):
            def on_start(self):
                return {u: tuple(range(100)) for u in self.neighbors}

        with pytest.raises(BandwidthExceededError):
            run_program(path_graph(2), Blaster, bandwidth_words=8)

    @pytest.mark.parametrize("faults", [None, FaultPlan(seed=1)], ids=["plain", "fault-path"])
    def test_equal_payloads_of_different_types_measure_apart(self, faults):
        """``frozenset({2}) == frozenset({2.0})`` with equal hashes, but at
        4-bit words the first is 1 word and the second 16: a meter keyed
        by payload value would pass the second as 1 word."""

        class IntThenFloat(NodeProgram):
            def __init__(self, node_id, neighbors):
                super().__init__(node_id, neighbors)
                self.done = True

            def on_start(self):
                return {1: frozenset({2})} if self.node_id == 0 else {}

            def on_round(self, round_no, inbox):
                return {0: frozenset({2.0})} if inbox and self.node_id == 1 else {}

        g = path_graph(2)
        assert CongestNetwork(g).word_bits == 4
        with pytest.raises(BandwidthExceededError, match="16 words exceeds bandwidth 8"):
            run_program(g, IntThenFloat, bandwidth_words=8, faults=faults)
        m = RoundMetrics()
        run_program(g, IntThenFloat, bandwidth_words=16, metrics=m, faults=faults)
        assert (m.rounds, m.messages, m.total_words) == (2, 2, 1 + 16)
        assert m.max_words_edge_round == 16

    def test_send_to_non_neighbor_rejected(self):
        class Cheater(EchoOnce):
            def on_start(self):
                return {self.node_id + 2: "hi"} if self.node_id == 0 else {}

        with pytest.raises(ProtocolViolationError):
            run_program(path_graph(3), Cheater)

    def test_round_limit(self):
        class Chatter(NodeProgram):
            def __init__(self, node_id, neighbors):
                super().__init__(node_id, neighbors)
                self.done = True

            def on_start(self):
                return {u: 1 for u in self.neighbors}

            def on_round(self, round_no, inbox):
                return {u: 1 for u in self.neighbors}  # never quiesces

        net = CongestNetwork(path_graph(2))
        programs = {v: Chatter(v, [1 - v]) for v in (0, 1)}
        with pytest.raises(RoundLimitExceededError):
            net.run(programs, max_rounds=10)

    def test_round_limit_diagnosis_is_rich(self):
        """The error must say which phase, where it stopped, what was in
        flight, and give example stuck node IDs."""

        class Chatter(NodeProgram):
            def __init__(self, node_id, neighbors):
                super().__init__(node_id, neighbors)
                self.done = False  # never done

            def on_start(self):
                return {u: 1 for u in self.neighbors}

            def on_round(self, round_no, inbox):
                return {u: 1 for u in self.neighbors}

        g = path_graph(8)
        net = CongestNetwork(g)
        programs = {v: Chatter(v, g.neighbors(v)) for v in g.nodes()}
        with pytest.raises(RoundLimitExceededError) as exc:
            net.run(programs, max_rounds=5, phase="flood")
        msg = str(exc.value)
        assert "phase=flood" in msg
        assert "within 5 rounds" in msg
        assert "stopped at round 6" in msg
        assert "14 messages in flight" in msg  # 2 per edge, 7 edges
        assert "8/8 programs not done" in msg
        assert "e.g. 0, 1, 2, 3, 4, ..." in msg  # 5 examples then ellipsis

    def test_programs_must_cover_nodes(self):
        net = CongestNetwork(path_graph(3))
        with pytest.raises(ProtocolViolationError):
            net.run({0: EchoOnce(0, [1])})


class TestQuiescence:
    def test_terminates_when_all_done_and_silent(self):
        class Silent(NodeProgram):
            def __init__(self, node_id, neighbors):
                super().__init__(node_id, neighbors)
                self.done = True

            def on_round(self, round_no, inbox):
                return {}

        m = RoundMetrics()
        run_program(path_graph(5), Silent, metrics=m)
        assert m.rounds == 0

    def test_not_done_blocks_termination(self):
        class CountDown(NodeProgram):
            def __init__(self, node_id, neighbors):
                super().__init__(node_id, neighbors)
                self.ticks = 0

            def on_round(self, round_no, inbox):
                self.ticks += 1
                if self.ticks >= 3:
                    self.done = True
                return {}

            def result(self):
                return self.ticks

        results = run_program(path_graph(2), CountDown)
        assert all(t >= 3 for t in results.values())


class TestObserverHook:
    def test_observer_sees_every_accounted_round(self):
        rounds_seen = []

        class Spy(Sink):
            def on_round(self, round_no, messages, words, max_edge_words):
                rounds_seen.append((round_no, messages, words, max_edge_words))

            def on_charge(self, charge):
                pass

        m = RoundMetrics(observer=Spy())
        run_program(path_graph(3), EchoOnce, metrics=m, phase="echo")
        assert len(rounds_seen) == m.rounds == 1
        _, messages, words, _ = rounds_seen[0]
        assert messages == m.messages
        assert words == m.total_words

    def test_no_observer_means_none_on_network(self):
        net = CongestNetwork(path_graph(2), metrics=RoundMetrics())
        assert net.observer is None
