"""The exact pipelined communication cost formula."""

import pytest

from repro.congest import stream_rounds


class TestStream:
    def test_single_word(self):
        assert stream_rounds(hops=5, words=1) == 5

    def test_pipelining(self):
        # d + W - 1: the classic pipeline fill + drain.
        assert stream_rounds(hops=5, words=10) == 14

    def test_bandwidth_divides(self):
        assert stream_rounds(hops=5, words=10, bandwidth=2) == 9
        assert stream_rounds(hops=5, words=10, bandwidth=10) == 5

    def test_zero_cases(self):
        assert stream_rounds(0, 10) == 0
        assert stream_rounds(10, 0) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            stream_rounds(-1, 1)
        with pytest.raises(ValueError):
            stream_rounds(1, 1, bandwidth=0)

