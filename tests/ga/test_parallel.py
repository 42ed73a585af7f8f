"""Tests for the batch evaluators."""

from repro.ga.parallel import BatchEvaluator, SerialEvaluator


def square_sum(genome):
    return float(sum(g * g for g in genome))


class _BatchCapable:
    """Fitness callable with the evaluate_batch hook."""

    def __init__(self):
        self.batch_calls = 0

    def __call__(self, genome):
        return square_sum(genome)

    def evaluate_batch(self, genomes):
        self.batch_calls += 1
        return [square_sum(g) for g in genomes]


class TestSerialEvaluator:
    def test_order_preserved(self):
        evaluator = SerialEvaluator()
        genomes = [(1,), (2,), (3,)]
        assert evaluator.map(square_sum, genomes) == [1.0, 4.0, 9.0]

    def test_empty_batch(self):
        assert SerialEvaluator().map(square_sum, []) == []

    def test_close_is_noop(self):
        SerialEvaluator().close()


class TestBatchEvaluator:
    def test_forwards_whole_batch_to_hook(self):
        function = _BatchCapable()
        genomes = [(1,), (2,), (3,)]
        assert BatchEvaluator().map(function, genomes) == [1.0, 4.0, 9.0]
        assert function.batch_calls == 1

    def test_degrades_to_serial_without_hook(self):
        genomes = [(1,), (2,), (3,)]
        assert BatchEvaluator().map(square_sum, genomes) == [1.0, 4.0, 9.0]

    def test_empty_batch(self):
        assert BatchEvaluator().map(_BatchCapable(), []) == []
        assert BatchEvaluator().map(square_sum, []) == []

    def test_close_is_noop(self):
        BatchEvaluator().close()
