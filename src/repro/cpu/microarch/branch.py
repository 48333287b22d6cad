"""Branch predictors: gshare baseline and a perceptron predictor.

Models the Figure 1 "Branch Predictor" study: Jimenez & Lin's perceptron
predictor [HPCA'01] against a simple gshare.  Perceptrons can learn long
linearly-separable history correlations that saturating-counter tables
cannot, which is exactly what distinguishes monolithic branch behaviour
from the short, biased branches of microservice handlers.
"""

from __future__ import annotations

from operator import add, mul, sub

from repro.cpu.traces import as_records


class GSharePredictor:
    """Global-history XOR PC indexed table of 2-bit saturating counters."""

    def __init__(self, table_bits: int = 12, history_len: int = 8):
        self.table_bits = table_bits
        self.history_len = history_len
        self._table = [2] * (1 << table_bits)  # weakly taken
        self._index_mask = (1 << table_bits) - 1
        self._history = 0
        self._hist_mask = (1 << history_len) - 1

    def predict(self, pc: int) -> bool:
        return self._table[(pc ^ self._history) & self._index_mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        table = self._table
        idx = (pc ^ self._history) & self._index_mask
        if taken:
            if table[idx] < 3:
                table[idx] += 1
        elif table[idx] > 0:
            table[idx] -= 1
        self._history = ((self._history << 1) | int(taken)) & self._hist_mask


class PerceptronPredictor:
    """Per-PC perceptron over the global history register.

    Weights and the +-1 history are lists of Python ints, so the dot
    product is exact.
    """

    def __init__(self, n_perceptrons: int = 512, history_len: int = 24):
        self.history_len = history_len
        self.n = n_perceptrons
        self._bias = [0] * n_perceptrons
        self._w = [[0] * history_len for __ in range(n_perceptrons)]
        self._hist = [1] * history_len                  # most recent first
        self.theta = int(1.93 * history_len + 14)      # training threshold

    def _output(self, pc: int) -> int:
        row = pc % self.n
        return self._bias[row] + sum(map(mul, self._w[row], self._hist))

    def predict(self, pc: int) -> bool:
        return self._output(pc) >= 0

    def update(self, pc: int, taken: bool) -> None:
        y = self._output(pc)
        hist = self._hist
        if (y >= 0) != taken or abs(y) <= self.theta:
            row = pc % self.n
            w = self._w
            if taken:
                self._bias[row] += 1
                w[row] = list(map(add, w[row], hist))
            else:
                self._bias[row] -= 1
                w[row] = list(map(sub, w[row], hist))
        hist.pop()
        hist.insert(0, 1 if taken else -1)


def measure_accuracy(predictor, pcs, taken,
                     warmup_fraction: float = 0.1) -> float:
    """Fraction of branches predicted correctly after a warm-up prefix.

    Published predictor accuracies are steady-state numbers; the first
    ``warmup_fraction`` of the trace trains the predictor but is excluded
    from the score.
    """
    warmup = int(len(pcs) * warmup_fraction)
    correct = 0
    predict = predictor.predict
    update = predictor.update
    for i, (pc, t) in enumerate(zip(as_records(pcs),
                                    map(bool, as_records(taken)))):
        if predict(pc) == t and i >= warmup:
            correct += 1
        update(pc, t)
    return correct / max(1, len(pcs) - warmup)
