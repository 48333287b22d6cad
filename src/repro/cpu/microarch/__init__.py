"""Models of the four published microarch optimizations studied in Fig. 1.

Each module implements the optimization and its published baseline:

* :mod:`prefetch` — Pythia-like RL data prefetcher vs no prefetcher.
* :mod:`branch` — perceptron predictor vs gshare.
* :mod:`iprefetch` — I-SPY-like context instruction prefetcher vs none.
* :mod:`replacement` — Ripple-like profile-guided I-cache replacement vs LRU.
* :mod:`evaluate` — measurement harness turning miss/misprediction-rate
  deltas into speedups via the core CPI model.
"""

from repro.cpu.microarch.branch import GSharePredictor, PerceptronPredictor
from repro.cpu.microarch.iprefetch import ISpyPrefetcher
from repro.cpu.microarch.prefetch import PythiaPrefetcher, StridePrefetcher
from repro.cpu.microarch.replacement import RipplePolicy

__all__ = [
    "StridePrefetcher",
    "PythiaPrefetcher",
    "GSharePredictor",
    "PerceptronPredictor",
    "ISpyPrefetcher",
    "RipplePolicy",
]
