"""How fast the host is right now, measured while the benchmark runs.

The sandbox this benchmark runs in shares its cores and caches with other
machines.  The same tokens take up to 1.7x longer from one minute to the
next (measured on the reference host: incremental decoding of one seed
between 350 and 620 tok/s), so a wall-clock number alone says more about
the neighbours than about the commit.

The remedy is a frozen *reference unit*: a small transformer forward written
here, in plain NumPy, that never changes and shares no code with the
program.  It runs every 0.6 s all through the measured window, and
the ratio of its recent mean time to ``NOMINAL_UNIT_MS`` is the host's
*speed factor* of the moment (above 1: a slow host).  The load generators'
clock divides every host second by the factor, so it reads *reference
seconds*: what a host of nominal speed would have shown.  Every time and
rate the benchmark reports is in reference seconds.  The unit costs about
6% of the window; the clock stops while it runs, so no request is charged
for it.

The unit mixes one 64-row forward (compute-bound, like tree verification)
with sixteen one-row forwards (which stream all the weights for one row,
like incremental decoding), because the two slow down by different amounts
under contention: on recorded five-minute traces a one-row forward lost
twice the speed a 64-row one did.  Over ten seeds of 20 s the unit takes the
spread of tok/s from 19% to 6% (offline_greedy) and from 27% to about 10%
(offline_incr, which contention hits hardest).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, List, Optional

import numpy as np

#: The unit's time on the reference host in its usual state, in ms.  Only a
#: scale: it makes reference seconds read like seconds.
NOMINAL_UNIT_MS = 34.0
#: Seconds between units inside a measured window.
UNIT_EVERY_S = 0.6
#: Units run back to back for a stand-alone reading (before a window).
STANDALONE_UNITS = 12

_D, _HEADS, _LAYERS, _KEYS = 128, 4, 4, 96


def _weights() -> List[dict]:
    rng = np.random.default_rng(20240427)
    d, dh = _D, _D // _HEADS
    return [
        {
            "qkv": rng.standard_normal((d, 3 * d)) * 0.05,
            "out": rng.standard_normal((d, d)) * 0.05,
            "up": rng.standard_normal((d, 4 * d)) * 0.05,
            "down": rng.standard_normal((4 * d, d)) * 0.05,
            "keys": rng.standard_normal((_HEADS, _KEYS, dh)),
            "values": rng.standard_normal((_HEADS, _KEYS, dh)),
        }
        for _ in range(_LAYERS)
    ]


_WEIGHTS = _weights()
_ROWS_64 = np.random.default_rng(1).standard_normal((64, _D))
_ROW_1 = _ROWS_64[:1].copy()


def _norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(-1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)


def _forward(x: np.ndarray) -> np.ndarray:
    rows, dh = x.shape[0], _D // _HEADS
    for w in _WEIGHTS:
        q = (_norm(x) @ w["qkv"])[:, :_D]
        q = q.reshape(rows, _HEADS, dh).transpose(1, 0, 2)
        scores = q @ w["keys"].transpose(0, 2, 1) / np.sqrt(dh)
        scores = np.exp(scores - scores.max(-1, keepdims=True))
        attn = (scores / scores.sum(-1, keepdims=True)) @ w["values"]
        x = x + attn.transpose(1, 0, 2).reshape(rows, _D) @ w["out"]
        up = _norm(x) @ w["up"]
        gelu = 0.5 * up * (1 + np.tanh(0.79788456 * (up + 0.044715 * up**3)))
        x = x + gelu @ w["down"]
    return x


def reference_unit() -> float:
    """Run one unit; returns the milliseconds it took."""
    start = time.perf_counter()
    _forward(_ROWS_64)
    for _ in range(16):
        _forward(_ROW_1)
    return (time.perf_counter() - start) * 1e3


def standalone_units(units: int = STANDALONE_UNITS) -> List[float]:
    """``units`` units back to back: a reading of the host right now."""
    return [reference_unit() for _ in range(units)]


def factor_of(unit_ms: List[float]) -> float:
    return float(np.mean(unit_ms) / NOMINAL_UNIT_MS)


class Clock:
    """The load generators' clock.  It reads *reference seconds*: host
    seconds divided by the speed factor of the moment, not counting the time
    spent inside reference units.

    ``tick()`` runs a unit when one is due, stops the clock meanwhile, and
    re-reads the factor from the last ``SMOOTH_UNITS`` units, so a host that
    slows down mid-run slows the clock with it: an open loop then sends its
    requests further apart and the system stays as loaded as on a nominal
    host.  ``span`` (the tracer's, in a traced pass) brackets the unit so
    the trace can tell it from the load generator's own time.
    """

    #: Units the current factor is averaged over (about two seconds).
    SMOOTH_UNITS = 4

    def __init__(self, recent_unit_ms: List[float],
                 span: Optional[Callable] = None,
                 every_s: float = UNIT_EVERY_S):
        self._span = span if span is not None else (lambda name: nullcontext())
        self._every_s = every_s
        #: Units run inside the window, after the ``recent_unit_ms`` read
        #: just before it (which set the factor the clock starts with).
        self.unit_ms: List[float] = []
        self._recent = list(recent_unit_ms)[-self.SMOOTH_UNITS:]
        self._factor = factor_of(self._recent)
        self._elapsed = 0.0          # reference seconds up to ``_mark``
        self._mark = time.perf_counter()
        self._started = self._mark
        self.paused_s = 0.0

    def now(self) -> float:
        return self._elapsed + (time.perf_counter() - self._mark) / self._factor

    def host_seconds(self, reference_seconds: float) -> float:
        """How long to sleep, at the current factor, for the clock to
        advance by ``reference_seconds``."""
        return reference_seconds * self._factor

    def unit_due(self) -> float:
        """Host seconds until the next unit is due (negative: overdue)."""
        return self._mark + self._every_s - time.perf_counter()

    def tick(self) -> None:
        if self.unit_due() > 0:
            return
        start = time.perf_counter()
        self._elapsed += (start - self._mark) / self._factor
        with self._span("host.ref"):
            self.unit_ms.append(reference_unit())
        self._mark = time.perf_counter()
        self.paused_s += self._mark - start
        self._recent = (self._recent + self.unit_ms[-1:])[-self.SMOOTH_UNITS:]
        self._factor = factor_of(self._recent)

    def host_elapsed(self) -> float:
        """Host seconds since the clock was made, units excluded."""
        return time.perf_counter() - self._started - self.paused_s

    def mean_factor(self) -> float:
        """Host seconds per reference second over the clock's life."""
        now = self.now()
        return self.host_elapsed() / now if now > 0 else self._factor
