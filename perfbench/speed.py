"""Host speed, read by references that never call the program.

On a shared host the same code runs at different speeds, up to about 2x
apart, and each speed lasts from seconds to minutes. A run's wall times
then say as much about the host as about the program. So every time
metric is reported at a fixed reference speed, measured beside it:

- The run process takes readings of a fixed kernel (`SpeedClock`)
  before, between and after the steps of each pass, never inside a
  timed step. Its times are reported as
  `measured * (REFERENCE_MS / median reading) ** ELASTICITY`. The
  kernel mixes the kinds of work the measured path does: `json.loads`
  of trace lines with a check of each field, `json.dumps` of records,
  and small matrix products like the model's.
- Set-up is mostly starting an interpreter and importing, which the
  kernel tracks poorly. Each set-up process is paired with a reference
  process that starts and imports what set-up imports besides the
  program (`REFERENCE_SPAWN_CODE`); `setup_s` is
  `REFERENCE_SPAWN_S * median(set-up time / reference time)`.

Neither reference runs program code, so a change to the program moves
the reported times by what it saves or costs.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# About the kernel's median time and the reference process's time on the
# host the benchmark was written on (2 vCPU, Python 3.11, numpy 2.4 with
# single-threaded OpenBLAS), so that reported times read like measured
# ones there. Any fixed values would do: they only set the scale.
REFERENCE_MS = 8.0
# How far the program's times follow the kernel's. Over 39 runs of both
# workloads the log of each pass and decision metric moved 0.64 to 1.0
# times the log of the run's median reading (0.74 for events_per_s): the
# kernel is small and compute-bound, and the host's speed changes it more
# than it changes the program, which also waits on memory and system calls.
ELASTICITY = 0.75
REFERENCE_SPAWN_S = 0.16
REFERENCE_SPAWN_CODE = "import json, time, urllib.request, numpy; print(time.monotonic())"
CALLS_PER_READING = 5

_LINES = [
    json.dumps(
        {"t": round(0.37 * i, 6), "c": f"web-{i % 4}", "sc": ("read", "openat", "write", "futex")[i % 4],
         "pid": 10 + i % 7, "ret": (i * 37) % 4096 - 2, "bytes": (i * 53) % 9000},
        separators=(",", ":"),
    )
    for i in range(800)
]
_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((64, 32))
_W = _RNG.standard_normal((32, 32)) / 8.0


def _kernel() -> float:
    rows = []
    for line in _LINES:
        raw = json.loads(line)
        if not (isinstance(raw["t"], float) and isinstance(raw["pid"], int) and raw["c"]):
            raise ValueError(line)
        rows.append((float(raw["t"]), raw["c"], raw["sc"], raw["pid"], raw["ret"], raw["bytes"]))
    text = "\n".join(json.dumps({"t": r[0], "c": r[1], "sc": r[2], "n": r[5]}) for r in rows[:400])
    h = _X
    for _ in range(60):
        h = np.tanh(h @ _W)
    return float(h.sum()) + len(text)


class SpeedClock:
    """Speed readings, each the median time of a few kernel calls."""

    def __init__(self):
        self.readings: list[float] = []  # ms per kernel call
        self.spent_s = 0.0
        _kernel()  # warm-up

    def read(self) -> float:
        began = time.perf_counter()
        calls = []
        for _ in range(CALLS_PER_READING):
            t0 = time.perf_counter()
            _kernel()
            calls.append(1e3 * (time.perf_counter() - t0))
        ms = statistics.median(calls)
        self.readings.append(ms)
        self.spent_s += time.perf_counter() - began
        return ms


def factor(median_reading_ms: float) -> float:
    """What a run's times are multiplied by to report them at the reference speed."""
    return (REFERENCE_MS / median_reading_ms) ** ELASTICITY
