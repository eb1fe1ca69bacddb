"""Seeded synthetic trace generators for three behavioral regimes.

All randomness comes from numpy's PCG64 generator seeded with explicit
sequences, so (config, seed) fully determines the byte stream:

    stream [seed, 0]  the always-on web-serving baseline
    stream [seed, k]  overlay for the k-th attack phase / flood bursts

Because overlays never touch the baseline stream, the quiet portions of
an attack trace are event-for-event identical to gen_baseline at the
same seed, which the tests rely on.

Every generator yields one time-ordered, one-pass stream, built a second
at a time: overlays are merged with the baseline by timestamp, equal
timestamps in stream order (baseline first), so memory does not grow
with the trace's duration. At most MAX_PER_SECOND requests, or flood
connections, are planned for one second.

Per-phase syscall mixtures are tables, not code: each phase maps syscall
name -> inclusive per-second count range. Count ranges are calibrated so
a detector trained on the baseline sees per-phase reconstruction errors
escalate by orders of magnitude.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from vaeguard.errors import InvalidConfig
from vaeguard.events import ForensicEvent
from vaeguard.validation import is_count

CPUMINER_PHASES = (
    "normal",
    "shell_connect",
    "shell_commands",
    "package_download",
    "compile",
    "miner_execution",
)

FLOOD_CYCLE_ON_S = 60.0
FLOOD_CYCLE_OFF_S = 240.0
FLOOD_CYCLE_S = FLOOD_CYCLE_ON_S + FLOOD_CYCLE_OFF_S

# Requests (baseline) or connections (flood) planned for one second; each
# request plans about 50 events, all held until the second is emitted.
MAX_PER_SECOND = 10_000

# Untracked names the generators may emit; they count only toward the
# aggregate features, which is exactly what they are here to exercise.
NOISE_SYSCALLS = frozenset(
    {
        "read",
        "write",
        "stat",
        "fstat",
        "epoll_wait",
        "futex",
        "recvfrom",
        "sendto",
        "nanosleep",
        "gettimeofday",
    }
)

# Per-request web-serving cluster. socket/connect/accept4 are one each per
# request so network counts track the request rate exactly; the rest are
# inclusive uniform ranges.
BASELINE_REQUEST_MIX: dict[str, tuple[int, int]] = {
    "openat": (4, 8),
    "close": (12, 18),
    "dup3": (0, 2),
    "dup2": (0, 1),
    "ioctl": (0, 3),
    "read": (6, 12),
    "write": (4, 8),
    "epoll_wait": (2, 4),
    "stat": (2, 5),
    "futex": (1, 4),
    "recvfrom": (1, 3),
    "sendto": (1, 1),
}
BASELINE_EXACT_PER_REQUEST = ("socket", "connect", "accept4")
BASELINE_RESPONSE_BYTES = (600, 2200)
BASELINE_OPEN_ERROR_P = 0.06

# Interval-to-interval jitter on the request count itself; a perfectly
# constant rate would make the network features degenerate under min-max
# scaling and blind the detector to floods.
BASELINE_SKIP_P = 0.05
BASELINE_EXTRA_P = 0.10

HEALTH_CHECK_GAP_S = (20, 40)
LOG_ROTATE_GAP_S = (45, 90)

# Attack-phase overlays: per-second inclusive count ranges, layered on top
# of the running baseline. Each phase has a marker syscall the baseline
# never emits (setsid, setpgid, symlink, vfork, clone) so phase placement
# is observable in the raw trace.
PHASE_MIXES: dict[str, dict[str, tuple[int, int]]] = {
    "shell_connect": {
        "setsid": (1, 2),
        "setuid": (0, 1),
        "execve": (1, 2),
        "fork": (0, 1),
        "dup2": (2, 4),
        "ioctl": (10, 16),
        "openat": (5, 9),
        "close": (6, 10),
        "read": (4, 8),
        "write": (2, 4),
    },
    "shell_commands": {
        "setpgid": (1, 2),
        "fork": (10, 16),
        "execve": (6, 10),
        "dup2": (20, 30),
        "openat": (20, 40),
        "close": (20, 40),
        "unlink": (0, 2),
        "kill": (0, 1),
        "stat": (10, 20),
        "read": (10, 24),
        "write": (6, 12),
    },
    "package_download": {
        "symlink": (1, 2),
        "socket": (2, 4),
        "connect": (2, 4),
        "openat": (7, 13),
        "creat": (3, 8),
        "close": (10, 18),
        "unlink": (1, 2),
        "mkdir": (0, 2),
        "recvfrom": (8, 16),
        "write": (6, 14),
    },
    "compile": {
        "vfork": (8, 16),
        "openat": (1000, 1600),
        "creat": (150, 280),
        "close": (1000, 1600),
        "unlink": (100, 220),
        "fork": (50, 90),
        "execve": (60, 110),
        "chmod": (2, 6),
        "rename": (4, 10),
        "read": (500, 900),
        "write": (300, 600),
        "stat": (200, 400),
    },
    "miner_execution": {
        "clone3": (1, 2),
        "clone": (60, 100),
        "socket": (1, 2),
        "connect": (1, 2),
        "kill": (0, 1),
        "futex": (100, 200),
        "read": (20, 40),
    },
}

# Per-second payload volume injected by a phase, attached to its I/O events.
PHASE_BYTES_PER_S: dict[str, tuple[int, int]] = {
    "package_download": (1_000_000, 2_700_000),
    "compile": (3_300_000, 6_700_000),
    "miner_execution": (5_000, 20_000),
}

PHASE_PID_POOLS: dict[str, tuple[int, int]] = {
    "shell_connect": (9000, 9004),
    "shell_commands": (9010, 9040),
    "package_download": (9050, 9060),
    "compile": (9100, 9400),
    "miner_execution": (9500, 9508),
}

# Each flood connection: socket, connect, accept, accept4, 2x close + recv.
FLOOD_CONNECTION_TRACKED = ("socket", "connect", "accept", "accept4", "close", "close")
FLOOD_RECV_BYTES = (200, 600)

_SERVER_PID = 1
_WORKER_PIDS = (10, 11, 12)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration_s: float
    container_id: str = "web-0"
    base_request_rate: float = 1.0
    phase_schedule: tuple[tuple[float, float, str], ...] = ()
    flood_factor: float = 100.0

    def __post_init__(self):
        if not is_count(self.seed, 0):
            raise InvalidConfig(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("duration_s", "base_request_rate", "flood_factor"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration_s < 0:
            raise InvalidConfig("duration must be >= 0")
        if self.base_request_rate <= 0:
            raise InvalidConfig("base_request_rate must be > 0")
        if self.flood_factor <= 0:
            raise InvalidConfig("flood_factor must be > 0")
        if self.base_request_rate > MAX_PER_SECOND:
            raise InvalidConfig(f"base_request_rate must be <= {MAX_PER_SECOND}")
        if not self.container_id:
            raise InvalidConfig("container_id must be non-empty")
        previous_end = 0.0
        for start, end, label in self.phase_schedule:
            if not (0.0 <= start < end <= self.duration_s):
                raise InvalidConfig(
                    f"phase {label!r} window [{start}, {end}) outside trace"
                )
            if start < previous_end:
                raise InvalidConfig(f"phase {label!r} overlaps its predecessor")
            previous_end = end


def default_cpuminer_schedule(duration_s: float = 900.0) -> tuple:
    """Six contiguous phases aligned to 30 s interval boundaries."""
    if duration_s < 780.0:
        raise InvalidConfig("cpuminer schedule needs at least 780 s")
    return (
        (0.0, 300.0, "normal"),
        (300.0, 360.0, "shell_connect"),
        (360.0, 480.0, "shell_commands"),
        (480.0, 600.0, "package_download"),
        (600.0, 720.0, "compile"),
        (720.0, duration_s, "miner_execution"),
    )


def flood_attack_windows(duration_s: float) -> list[tuple[float, float]]:
    """1 min on / 4 min off cycle, attack at each cycle start."""
    windows = []
    k = 0
    while k * FLOOD_CYCLE_S < duration_s:
        start = k * FLOOD_CYCLE_S
        windows.append((start, min(start + FLOOD_CYCLE_ON_S, duration_s)))
        k += 1
    return windows


def _second_events(
    container_id: str, second: int, plan: list[tuple[str, int, int, int]]
) -> Iterator[ForensicEvent]:
    """plan rows: (syscall, pid, ret, arg_bytes), spread evenly over the
    second in plan order."""
    slots = len(plan) + 2
    for j, (syscall, pid, ret, arg_bytes) in enumerate(plan, 1):
        yield ForensicEvent(second + j / slots, container_id, syscall, pid, ret, arg_bytes)


def gen_baseline(config: ScenarioConfig) -> Iterator[ForensicEvent]:
    """Steady web-serving traffic at the configured request rate."""
    rng = np.random.default_rng([config.seed, 0])
    seconds = int(config.duration_s)
    base_requests = int(config.base_request_rate)
    frac = config.base_request_rate - base_requests
    next_health = rng.uniform(*HEALTH_CHECK_GAP_S)
    next_logrot = rng.uniform(*LOG_ROTATE_GAP_S)
    ephemeral_pid = 100

    for second in range(seconds):
        plan: list[tuple[str, int, int, int]] = []

        requests = base_requests
        roll = rng.uniform()
        if roll < BASELINE_SKIP_P:
            requests = max(0, requests - 1)
        elif roll < BASELINE_SKIP_P + BASELINE_EXTRA_P:
            requests += 1
        if frac > 0 and rng.uniform() < frac:
            requests += 1

        for _ in range(requests):
            pid = int(rng.choice(_WORKER_PIDS))
            for syscall in BASELINE_EXACT_PER_REQUEST:
                plan.append((syscall, pid, 0, 0))
            for syscall, (lo, hi) in BASELINE_REQUEST_MIX.items():
                count = int(rng.integers(lo, hi + 1))
                for i in range(count):
                    ret = 0
                    arg_bytes = 0
                    if syscall == "openat" and i == 0 and rng.uniform() < BASELINE_OPEN_ERROR_P:
                        ret = -2
                    if syscall == "sendto":
                        arg_bytes = int(rng.integers(*BASELINE_RESPONSE_BYTES))
                    plan.append((syscall, pid, ret, arg_bytes))

        # background worker housekeeping
        for _ in range(int(rng.integers(0, 3))):
            plan.append(("futex", _SERVER_PID, 0, 0))
        if rng.uniform() < 0.04:
            plan.append(("clone", _SERVER_PID, 0, 0))

        if second >= next_health:
            pid = ephemeral_pid
            ephemeral_pid += 1
            plan.append(("fork", _SERVER_PID, 0, 0))
            plan.append(("execve", pid, 0, 0))
            for _ in range(int(rng.integers(2, 4))):
                plan.append(("openat", pid, 0, 0))
            plan.append(("read", pid, 0, 512))
            plan.append(("close", pid, 0, 0))
            plan.append(("exit", pid, 0, 0))
            next_health = second + rng.uniform(*HEALTH_CHECK_GAP_S)

        if second >= next_logrot:
            plan.append(("rename", _SERVER_PID, 0, 0))
            plan.append(("creat", _SERVER_PID, 0, 0))
            if rng.uniform() < 0.5:
                plan.append(("chmod", _SERVER_PID, 0, 0))
            if rng.uniform() < 0.5:
                plan.append(("unlink", _SERVER_PID, 0, 0))
            plan.append(("close", _SERVER_PID, 0, 0))
            next_logrot = second + rng.uniform(*LOG_ROTATE_GAP_S)

        yield from _second_events(config.container_id, second, plan)


def _phase_overlay(
    config: ScenarioConfig,
    label: str,
    window: tuple[float, float],
    stream_index: int,
) -> Iterator[ForensicEvent]:
    mix = PHASE_MIXES[label]
    rng = np.random.default_rng([config.seed, stream_index])
    pid_lo, pid_hi = PHASE_PID_POOLS[label]
    byte_range = PHASE_BYTES_PER_S.get(label)

    for second in range(int(window[0]), int(window[1])):
        plan: list[tuple[str, int, int, int]] = []
        payload = int(rng.integers(*byte_range)) if byte_range else 0
        carriers: list[int] = []
        for syscall, (lo, hi) in mix.items():
            count = int(rng.integers(lo, hi + 1))
            for _ in range(count):
                pid = int(rng.integers(pid_lo, pid_hi + 1))
                if syscall in ("recvfrom", "read", "write") and payload:
                    carriers.append(len(plan))
                plan.append((syscall, pid, 0, 0))
        if payload and carriers:
            share = payload // len(carriers)
            remainder = payload - share * len(carriers)
            for j, position in enumerate(carriers):
                syscall, pid, ret, _ = plan[position]
                plan[position] = (
                    syscall,
                    pid,
                    ret,
                    share + (remainder if j == 0 else 0),
                )
        yield from _second_events(config.container_id, second, plan)


def _flood_overlay(config: ScenarioConfig) -> Iterator[ForensicEvent]:
    rng = np.random.default_rng([config.seed, 1])
    connections_per_s = max(1, int(round(config.flood_factor * config.base_request_rate)))
    for window_start, window_end in flood_attack_windows(config.duration_s):
        for second in range(int(window_start), int(window_end)):
            plan: list[tuple[str, int, int, int]] = []
            for _ in range(connections_per_s):
                pid = int(rng.choice(_WORKER_PIDS))
                for syscall in FLOOD_CONNECTION_TRACKED:
                    plan.append((syscall, pid, 0, 0))
                plan.append(
                    ("recvfrom", pid, 0, int(rng.integers(*FLOOD_RECV_BYTES)))
                )
            yield from _second_events(config.container_id, second, plan)


def _merge(*streams: Iterable[ForensicEvent]) -> Iterator[ForensicEvent]:
    """One stream by timestamp; equal timestamps keep stream order."""
    return heapq.merge(*streams, key=attrgetter("timestamp"))


def gen_cpuminer_scenario(config: ScenarioConfig) -> Iterator[ForensicEvent]:
    """Hijack progression: login shell, command storm, download, build, mine.

    config.phase_schedule must name the six phases in canonical order;
    the first ("normal") is the plain baseline with no overlay.
    """
    labels = tuple(label for _, _, label in config.phase_schedule)
    if labels != CPUMINER_PHASES:
        raise InvalidConfig(
            f"cpuminer scenario requires phases {CPUMINER_PHASES}, got {labels}"
        )
    streams = [gen_baseline(config)]
    for index, (start, end, label) in enumerate(config.phase_schedule):
        if label == "normal":
            continue
        streams.append(_phase_overlay(config, label, (start, end), index))
    return _merge(*streams)


def gen_httpflood_scenario(config: ScenarioConfig) -> Iterator[ForensicEvent]:
    """Cyclic request flood: 1 minute of attack, 4 minutes of quiet."""
    if config.duration_s < FLOOD_CYCLE_S:
        raise InvalidConfig(
            f"flood scenario needs at least one full {FLOOD_CYCLE_S:.0f} s cycle"
        )
    if config.flood_factor * config.base_request_rate > MAX_PER_SECOND:
        raise InvalidConfig(
            f"flood_factor * base_request_rate must be <= {MAX_PER_SECOND} connections/s"
        )
    return _merge(gen_baseline(config), _flood_overlay(config))


SCENARIOS = {
    "baseline": gen_baseline,
    "cpuminer": gen_cpuminer_scenario,
    "httpflood": gen_httpflood_scenario,
}
