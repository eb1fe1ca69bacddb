import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vaeguard
from vaeguard.errors import InvalidConfig
from vaeguard.events import write_trace
from vaeguard.pipeline import summarize_trace
from vaeguard.scenarios import (
    BASELINE_EXACT_PER_REQUEST,
    BASELINE_REQUEST_MIX,
    CPUMINER_PHASES,
    NOISE_SYSCALLS,
    ScenarioConfig,
    default_cpuminer_schedule,
    flood_attack_windows,
    gen_baseline,
    gen_cpuminer_scenario,
    gen_httpflood_scenario,
)
from vaeguard.summarize import FEATURE_NAMES
from vaeguard.taxonomy import SYSCALL_TAXONOMY


def serialize(events):
    buffer = io.StringIO()
    write_trace(events, buffer)
    return buffer.getvalue()


def test_same_config_same_seed_identical_bytes():
    config = ScenarioConfig(seed=5, duration_s=120.0)
    assert serialize(gen_baseline(config)) == serialize(gen_baseline(config))


def test_different_seeds_differ():
    a = ScenarioConfig(seed=5, duration_s=60.0)
    b = ScenarioConfig(seed=6, duration_s=60.0)
    assert serialize(gen_baseline(a)) != serialize(gen_baseline(b))


def test_zero_duration_gives_empty_trace():
    assert list(gen_baseline(ScenarioConfig(seed=1, duration_s=0.0))) == []


def test_negative_duration_rejected():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(seed=1, duration_s=-1.0)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7", None])
def test_a_seed_that_is_not_an_integer_at_least_0_is_rejected(seed):
    """The rule TrainConfig applies to its seed, raised as InvalidConfig."""
    with pytest.raises(InvalidConfig, match="seed must be an integer >= 0"):
        ScenarioConfig(seed=seed, duration_s=1.0)
    assert list(gen_baseline(ScenarioConfig(seed=np.int64(1), duration_s=1.0)))


def test_timestamps_non_decreasing_everywhere():
    for generator, config in (
        (gen_baseline, ScenarioConfig(seed=2, duration_s=90.0)),
        (
            gen_cpuminer_scenario,
            ScenarioConfig(
                seed=2, duration_s=900.0, phase_schedule=default_cpuminer_schedule()
            ),
        ),
        (gen_httpflood_scenario, ScenarioConfig(seed=2, duration_s=300.0)),
    ):
        events = generator(config)
        times = [event.timestamp for event in events]
        assert times == sorted(times)


def _simulate_peak_kib(tmp_path, duration: str) -> int:
    """Peak resident size of a child writing a seed-7 baseline trace."""
    src = str(Path(vaeguard.__file__).resolve().parents[1])
    argv = [
        sys.executable, "-m", "vaeguard", "simulate", "--scenario", "baseline", "--seed", "7",
        "--duration", duration, "--out", str(tmp_path / f"baseline-{duration}.ndjson"),
    ]
    child = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": src}
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    return usage.ru_maxrss


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_simulate_memory_stays_flat_as_the_trace_gets_longer(tmp_path):
    # each duration twice, alternating; the smaller peak of each leaves out
    # a child that a busy host happened to inflate
    peaks = {"900": [], "3600": []}
    for _ in range(2):
        for duration, found in peaks.items():
            found.append(_simulate_peak_kib(tmp_path, duration))
    short, long = min(peaks["900"]), min(peaks["3600"])
    assert long <= 1.10 * short, f"peaks {peaks['900']} KiB at 900 s, {peaks['3600']} KiB at 3,600 s"


def test_event_count_tracks_cluster_count():
    events = list(gen_baseline(ScenarioConfig(seed=9, duration_s=60.0)))
    requests = sum(1 for event in events if event.syscall == "socket")
    # expected events per request, straight from the mix table
    per_request = len(BASELINE_EXACT_PER_REQUEST) + sum(
        (lo + hi) / 2.0 for lo, hi in BASELINE_REQUEST_MIX.values()
    )
    expected = requests * per_request
    assert abs(len(events) - expected) <= 0.10 * expected


def test_all_syscalls_in_taxonomy_or_noise_set():
    config = ScenarioConfig(
        seed=3, duration_s=900.0, phase_schedule=default_cpuminer_schedule()
    )
    names = {event.syscall for event in gen_cpuminer_scenario(config)}
    names |= {
        event.syscall
        for event in gen_httpflood_scenario(ScenarioConfig(seed=3, duration_s=300.0))
    }
    unknown = names - set(SYSCALL_TAXONOMY) - NOISE_SYSCALLS
    assert not unknown


# -- cpuminer -----------------------------------------------------------------


def test_cpuminer_requires_canonical_phase_order():
    shuffled = (
        (0.0, 300.0, "normal"),
        (300.0, 360.0, "shell_commands"),
        (360.0, 480.0, "shell_connect"),
        (480.0, 600.0, "package_download"),
        (600.0, 720.0, "compile"),
        (720.0, 900.0, "miner_execution"),
    )
    with pytest.raises(InvalidConfig):
        gen_cpuminer_scenario(
            ScenarioConfig(seed=1, duration_s=900.0, phase_schedule=shuffled)
        )
    with pytest.raises(InvalidConfig):
        gen_cpuminer_scenario(ScenarioConfig(seed=1, duration_s=900.0))


def test_overlapping_phases_rejected():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(
            seed=1,
            duration_s=900.0,
            phase_schedule=((0.0, 400.0, "normal"), (300.0, 900.0, "shell_connect")),
        )


def test_phase_markers_stay_inside_their_windows():
    schedule = default_cpuminer_schedule(900.0)
    events = list(gen_cpuminer_scenario(
        ScenarioConfig(seed=4, duration_s=900.0, phase_schedule=schedule)
    ))
    markers = {
        "setsid": "shell_connect",
        "setpgid": "shell_commands",
        "symlink": "package_download",
        "vfork": "compile",
        "clone3": "miner_execution",
        "ptrace": None,  # never emitted by any mixture
    }
    windows = {label: (start, end) for start, end, label in schedule}
    for syscall, phase in markers.items():
        times = [e.timestamp for e in events if e.syscall == syscall]
        if phase is None:
            assert not times
            continue
        assert times, syscall
        start, end = windows[phase]
        assert all(start <= t < end for t in times), syscall
    # phases observable in schedule order via their marker onsets
    onsets = [
        min(e.timestamp for e in events if e.syscall == marker)
        for marker in ("setsid", "setpgid", "symlink", "vfork", "clone3")
    ]
    assert onsets == sorted(onsets)


def test_normal_phase_identical_to_baseline():
    """Attack overlays must not perturb the embedded baseline stream."""
    schedule = default_cpuminer_schedule(900.0)
    config = ScenarioConfig(seed=8, duration_s=900.0, phase_schedule=schedule)
    attack = gen_cpuminer_scenario(config)
    plain = gen_baseline(ScenarioConfig(seed=8, duration_s=900.0))
    normal_attack = [e for e in attack if e.timestamp < 300.0]
    normal_plain = [e for e in plain if e.timestamp < 300.0]
    assert normal_attack == normal_plain


def test_compile_phase_event_volume():
    schedule = default_cpuminer_schedule(900.0)
    events = gen_cpuminer_scenario(
        ScenarioConfig(seed=6, duration_s=900.0, phase_schedule=schedule)
    )
    summaries = summarize_trace(events, 30.0)["web-0"]
    total = FEATURE_NAMES.index("total_events")
    normal = [v[total] for k, _, v in summaries if k.start < 300.0]
    compile_phase = [v[total] for k, _, v in summaries if 600.0 <= k.start < 720.0]
    assert min(compile_phase) >= 50 * float(np.mean(normal))


# -- http flood ---------------------------------------------------------------


def test_flood_window_arithmetic():
    windows = flood_attack_windows(1500.0)
    assert len(windows) == 5
    assert windows[0] == (0.0, 60.0)
    assert windows[-1] == (1200.0, 1260.0)


def test_flood_requires_full_cycle():
    with pytest.raises(InvalidConfig):
        gen_httpflood_scenario(ScenarioConfig(seed=1, duration_s=200.0))


def test_flood_off_windows_match_baseline_exactly():
    config = ScenarioConfig(seed=10, duration_s=600.0)
    flood = gen_httpflood_scenario(config)
    plain = gen_baseline(ScenarioConfig(seed=10, duration_s=600.0))
    off = lambda t: not any(s <= t < e for s, e in flood_attack_windows(600.0))
    assert [e for e in flood if off(e.timestamp)] == [
        e for e in plain if off(e.timestamp)
    ]


def test_flood_network_burst_dominates():
    config = ScenarioConfig(seed=12, duration_s=600.0)
    events = gen_httpflood_scenario(config)
    windows = flood_attack_windows(600.0)
    in_attack = lambda t: any(s <= t < e for s, e in windows)
    connectish = {"socket", "accept", "accept4"}
    summaries = summarize_trace(events, 30.0)["web-0"]
    attack_counts, off_counts = [], []
    for key, group, _ in summaries:
        count = sum(1 for e in group if e.syscall in connectish)
        (attack_counts if in_attack(key.start) else off_counts).append(count)
    assert np.mean(attack_counts) >= 100 * np.mean(off_counts)


def test_flood_factor_validation():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(seed=1, duration_s=300.0, flood_factor=0.0)


def test_phase_constant_is_canonical():
    assert CPUMINER_PHASES == (
        "normal",
        "shell_connect",
        "shell_commands",
        "package_download",
        "compile",
        "miner_execution",
    )
