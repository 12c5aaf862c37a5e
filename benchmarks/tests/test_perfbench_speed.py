"""Host-speed scaling of the benchmark's timers."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from speed import PROBE_REF_S, Speedometer, scaled_seconds  # noqa: E402


def probes_at(times, duration):
    return [(t, t + duration) for t in times]


def test_reference_speed_counts_work_between_probes():
    probes = probes_at([-1.0, 2.0, 5.0, 11.0], PROBE_REF_S)
    # work: 0..2, then 2+ref..5, then 5+ref..10 (the last probe is outside)
    expected = 2.0 + (3.0 - PROBE_REF_S) + (5.0 - PROBE_REF_S)
    assert scaled_seconds(0.0, 10.0, probes) == pytest.approx(expected)


def test_slower_host_scales_work_down():
    probes = probes_at([-1.0, 4.0, 11.0], 2 * PROBE_REF_S)
    work = 4.0 + (6.0 - 2 * PROBE_REF_S)
    assert scaled_seconds(0.0, 10.0, probes) == pytest.approx(work / 2)


def test_one_slow_probe_is_outvoted():
    times = [-1.0] + [float(t) for t in range(1, 10)] + [11.0]
    probes = probes_at(times, PROBE_REF_S)
    probes[5] = (probes[5][0], probes[5][0] + 50 * PROBE_REF_S)
    gaps = sum(min(b[0], 10.0) - max(a[1], 0.0) for a, b in zip(probes, probes[1:]))
    assert scaled_seconds(0.0, 10.0, probes) == pytest.approx(gaps)


def test_speedometer_probes_during_the_block_and_excludes_them():
    calls = []

    def fake_probe():
        calls.append(time.perf_counter())

    with Speedometer(interval=0.02, run_probe=fake_probe) as timer:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    inside = [p for p in timer.probes if timer.start <= p[0] <= timer.end]
    assert calls and len(inside) == len(calls)
    assert timer.raw_s <= timer.end - timer.start
    assert timer.scaled_s > 0
