"""Tests of the host-speed correction.

Run from the repository root:  python3 -m pytest bench/tests
"""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import hostspeed  # noqa: E402
from hostspeed import Clock  # noqa: E402


def test_trimmed_mean_drops_the_highest_and_lowest_tenth():
    assert hostspeed._trimmed_mean([1.0] * 18 + [100.0, 0.0]) == 1.0
    assert hostspeed._trimmed_mean([2.0, 4.0]) == 3.0


def test_a_call_inside_a_timed_call_is_not_timed_again():
    clock = Clock()
    inner = clock.wrap(lambda: time.sleep(0.01))
    clock.wrap(lambda: [inner(), inner()])()
    assert len(clock.calls) == 1
    assert clock.calls[0][0] >= 0.02


def test_corrected_call_excludes_the_reference_passes_it_runs():
    clock = Clock()
    clock.time(time.sleep, 0.35)
    raw, corrected = clock.calls[0]
    # Three interrupts at least, each running one reference pass, all
    # taken out of the raw time.
    assert len(clock._samples) >= 2 + 3
    assert raw == pytest.approx(0.35, abs=0.03)
    assert corrected > 0
