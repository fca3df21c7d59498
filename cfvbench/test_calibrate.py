"""Tests of the host-speed reference; they need no cfv import.

Run: python3 -m pytest -q cfvbench
"""

import calibrate


def test_reference_task_gives_its_fixed_result():
    assert calibrate.reference_task() == calibrate.EXPECTED
    assert calibrate.reference_task() == calibrate.EXPECTED


def test_scale_averages_the_samples_within_one_block_length():
    host = calibrate.HostSpeed()
    host.samples = [(0, 1, 0.1), (3, 4, 0.3), (10, 11, 0.5), (40, 41, 0.9)]
    # A short block sees only its two neighbours.
    assert host.scale(1, 3) == calibrate.NOMINAL_S / 0.2
    # A long one reaches as far again on either side.
    assert host.scale(4, 10) == calibrate.NOMINAL_S / 0.3


def test_a_long_block_is_followed_by_more_samples(monkeypatch):
    monkeypatch.setattr(calibrate, "reference_s", lambda: calibrate.NOMINAL_S)
    host = calibrate.HostSpeed()
    host.sample(1.0)
    assert len(host.samples) == 2
    host.sample(20.0)
    assert len(host.samples) == 2 + round(calibrate.DUTY * 20.0 / calibrate.NOMINAL_S)
