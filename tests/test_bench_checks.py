"""The benchmark's own unit tests, bench/test_checks.py, pass.

They build SequenceFrame positionally, call fieldreg.TrainingRecord,
pipeline.run_calibrate and run_filter, and read the simulator's frames, so a
change to any of those names or signatures shows up here.
"""

import io
import pathlib
import unittest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_bench_checks_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    suite = unittest.defaultTestLoader.loadTestsFromName("test_checks")
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun >= 17
    assert result.wasSuccessful(), result.failures + result.errors
