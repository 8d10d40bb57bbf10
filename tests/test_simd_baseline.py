"""The pinned artifacts do not depend on numpy's SIMD dispatch: the digest
tests of ``test_artifact_digests.py`` pass in a fresh interpreter with every
dispatched CPU feature that the running numpy found switched off through
``NPY_DISABLE_CPU_FEATURES``, so numpy runs its baseline kernels.  The
feature list is read at run time, as it differs between machines.  Run as a
script, this file prints that list."""

import contextlib
import io
import os
import pprint
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def found_simd_features() -> list[str]:
    """The dispatched SIMD features that ``np.show_runtime()`` reports as
    found on this CPU (the baseline excluded)."""
    report = []
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(pprint, "pprint", report.extend)
        np.show_runtime()
    return next(item["simd_extensions"]["found"] for item in report if "simd_extensions" in item)


def test_artifact_digests_hold_at_the_simd_baseline():
    found = found_simd_features()
    if not found:
        pytest.skip("numpy dispatches no SIMD feature beyond its baseline on this CPU")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(found))
    # the setting takes effect: a child numpy finds none of the features
    probe = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                           capture_output=True, text=True, check=True)
    assert probe.stdout.split() == []
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join("tests", "test_artifact_digests.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


if __name__ == "__main__":
    print(" ".join(found_simd_features()))
