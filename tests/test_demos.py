"""Smoke test of the demos, the package's documented usage.

Each script in demos/ runs in-process as ``__main__`` with its output
captured, under the suite's warning filters, so that an API change or a
numpy warning that breaks a demo fails here.
"""

import glob
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


def test_demos_found():
    # an empty parametrization would skip, not fail
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out.strip()
