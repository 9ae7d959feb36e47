"""The recorded fit digest (studies/fit_digest.py) as a test: every fit of
its grid of configurations is unchanged bit for bit."""

import importlib.util
import json
import os
import platform
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

STUDIES = Path(__file__).resolve().parent.parent / "studies"
RECORD = STUDIES / "fit_digest.json"


@pytest.fixture(scope="module")
def fit_digest():
    """The script as a module; its import leaves os.environ and sys.path
    as they were."""
    spec = importlib.util.spec_from_file_location(
        "fit_digest", STUDIES / "fit_digest.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path",
                                                        list(sys.path)):
        spec.loader.exec_module(module)
    return module


def test_every_recorded_fit_is_unchanged(fit_digest):
    record = json.loads(RECORD.read_text())
    recorded = record["environment"]
    running = {"python": platform.python_version(), "numpy": np.__version__}
    moved = {k: (recorded[k], v) for k, v in running.items()
             if recorded[k] != v}
    if moved:
        pytest.skip(f"recorded on another environment (recorded, running): "
                    f"{moved}")
    fits, unequal, faults = fit_digest.run()
    assert fit_digest.compare(fits, record["fits"]) == []
    assert unequal == []
    assert faults == []


def test_compare_reads_the_old_record_before_writing_the_new(fit_digest,
                                                             tmp_path,
                                                             monkeypatch,
                                                             capsys):
    # --compare may name the file --output writes: the new fit still
    # counts as moved against what the file held before
    def fits(sha):
        return {"q=1 n=2 db4": {"sha256": sha, "b_hat": [0.0],
                                "h_inv_sq": [1.0], "mise": [0.5]}}

    path = tmp_path / "digest.json"
    path.write_text(json.dumps({"fits": fits("old")}))
    monkeypatch.setattr(fit_digest, "run", lambda: (fits("new"), [], []))
    args = ["--output", str(path), "--compare", str(path)]
    assert fit_digest.main(args) == 1
    assert "1 of 1 moved" in capsys.readouterr().out
    assert json.loads(path.read_text())["fits"] == fits("new")
    assert fit_digest.main(args) == 0
    assert "0 of 1 moved" in capsys.readouterr().out
