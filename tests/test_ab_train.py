"""scripts/ab_train.py, run with this checkout on both sides."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_checkout_against_itself_is_equal_bit_for_bit():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_train.py"), str(ROOT),
         str(ROOT), "--reps", "1", "--seed", "3"],
        capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["seed"] == 3 and report["reps"] == 1
    for setting in ("joint", "labeled_only"):
        r = report[setting]
        assert r["same_data"] and r["same_result"]
        for side in ("parent", "change"):
            assert 0.0 < r[side]["min_s"] <= r[side]["median_s"]
        assert r["median_change"] > -1.0
