"""scripts/ab.py: this checkout against a copy with one constant changed,
and arguments it refuses. The script's runs of this checkout against itself
are checked in test_ab_train.py (bit-equality), test_losses.py (the loss
pass's figures) and test_evalkit.py (evaluate's figures)."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MEASURES = {"joint": ("train_s", "total_loss_us", "layout_ms"),
            "labeled_only": ("train_s", "total_loss_us", "layout_ms"),
            "evaluate": ("evaluate_s",)}


def run_ab(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), *map(str, args)],
        capture_output=True, text=True, timeout=300)


def report(change_dir, *args) -> dict:
    out = run_ab(ROOT, change_dir, "--reps", 1, *args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("module, old, new, changed", [
    # evaluation runs the encoder training starts from: no loss in it
    ("losses.py", "\nTAU_CC = 0.07\n", "\nTAU_CC = 0.0700001\n",
     {"train_s", "total_loss_us", "layout_ms"}),
    # and training calls no evaluate
    ("evalkit.py", '"rank1": float(np.mean(first <= 1))',
     '"rank1": float(np.mean(first <= 2))', {"evaluate_s"}),
])
def test_a_changed_copy_reads_changed_where_it_differs(tmp_path, module, old,
                                                      new, changed):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "remix" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    doc = report(tmp_path)
    for setting, keys in MEASURES.items():
        for key in keys:
            assert doc[setting][key]["same"] is (key not in changed), \
                (setting, key)


@pytest.mark.parametrize("flag, value", [("--reps", 0), ("--seed", -1),
                                         ("--per-cam", 1)])
def test_bad_arguments_are_usage_errors_before_any_import(tmp_path, flag,
                                                          value):
    # no checkout is there: reaching the import would exit 1, not 2
    out = run_ab(tmp_path, tmp_path, flag, value)
    assert out.returncode == 2 and out.stdout == ""
    assert "usage:" in out.stderr and f"{flag} must be >= " in out.stderr


def test_a_directory_without_remix_sources_is_named(tmp_path):
    out = run_ab(tmp_path, ROOT, "--reps", 1)
    assert out.returncode == 1 and out.stdout == ""
    assert f"no remix sources under {tmp_path.resolve()}" in out.stderr
