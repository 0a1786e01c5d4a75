"""The pair summary of scripts/bench_pairs.py, on made-up run values, and
its check that both checkouts hold the same benchmark files: no benchmark
is started."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "train_s", "better": "lower", "bound": 0.1},
         {"name": "gain", "better": "higher", "bound": 0.2}]


def pairs_of(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


@pytest.mark.parametrize("values", [[3.0], [1.0, 4.0], [5.0, 1.0, 2.0, 4.0],
                                    [0.3, 0.1, 0.9, 0.4, 0.2, 0.7]])
def test_quartiles_interpolate_like_numpy(values):
    assert bench_pairs.quartiles(values) == pytest.approx(
        np.percentile(values, [25, 50, 75]))


def test_wins_ties_and_direction():
    parent = [{"train_s": t, "gain": 1.5} for t in
              (0.50, 0.52, 0.55, 0.51, 0.53, 0.54, 0.56, 0.50, 0.52, 0.40)]
    # train_s: lower is better; nine pairs faster, one tie
    change = [{"train_s": t, "gain": g} for t, g in
              zip((0.41, 0.42, 0.44, 0.40, 0.43, 0.41, 0.45, 0.40, 0.42,
                   0.40),
                  (1.5, 1.6, 1.4, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5))]
    s = bench_pairs.summarise(pairs_of(parent, change), SPECS)
    t = s["train_s"]
    assert t["change_better_in"] == "9/10" and t["ties"] == 1
    assert t["gain_holds"] and t["verdict"] == "within_bound"
    assert t["median_change"] == pytest.approx(0.415 / 0.52 - 1)
    # gain: higher is better; one pair higher, one lower, eight ties
    g = s["gain"]
    assert g["change_better_in"] == "1/10" and g["ties"] == 8
    assert not g["gain_holds"] and g["verdict"] == "within_bound"


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_spread():
    parent = [{"train_s": t, "gain": 1.0} for t in (1.0, 2.0, 3.0, 4.0)]
    # every pair faster, but by less than the parent's q3 - q1 (1.5)
    change = [{"train_s": t - 0.5, "gain": 1.0} for t in (1.0, 2.0, 3.0, 4.0)]
    t = bench_pairs.summarise(pairs_of(parent, change), SPECS)["train_s"]
    assert t["change_better_in"] == "4/4" and not t["gain_holds"]
    # 8 of 9 pairs better is below nine tenths
    parent = [{"train_s": 1.0, "gain": 1.0}] * 9
    change = [{"train_s": 0.5, "gain": 1.0}] * 8 \
        + [{"train_s": 1.0, "gain": 1.0}]
    t = bench_pairs.summarise(pairs_of(parent, change), SPECS)["train_s"]
    assert t["change_better_in"] == "8/9" and not t["gain_holds"]


def test_bound_follows_direction():
    parent = [{"train_s": 1.0, "gain": 2.0}] * 3
    # train_s 11% slower breaks its 10% bound; gain 15% lower keeps 20%
    change = [{"train_s": 1.11, "gain": 1.7}] * 3
    s = bench_pairs.summarise(pairs_of(parent, change), SPECS)
    assert s["train_s"]["verdict"] == "beyond_bound"
    assert s["gain"]["verdict"] == "within_bound"
    # a better value is always within its bound
    change = [{"train_s": 0.5, "gain": 3.0}] * 3
    s = bench_pairs.summarise(pairs_of(parent, change), SPECS)
    assert {v["verdict"] for v in s.values()} == {"within_bound"}


def test_spread_wider_than_the_bound_is_unresolved():
    # parent train_s quartiles 0.975/1.1/1.225: a spread of 23% of the median,
    # wider than the 10% bound
    parent = [{"train_s": t, "gain": 2.0} for t in (0.9, 1.0, 1.2, 1.3)]
    same = [{"train_s": t, "gain": 2.0} for t in (1.3, 1.2, 1.0, 0.9)]
    s = bench_pairs.summarise(pairs_of(parent, same), SPECS)
    assert s["train_s"]["verdict"] == "unresolved"
    assert s["gain"]["verdict"] == "within_bound"  # no spread
    # a better median alone does not resolve it ...
    faster = [{"train_s": t, "gain": 2.0} for t in (0.8, 0.85, 0.9, 1.0)]
    s = bench_pairs.summarise(pairs_of(parent, faster), SPECS)
    assert s["train_s"]["verdict"] == "unresolved"
    # ... every change run beating every parent run does
    faster = [{"train_s": t, "gain": 2.0} for t in (0.7, 0.75, 0.8, 0.85)]
    s = bench_pairs.summarise(pairs_of(parent, faster), SPECS)
    assert s["train_s"]["verdict"] == "within_bound"


def test_seed_ranges():
    assert bench_pairs.parse_seeds("9101-9110") == list(range(9101, 9111))
    assert bench_pairs.parse_seeds("7") == [7]


def test_failed_share_is_over_attempts():
    def runs(parent, change):
        return [{"parent": {"attempted": pa, "failed": pf},
                 "change": {"attempted": ca, "failed": cf}}
                for (pa, pf), (ca, cf) in zip(parent, change)]

    # one failure each, but the change attempted half as many operations
    f = bench_pairs.failures(runs([(10, 1), (10, 0)], [(6, 0), (4, 1)]))
    assert f["failed_operations"] == {"parent": 1, "change": 1}
    assert f["attempted_operations"] == {"parent": 20, "change": 10}
    assert f["failed_share"] == {"parent": 0.05, "change": 0.1}
    assert f["change_fails_more"]
    # an equal share, or a lower one, is not flagged
    f = bench_pairs.failures(runs([(10, 1), (10, 0)], [(10, 0), (10, 1)]))
    assert f["failed_share"] == {"parent": 0.05, "change": 0.05}
    assert not f["change_fails_more"]
    f = bench_pairs.failures(runs([(10, 1)], [(10, 0)]))
    assert not f["change_fails_more"]


def test_median_attempts_per_run():
    def runs(parent, change):
        return [{"parent": {"attempted": pa, "failed": 0},
                 "change": {"attempted": ca, "failed": 0}}
                for pa, ca in zip(parent, change)]

    f = bench_pairs.failures(runs([36, 41, 38], [46, 41, 44]))
    assert f["attempted_median"] == {"parent": 38, "change": 44}
    f = bench_pairs.failures(runs([36, 41, 38, 40], [46, 41, 44, 45]))
    assert f["attempted_median"] == {"parent": 39, "change": 44.5}


def checkout(root, files):
    """A checkout whose benchmark would leave a marker file if it ran."""
    spec = {"command": ["python3", "-c", "open('ran', 'w')"],
            "paths": ["perfbench"], "run_seconds": 1, "end_to_end": SPECS}
    files = {"BENCHMARK.json": json.dumps(spec), **files}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_benchmark_digest_covers_names_and_bytes_but_not_caches(tmp_path):
    files = {"perfbench/run.py": "print(1)\n", "perfbench/a/b.py": "x = 2\n"}
    base = bench_pairs.benchmark_digest(
        checkout(tmp_path / "base", files), ["perfbench"])
    # a byte-identical tree with a compiled cache and files outside `paths`
    same = checkout(tmp_path / "same", {
        **files, "perfbench/__pycache__/run.cpython-311.pyc": "junk",
        "src/remix/x.py": "y = 3\n"})
    assert bench_pairs.benchmark_digest(same, ["perfbench"]) == base
    # an edited, a renamed and an added file
    for k, changed in enumerate((
            {**files, "perfbench/run.py": "print(2)\n"},
            {"perfbench/run.py": "print(1)\n", "perfbench/a/c.py": "x = 2\n"},
            {**files, "perfbench/new.txt": ""})):
        other = checkout(tmp_path / f"changed{k}", changed)
        assert bench_pairs.benchmark_digest(other, ["perfbench"]) != base


def test_different_benchmark_files_stop_before_any_run(tmp_path):
    parent = checkout(tmp_path / "parent", {"perfbench/run.py": "a\n"})
    change = checkout(tmp_path / "change", {"perfbench/run.py": "b\n"})
    with pytest.raises(SystemExit, match="benchmark files differ"):
        bench_pairs.main([str(parent), str(change), "--workload", "w",
                          "--seeds", "1"])
    assert not (parent / "ran").exists() and not (change / "ran").exists()
