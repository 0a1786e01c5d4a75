"""scripts/ab.py, run with this checkout on both sides."""
from test_ab import MEASURES, ROOT, report


def test_one_checkout_against_itself_is_equal_bit_for_bit():
    doc = report(ROOT, "--seed", 3)
    assert (doc["seed"], doc["reps"], doc["per_cam"]) == (3, 1, 3)
    for setting, keys in MEASURES.items():
        for key in keys:
            m = doc[setting][key]
            assert m["same"] is True, (setting, key)
            for side in ("parent", "change"):
                t = m[side]
                assert 0 < t["min"] <= t["q1"] <= t["median"] <= t["q3"]
            assert m["median_change"] > -1.0
