"""The bench-regression gate: baseline format and comparison logic."""

import json
import pathlib

from benchmarks.common import baseline_from_results, compare_to_baseline

RESULTS = {
    "gray": {"backends": {"interp": {"per_cycle_us": 100.0},
                          "blaze": {"per_cycle_us": 50.0}}},
    "fir": {"backends": {"interp": {"per_cycle_us": 200.0},
                         "blaze": {"per_cycle_us": 80.0}}},
}


def test_regression_beyond_tolerance_is_flagged():
    baseline = {"designs": {"gray": {"interp": 50.0, "blaze": 50.0},
                            "fir": {"interp": 200.0, "blaze": 80.0}}}
    regressions, lines = compare_to_baseline(RESULTS, baseline,
                                             tolerance=0.25)
    assert [(n, e) for n, e, _ in regressions] == [("gray", "interp")]
    assert any("REGRESSION" in line for line in lines)


def test_uniform_machine_shift_cancels():
    """A CI runner uniformly 2x slower than the baseline machine must
    not fire the gate: the geometric-mean normalization absorbs it."""
    half_speed = {"designs": {"gray": {"interp": 50.0, "blaze": 25.0},
                              "fir": {"interp": 100.0, "blaze": 40.0}}}
    regressions, _ = compare_to_baseline(RESULTS, half_speed,
                                         tolerance=0.25)
    assert regressions == []


def test_raw_comparison_without_normalization():
    half_speed = {"designs": {"gray": {"interp": 50.0, "blaze": 25.0},
                              "fir": {"interp": 100.0, "blaze": 40.0}}}
    regressions, _ = compare_to_baseline(RESULTS, half_speed,
                                         tolerance=0.25, normalize=False)
    assert len(regressions) == 4  # every cell is 2x raw


def test_empty_overlap_is_not_a_failure():
    regressions, lines = compare_to_baseline(RESULTS, {"designs": {}})
    assert regressions == []
    assert "no overlapping cells" in lines[0]


def test_baseline_roundtrip_from_results():
    doc = baseline_from_results(RESULTS, meta={"runs": 3})
    assert doc["designs"]["gray"]["blaze"] == 50.0
    assert doc["meta"]["runs"] == 3
    regressions, _ = compare_to_baseline(RESULTS, doc)
    assert regressions == []  # identical run vs its own baseline


def test_committed_baseline_covers_the_quick_subset():
    """CI runs the gate in --quick mode: every quick design × engine
    must be present in the committed BENCH_baseline.json."""
    from benchmarks.bench_table2_simulation import QUICK_DESIGNS

    path = pathlib.Path(__file__).resolve().parents[2] / \
        "BENCH_baseline.json"
    doc = json.loads(path.read_text())
    for name in QUICK_DESIGNS:
        assert name in doc["designs"], name
        for engine in ("interp", "blaze"):
            assert doc["designs"][name].get(engine), (name, engine)


BATCH_RESULTS = {
    "gray_l": {"backends": {"blaze": {"per_cycle_us": 100.0},
                            "blaze@b4": {"per_cycle_us": 40.0},
                            "blaze@b16": {"per_cycle_us": 10.0}}},
    "sorter_l": {"backends": {"blaze": {"per_cycle_us": 100.0},
                              "blaze@b4": {"per_cycle_us": 90.0},
                              "blaze@b16": {"per_cycle_us": 45.0}}},
    "gray": {"backends": {"blaze": {"per_cycle_us": 100.0},
                          "blaze@b4": {"per_cycle_us": 300.0}}},
}


def test_batch_cost_ceilings_cap_headroom_at_the_target():
    """Each ceiling is the measured per-lane ratio plus 50% headroom,
    but never above the per-lane target (b4 <= 1.0, b16 <= 0.5)."""
    doc = baseline_from_results(BATCH_RESULTS)
    assert doc["batch_cost_ceilings"] == {
        "gray_l": {"b4_lane_cost": 0.6, "b16_lane_cost": 0.15},
        "sorter_l": {"b4_lane_cost": 1.0, "b16_lane_cost": 0.5},
    }


def test_batch_cost_above_its_ceiling_is_flagged():
    baseline = baseline_from_results(BATCH_RESULTS)
    slower = json.loads(json.dumps(BATCH_RESULTS))
    slower["gray_l"]["backends"]["blaze@b16"]["per_cycle_us"] = 20.0
    regressions, lines = compare_to_baseline(slower, baseline)
    assert [(n, key) for n, key, _ in regressions
            if key.endswith("_lane_cost")] == [("gray_l", "b16_lane_cost")]
    assert any("batch-cost ceilings" in line for line in lines)


def test_committed_baseline_gates_every_four_state_batch():
    """Every four-state design has committed per-lane batch ceilings
    within the targets."""
    from benchmarks.common import BATCH_COST_TARGETS
    from repro.designs import ALL_DESIGNS

    path = pathlib.Path(__file__).resolve().parents[2] / \
        "BENCH_baseline.json"
    ceilings = json.loads(path.read_text())["batch_cost_ceilings"]
    four_state = [name for name in ALL_DESIGNS if name.endswith("_l")]
    assert sorted(ceilings) == sorted(four_state)
    for name in four_state:
        for lanes, target in BATCH_COST_TARGETS.items():
            assert 0 < ceilings[name][f"b{lanes}_lane_cost"] <= target
