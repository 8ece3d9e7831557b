"""Unit tests for scripts/check_bench.py, the CI benchmark regression gate.

A broken gate fails open (a checker that never trips looks exactly like a
healthy run), so the threshold and unit semantics are pinned here: exact
gating for deterministic units, the soft/hard timing bands, the noise
floor, --skip-timing, and the --update meta block. Run via pytest
(python3-pytest from apt; the gcc CI leg executes this file).
"""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
cb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cb)


def write_bench(path, bench, metrics):
    """metrics: iterable of (name, unit, value) tuples."""
    path.write_text(json.dumps({
        "benchmark": bench,
        "metrics": [
            {"name": n, "unit": u, "value": v} for n, u, v in metrics
        ],
    }))
    return str(path)


def write_baseline(path, benchmarks, meta=None):
    """benchmarks: {bench: [(name, unit, value), ...]}."""
    path.write_text(json.dumps({
        "benchmarks": {
            bench: {n: {"unit": u, "value": v} for n, u, v in ms}
            for bench, ms in benchmarks.items()
        },
        "meta": meta if meta is not None else {},
    }))
    return str(path)


def run_check(tmp_path, base_metrics, cur_metrics, skip_timing=False):
    base = write_baseline(tmp_path / "baseline.json", {"b": base_metrics})
    cur = write_bench(tmp_path / "BENCH_b.json", "b", cur_metrics)
    return cb.check(base, [cur], skip_timing)


def test_identical_run_passes(tmp_path):
    m = [("fb_hash", "hash", 123456), ("wall", "s", 0.100)]
    assert run_check(tmp_path, m, m) == 0


def test_deterministic_drift_fails_regardless_of_magnitude(tmp_path):
    for unit, old, new in [("hash", 123456, 123457),
                           ("ops", 1000, 999),
                           ("bool", True, False),
                           ("count", 7, 8)]:
        base = [("m", unit, old)]
        assert run_check(tmp_path, base, [("m", unit, new)]) == 1
        assert run_check(tmp_path, base, [("m", unit, old)]) == 0


def test_timing_hard_regression_fails(tmp_path):
    # +30% on a lower-is-better metric exceeds the 25% hard threshold.
    assert run_check(tmp_path, [("wall", "s", 0.100)],
                     [("wall", "s", 0.130)]) == 1


def test_timing_soft_regression_only_warns(tmp_path, capsys):
    # +15% sits in the soft band: exit 0, but the warning must be printed.
    assert run_check(tmp_path, [("wall", "s", 0.100)],
                     [("wall", "s", 0.115)]) == 0
    assert "WARN" in capsys.readouterr().out


def test_timing_improvement_never_fails(tmp_path):
    assert run_check(tmp_path, [("wall", "s", 0.100)],
                     [("wall", "s", 0.040)]) == 0


def test_higher_is_better_units_gate_on_drops(tmp_path):
    # speedup 2.0x -> 1.5x is a 33% regression for an "x" metric.
    assert run_check(tmp_path, [("speedup", "x", 2.0)],
                     [("speedup", "x", 1.5)]) == 1
    assert run_check(tmp_path, [("speedup", "x", 2.0)],
                     [("speedup", "x", 2.5)]) == 0
    assert run_check(tmp_path, [("rate", "/s", 1000.0)],
                     [("rate", "/s", 700.0)]) == 1


def test_lower_is_better_ratio_gates_on_rises(tmp_path):
    # overhead 1.0x -> 1.3x is a 30% regression for an "x_lower" metric...
    assert run_check(tmp_path, [("overhead", "x_lower", 1.0)],
                     [("overhead", "x_lower", 1.3)]) == 1
    # ...and 1.12x -> 0.90x is an improvement, which never fails.
    assert run_check(tmp_path, [("overhead", "x_lower", 1.12)],
                     [("overhead", "x_lower", 0.90)]) == 0


def test_ratio_direction_is_carried_by_the_unit(tmp_path):
    # The same drop 1.2 -> 0.8 fails a speedup and passes an overhead.
    assert run_check(tmp_path, [("r", "x", 1.2)], [("r", "x", 0.8)]) == 1
    assert run_check(tmp_path, [("r", "x_lower", 1.2)],
                     [("r", "x_lower", 0.8)]) == 0


def test_sub_noise_floor_timings_never_gate(tmp_path):
    # 1ms -> 4ms is +300%, but both sit under the 5ms noise floor.
    assert run_check(tmp_path, [("wall", "s", 0.001)],
                     [("wall", "s", 0.004)]) == 0


def test_skip_timing_ignores_timing_but_still_gates_deterministic(tmp_path):
    base = [("wall", "s", 0.100), ("fb_hash", "hash", 42)]
    bad_timing = [("wall", "s", 9.000), ("fb_hash", "hash", 42)]
    assert run_check(tmp_path, base, bad_timing, skip_timing=True) == 0
    assert run_check(tmp_path, base, bad_timing, skip_timing=False) == 1
    bad_hash = [("wall", "s", 0.100), ("fb_hash", "hash", 43)]
    assert run_check(tmp_path, base, bad_hash, skip_timing=True) == 1


def test_threads_unit_is_environment_dependent_and_skipped(tmp_path):
    assert run_check(tmp_path, [("pool", "threads", 4)],
                     [("pool", "threads", 16)]) == 0


def test_missing_metric_fails(tmp_path):
    assert run_check(tmp_path,
                     [("wall", "s", 0.1), ("fb_hash", "hash", 42)],
                     [("wall", "s", 0.1)]) == 1


def test_unit_change_fails(tmp_path):
    assert run_check(tmp_path, [("wall", "s", 0.1)],
                     [("wall", "x", 0.1)]) == 1


def test_new_metric_not_in_baseline_does_not_gate(tmp_path):
    assert run_check(tmp_path, [("wall", "s", 0.1)],
                     [("wall", "s", 0.1), ("extra", "s", 99.0)]) == 0


def test_baseline_bench_without_bench_file_fails(tmp_path):
    base = write_baseline(tmp_path / "baseline.json",
                          {"present": [("wall", "s", 0.1)],
                           "absent": [("wall", "s", 0.1)]})
    cur = write_bench(tmp_path / "BENCH_p.json", "present",
                      [("wall", "s", 0.1)])
    assert cb.check(base, [cur], False) == 1


def test_bench_file_not_in_baseline_only_warns(tmp_path, capsys):
    base = write_baseline(tmp_path / "baseline.json",
                          {"known": [("wall", "s", 0.1)]})
    known = write_bench(tmp_path / "BENCH_k.json", "known",
                        [("wall", "s", 0.1)])
    novel = write_bench(tmp_path / "BENCH_n.json", "novel",
                        [("wall", "s", 0.1)])
    assert cb.check(base, [known, novel], False) == 0
    assert "not in baseline" in capsys.readouterr().out


def test_update_writes_meta_and_roundtrips(tmp_path):
    cur = write_bench(tmp_path / "BENCH_b.json", "b",
                      [("wall", "s", 0.1), ("fb_hash", "hash", 42)])
    base = str(tmp_path / "baseline.json")
    assert cb.update_baseline(base, [cur], None, "ci:test") == 0
    data = json.loads(Path(base).read_text())
    assert data["meta"]["source"] == "ci:test"
    assert data["meta"]["cpu_count"] > 0
    assert "machine_class" in data["meta"]
    # A freshly written baseline must gate green against its own inputs.
    assert cb.check(base, [cur], False) == 0


def test_cpu_count_mismatch_soft_warns_but_passes(tmp_path, capsys):
    base = write_baseline(
        tmp_path / "baseline.json", {"b": [("wall", "s", 0.1)]},
        meta={"machine_class": "2-core test", "cpu_count": 100000,
              "source": "elsewhere"})
    cur = write_bench(tmp_path / "BENCH_b.json", "b", [("wall", "s", 0.1)])
    assert cb.check(base, [cur], False) == 0
    assert "timing gates may be unreliable" in capsys.readouterr().out


def test_update_keeps_benchmarks_it_is_not_given(tmp_path):
    # A partial refresh must not drop the other gates: the next check would
    # pass them by silently no longer knowing them.
    base = write_baseline(tmp_path / "baseline.json",
                          {"kept": [("fb_hash", "hash", 42)],
                           "b": [("wall", "s", 0.1), ("old", "s", 0.1)]})
    cur = write_bench(tmp_path / "BENCH_b.json", "b", [("wall", "s", 0.2)])
    assert cb.update_baseline(base, [cur], None, "local") == 0
    data = json.loads(Path(base).read_text())
    assert data["benchmarks"]["kept"] == {
        "fb_hash": {"unit": "hash", "value": 42}}
    # The given benchmark is replaced whole, so a removed metric goes.
    assert data["benchmarks"]["b"] == {"wall": {"unit": "s", "value": 0.2}}


def test_failure_hint_names_every_baseline_benchmark(tmp_path, capsys):
    base = write_baseline(tmp_path / "baseline.json",
                          {"alpha": [("h", "hash", 1)],
                           "beta": [("h", "hash", 1)]})
    a = write_bench(tmp_path / "BENCH_alpha.json", "alpha", [("h", "hash", 2)])
    b = write_bench(tmp_path / "BENCH_beta.json", "beta", [("h", "hash", 1)])
    assert cb.check(base, [a, b], False) == 1
    hint = capsys.readouterr().out.split("bench gate:")[-1]
    assert "--update" in hint
    assert "BENCH_alpha.json BENCH_beta.json" in hint
