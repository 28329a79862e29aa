"""Perf-trend history rows carry the numeric stamp; medians compare like with like."""

import json

from benchmarks import check_benchmark_regression as regression


def _row(ratio, blas_threads=None):
    row = {"normalized": {"bench": ratio}, "run_id": "r"}
    if blas_threads is not None:
        row["numerics"] = {"blas_threads": blas_threads}
    return row


def test_trend_median_uses_only_rows_with_the_same_thread_count():
    history = [_row(100.0), _row(1.0, 1), _row(50.0, 2), _row(3.0, 1), _row(2.0, 1)]
    comparable, excluded = regression.partition_history(history, 1)
    assert [row["normalized"]["bench"] for row in comparable] == [1.0, 3.0, 2.0]
    assert excluded == {regression.LEGACY_LABEL: 1, "blas_threads=2": 1}
    assert regression.trailing_medians(comparable) == {"bench": 2.0}


def test_append_history_writes_the_stamp_and_legacy_rows_are_labelled(tmp_path,
                                                                      capsys):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"benchmarks": [
        {"name": "bench", "stats": {"mean": 0.01}}]}))
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(_row(1e6)) + "\n")
    argv = ["--bench-json", str(bench), "--history", str(history),
            "--thresholds", str(tmp_path / "none.json"), "--append-history"]
    assert regression.main(argv) == 0
    out = capsys.readouterr().out
    assert f"1 {regression.LEGACY_LABEL} row(s)" in out
    assert "perf history" in out and "yet" in out  # the legacy row never counts
    rows = [json.loads(line) for line in history.read_text().splitlines()]
    assert rows[-1]["numerics"] == regression.numeric_environment()
    assert regression.history_label(rows[0]) == regression.LEGACY_LABEL

    assert regression.main(argv) == 0
    out = capsys.readouterr().out
    assert "trailing median of last 1 blas_threads=" in out
