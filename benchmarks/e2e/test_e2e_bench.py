"""Schema and plumbing of the end-to-end benchmark, at smoke size.

Run as ``pytest benchmarks/e2e -q`` (about half a minute; deliberately
outside the tier-1 ``testpaths``).  Everything goes through
``run.py --smoke``, whose inputs are a twelfth of the real ones, so the
timings mean nothing; what is checked is that every metric of
``BENCHMARK.json`` is produced for every workload, that the traced and
untraced pipelines agree, and that the oracles flag what they should.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import harness
import run
import spread
from calibrate import Calibration
from workloads import BY_NAME, WORKLOADS

sys.path.insert(0, str(harness.SOURCE))

from oracle import check_shape  # noqa: E402  (needs the library on the path)

CONTRACT = harness.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "model_cluster_s", "genome_fraction_pct"]


def run_smoke(out, *arguments):
    """``run.py --smoke``: its last line of output and the reports it wrote."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--smoke", "--seconds", "0.3", "--out", str(out), *arguments])
    assert code == 0, stdout.getvalue()
    reports = json.loads(out.read_text())["reports"]
    return json.loads(stdout.getvalue().splitlines()[-1]), reports


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Per workload: (untraced result, untraced report, traced result, traced report)."""
    out = tmp_path_factory.mktemp("smoke") / "report.json"
    timed, timed_reports = run_smoke(out, "--seed", "11", "--trace", "0")
    traced, traced_reports = run_smoke(out, "--seed", "11", "--trace", "1")
    assert timed["claim"] is None and traced["claim"] is None
    return {
        workload.name: (
            timed["workloads"][workload.name],
            timed_reports[index],
            traced["workloads"][workload.name],
            traced_reports[index],
        )
        for index, workload in enumerate(WORKLOADS)
    }


def test_contract_names_units_and_bounds():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [entry["name"] for entry in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]
    assert len(WORKLOADS) == 4
    assert [entry["name"] for entry in CONTRACT["end_to_end"]] == END_TO_END
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = next(e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in CONTRACT["end_to_end"])


def test_every_workload_reports_every_metric(smoke):
    for name, (end_to_end, timed, per_layer, traced) in smoke.items():
        for result in (end_to_end, per_layer):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (name, timed["problems"], traced["problems"])
            assert result["failed"] == 0 < result["attempted"]
        assert list(end_to_end["metrics"]) == END_TO_END
        assert list(per_layer["metrics"]) == [e["name"] for e in CONTRACT["per_layer"]]
        assert all(m["value"] > 0 for m in end_to_end["metrics"].values()), name


def test_traced_pipeline_assembles_the_same_contigs(smoke):
    # The child compares digest and model_cluster_s of the hand-composed
    # pipeline with assemble()'s and reports a problem when they differ.
    for name, (_, timed, _, traced) in smoke.items():
        assert traced["digest"] == timed["digest"], name
        assert traced["problems"] == [], name
        names = {span["name"] for span in traced["spans"]}
        assert {"repetition", "dna.parse", "assembler.labeling_kmers"} <= names
        assert all(
            set(span) == {"name", "workload", "repetition", "parent", "start", "end"}
            for span in traced["spans"]
        )


def test_only_the_budgeted_workload_spills_and_only_mp2_has_workers(smoke):
    for name, (_, _, _, traced) in smoke.items():
        layers = traced["metrics"]
        assert (layers["store.spill_events"] > 0) == (name == "label_spill")
        assert (layers["runtime.worker_cpu_s"] > 0) == (name == "label_mp2")
        assert (layers["runtime.mp_speedup"] > 0) == (name == "label_mp2")
        assert (layers["store.budget_slowdown"] > 0) == (name == "label_spill")


def test_a_second_seed_passes_the_oracle(smoke, tmp_path):
    result, (other,) = run_smoke(
        tmp_path / "other.json", "--workload", "label_serial", "--seed", "12", "--trace", "0"
    )
    assert result["correct"]
    assert other["digest"] != smoke["label_serial"][1]["digest"]


def test_a_workload_whose_shape_drifted_is_flagged(smoke):
    layers = dict(smoke["label_serial"][3]["metrics"])
    layers.update({"assembler.labeling_share": 0.9, "assembler.ingest_share": 0.05})
    assert check_shape(BY_NAME["label_serial"], layers) == []
    layers["assembler.labeling_share"] = 0.79
    assert "labeling" in check_shape(BY_NAME["label_serial"], layers)[0]
    layers.update({"assembler.labeling_share": 0.55, "assembler.ingest_share": 0.45})
    assert "parse + construction" in check_shape(BY_NAME["ingest_deep"], layers)[0]
    layers["store.spill_events"] = 3
    assert any("spilled" in p for p in check_shape(BY_NAME["label_serial"], layers))
    layers["store.spill_events"] = 0
    assert any("never spilled" in p for p in check_shape(BY_NAME["label_spill"], layers))
    assert any("no worker" in p for p in check_shape(BY_NAME["label_mp2"], layers))


def test_spread_is_interquartile_range_over_median():
    row = spread.observed_spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert row["median"] == 12.0
    assert row["observed_spread"] == pytest.approx((row["q3"] - row["q1"]) / 12.0)
    assert spread.drift({"better": "lower"}, 10.0, 11.0) == pytest.approx(0.1)
    assert spread.drift({"better": "higher"}, 10.0, 11.0) == pytest.approx(-0.1)


def test_timings_are_normalised_by_the_kernels_around_them():
    slow = Calibration(("interpreter",), samples_per_gap=1)
    slow.cpu_samples["interpreter"] = [0.1, 0.5, 0.5]  # the last two gaps: half the reference speed
    assert slow.normalised(2.0) == pytest.approx(1.0)
    mixed = Calibration(("interpreter", "array"), samples_per_gap=1)
    mixed.cpu_samples.update(interpreter=[0.5, 0.5], array=[0.1, 0.1])  # array code at full speed
    assert mixed.normalised(2.0) == pytest.approx(2.0 * 0.5**0.5)


def test_a_deterministic_value_that_moved_is_a_failure():
    failures = []
    recorded = {"n50_bp": 5993, "digest": "ab"}
    spread.must_repeat("w seed 1", ("n50_bp", "digest"), dict(recorded), recorded, failures)
    spread.must_repeat("w seed 1", ("n50_bp", "digest"), dict(recorded), None, failures)
    assert failures == []
    spread.must_repeat("w seed 1", ("n50_bp", "digest"), {"n50_bp": 5992, "digest": "ab"}, recorded, failures)
    assert len(failures) == 1 and "n50_bp" in failures[0]


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(harness.CONTRACT, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    finished = subprocess.run(
        CONTRACT["command"] + ["--workload", "label_serial", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""
