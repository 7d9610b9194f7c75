"""Tests for the ``repro-assemble`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_cli_requires_an_input_source(capsys):
    # The argparse group itself is optional (--list-stages works without
    # input), so the requirement is enforced by main().
    with pytest.raises(SystemExit):
        main([])
    assert "required" in capsys.readouterr().err


def test_parser_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--simulate", "1000", "--backend", "spark"])
    assert "invalid choice" in capsys.readouterr().err


def test_cli_rejects_even_k(capsys):
    with pytest.raises(SystemExit):
        main(["--simulate", "1000", "-k", "16"])
    assert "odd" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_cli_rejects_a_non_finite_memory_budget_without_a_traceback(budget):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--simulate", "2000", "-k", "15",
         "--quiet", "--memory-budget-mb", budget],
        capture_output=True,
        text=True,
    )
    # A usage error, like every other invalid config value.
    assert result.returncode == 2
    assert "memory_budget_mb must be finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_assembles_simulated_reads(capsys):
    assert main(["--simulate", "1500", "-k", "15", "--workers", "2"]) == 0
    output = capsys.readouterr().out
    assert "assembling" in output
    assert "contigs=" in output
    assert "n50=" in output
    assert "[dbg-construction]" in output


def test_cli_quiet_mode_prints_single_line(capsys):
    assert main(["--simulate", "1500", "-k", "15", "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("contigs=")


def test_cli_multiprocess_backend(capsys):
    assert (
        main(
            [
                "--simulate",
                "1500",
                "-k",
                "15",
                "--workers",
                "2",
                "--backend",
                "multiprocess",
                "--quiet",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.startswith("contigs=")


def test_cli_writes_fasta(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    # A reused run directory never mixes two runs: this run scaffolds
    # nothing, so an earlier run's scaffolds must not survive it.
    (run_dir / "scaffolds.fasta").write_text(">stale\nACGT\n")
    assert main(["--simulate", "1500", "-k", "15", "--run-dir", str(run_dir)]) == 0
    text = (run_dir / "contigs.fasta").read_text()
    assert text.startswith(">contig_0")
    assert not (run_dir / "scaffolds.fasta").exists()
    assert str(run_dir) in capsys.readouterr().out


def test_cli_missing_fastq_reports_error(tmp_path, capsys):
    missing = tmp_path / "nope.fastq"
    assert main(["--fastq", str(missing)]) == 1
    assert "failed to load reads" in capsys.readouterr().err


def test_cli_dataset_profile(capsys):
    assert main(["--dataset", "hc2", "--scale", "0.02", "--quiet"]) == 0
    assert capsys.readouterr().out.startswith("contigs=")


def test_cli_scaffold_requires_pairing(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--fastq", str(tmp_path / "reads.fastq"), "--scaffold"])
    assert "pairing" in capsys.readouterr().err


def test_cli_scaffolds_simulated_pairs(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert (
        main(
            [
                "--simulate",
                "6000",
                "-k",
                "17",
                "--scaffold",
                "--insert-size",
                "400",
                "--workers",
                "2",
                "--run-dir",
                str(run_dir),
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "[scaffolding]" in output
    assert "scaffold_n50=" in output
    assert (run_dir / "scaffolds.fasta").read_text().startswith(">scaffold_0")


def test_cli_list_stages_needs_no_input(capsys):
    assert main(["--list-stages", "--scaffold"]) == 0
    output = capsys.readouterr().out
    assert "workflow ppa-assembly" in output
    assert "dbg-construction" in output
    assert "scaffolding" in output
    # Listing must not run anything.
    assert "contigs=" not in output


def test_cli_list_stages_reflects_config(capsys):
    assert main(["--list-stages"]) == 0
    output = capsys.readouterr().out
    assert "scaffolding" not in output
    assert "contig-merging/round-2" in output


def test_cli_resume_requires_checkpoint_dir(capsys):
    with pytest.raises(SystemExit):
        main(["--simulate", "1500", "-k", "15", "--resume"])
    assert "--checkpoint-dir" in capsys.readouterr().err


def test_cli_checkpoint_then_resume_matches(tmp_path, capsys):
    checkpoint_dir = tmp_path / "ckpt"
    args = ["--simulate", "2000", "-k", "15", "--workers", "2", "--quiet",
            "--checkpoint-dir", str(checkpoint_dir)]
    assert main(args) == 0
    first = capsys.readouterr().out.strip()
    assert list(checkpoint_dir.glob("checkpoint-*.pkl"))

    assert main(args + ["--resume"]) == 0
    resumed = capsys.readouterr().out.strip()
    # Identical statistics; only the wall-clock differs between a full
    # run and an instant resume-of-completed-run.
    strip = lambda line: line.split(" wall_seconds=")[0]  # noqa: E731
    assert strip(resumed) == strip(first)


def test_cli_run_dir_metrics_are_the_service_result_payload(tmp_path, capsys):
    import json

    run_dir = tmp_path / "run"
    assert (
        main(
            ["--simulate", "1500", "-k", "15", "--workers", "2", "--quiet",
             "--run-dir", str(run_dir)]
        )
        == 0
    )
    payload = json.loads((run_dir / "metrics.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["contigs"]["count"] >= 1
    assert payload["contigs"]["n50"] >= 1
    # Simulating modes know the genome, so NG50 is present.
    assert payload["contigs"]["ng50"] >= 1
    assert payload["reference_length"] == 1500
    assert payload["config"]["k"] == 15
    # Per-stage wall-clock timings, one entry per workflow stage.
    assert payload["stage_seconds"]
    assert all(seconds >= 0 for seconds in payload["stage_seconds"].values())
    assert payload["wall_seconds"] > 0
    assert payload["scaffolds"] is None


def test_cli_run_dir_metrics_cover_scaffolds(tmp_path):
    import json

    run_dir = tmp_path / "run"
    assert (
        main(
            ["--simulate", "6000", "-k", "17", "--scaffold", "--insert-size",
             "400", "--workers", "2", "--quiet", "--run-dir", str(run_dir)]
        )
        == 0
    )
    payload = json.loads((run_dir / "metrics.json").read_text())
    assert payload["scaffolds"] is not None
    assert payload["scaffolds"]["count"] >= 1
    assert payload["scaffolds"]["n50"] >= 1


def test_submit_verb_and_one_shot_cli_build_the_same_input_block():
    # The same flags must make the same JobSpec on both surfaces — the
    # input block (regression: --insert-std used to be dropped by
    # `submit` unless --insert-size was also given), every config field
    # (regression: `submit` once lacked a config flag) and
    # the contig cutoff.
    from repro.cli import spec_from_args
    from repro.service.cli import _build_spec, build_service_parser

    argv = [
        "--simulate", "2000", "--scaffold", "--insert-std", "80",
        "--labeling", "sv",
        "--backend", "multiprocess", "--memory-budget-mb", "2",
        "--min-links", "3", "--min-contig", "50",
    ]
    submitted = _build_spec(build_service_parser().parse_args(["submit", *argv]))
    one_shot = spec_from_args(build_parser().parse_args(argv))
    one_shot.validate()
    assert submitted == one_shot
    assert submitted.input["insert_std"] == 80.0
    assert submitted.input["mode"] == "simulate"
    config = submitted.assembly_config()
    assert config.backend == "multiprocess"
    assert (config.labeling_method, config.scaffold_min_links) == ("sv", 3)
    assert submitted.min_contig == 50


def test_service_verb_tables_stay_in_sync():
    # cli.py mirrors the verb tuple as a literal so one-shot runs never
    # import the serving stack; the mirror must not drift.
    from repro.cli import _SERVICE_VERBS
    from repro.service.cli import SERVICE_VERBS

    assert _SERVICE_VERBS == SERVICE_VERBS


def test_one_shot_cli_does_not_import_the_serving_stack():
    import subprocess
    import sys

    # A plain one-shot run loads none of the serving stack, although
    # its run function lives beside the service code.
    code = (
        "import sys; from repro.cli import main;"
        " main(['--simulate', '1500', '-k', '15', '--quiet']);"
        " loaded = {'http.server', 'sqlite3', 'urllib.request'} & set(sys.modules);"
        " sys.exit(sorted(loaded) or 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_cli_service_verbs_are_dispatched(capsys):
    # Without a reachable server the client verb fails cleanly (exit 1,
    # message on stderr) instead of falling into the assembler parser.
    assert main(["status", "0" * 32, "--url", "http://127.0.0.1:1"]) == 1
    assert "could not reach the service" in capsys.readouterr().err


def test_cli_serve_verb_has_its_own_parser(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--no-such-flag"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_assembles_fastq_pair(tmp_path, capsys):
    from repro.dna import simulate_paired_dataset, write_paired_fastq

    _genome, pairs = simulate_paired_dataset(
        4_000, coverage=15, insert_size_mean=300.0, insert_size_std=25.0, seed=6
    )
    path1, path2 = tmp_path / "r_1.fastq", tmp_path / "r_2.fastq"
    write_paired_fastq(pairs, path1, path2)
    assert (
        main(
            [
                "--fastq-pair",
                str(path1),
                str(path2),
                "-k",
                "17",
                "--scaffold",
                "--workers",
                "2",
                "--quiet",
            ]
        )
        == 0
    )
    assert "scaffolds=" in capsys.readouterr().out


def test_cli_run_dir_writes_span_tree(tmp_path, capsys):
    from repro.telemetry import NoopTracer, get_tracer

    run_dir = tmp_path / "run"
    trace_path = run_dir / "trace.json"
    assert (
        main(
            [
                "--simulate", "1500", "-k", "15", "--workers", "2",
                "--run-dir", str(run_dir),
            ]
        )
        == 0
    )
    assert "wrote run directory" in capsys.readouterr().out
    # The run's tracer is scoped to the run: the process default stays no-op.
    assert isinstance(get_tracer(), NoopTracer)

    import json

    payload = json.loads(trace_path.read_text())
    root = payload["trace"]
    assert root["name"] == "assemble"
    assert root["attributes"]["k"] == 15
    (workflow,) = root["children"]
    assert workflow["name"] == "workflow:ppa-assembly"
    stage_names = [child["name"] for child in workflow["children"]]
    assert "stage:dbg-construction" in stage_names


def test_cli_log_json_emits_structured_lines(tmp_path, capsys):
    import json
    import logging

    assert (
        main(
            ["--simulate", "1500", "-k", "15", "--quiet", "--log-json",
             "--log-level", "debug"]
        )
        == 0
    )
    handler = logging.getLogger().handlers[0]
    try:
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "structured", (), None
        )
        entry = json.loads(handler.format(record))
        assert entry["message"] == "structured"
        assert logging.getLogger().level == logging.DEBUG
    finally:
        logging.getLogger().removeHandler(handler)
        logging.getLogger().setLevel(logging.WARNING)


def test_cli_rejects_unknown_log_level(capsys):
    with pytest.raises(SystemExit):
        main(["--simulate", "1000", "--log-level", "chatty"])
    assert "unknown log level" in capsys.readouterr().err


def test_cli_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro-assemble {__version__}"


def test_cli_run_dir_writes_timeline_and_stays_scoped(tmp_path, capsys):
    from repro.telemetry import NullTimeline, get_timeline, read_timeline

    run_dir = tmp_path / "run"
    path = run_dir / "timeline.jsonl"
    assert (
        main(
            ["--simulate", "1500", "-k", "15", "--workers", "2",
             "--run-dir", str(run_dir)]
        )
        == 0
    )
    assert "wrote run directory" in capsys.readouterr().out
    # The run's recorder is scoped to the run: the default stays inert.
    assert isinstance(get_timeline(), NullTimeline)

    events = read_timeline(path)
    kinds = {event["kind"] for event in events}
    assert {"superstep", "stage-start", "stage-end", "sample"} <= kinds
    timestamps = [event["ts"] for event in events]
    assert timestamps == sorted(timestamps)


def test_cli_profile_writes_folded_stacks_and_hotspots(tmp_path, capsys):
    import json

    run_dir = tmp_path / "run"
    folded = run_dir / "profile.folded"
    metrics = run_dir / "metrics.json"
    assert (
        main(
            ["--simulate", "1500", "-k", "15", "--workers", "2",
             "--profile", "--run-dir", str(run_dir)]
        )
        == 0
    )
    assert "wrote run directory" in capsys.readouterr().out
    lines = folded.read_text().splitlines()
    assert lines and all(line.rpartition(" ")[2].isdigit() for line in lines)
    assert any(line.startswith("stage:dbg-construction;") for line in lines)

    payload = json.loads(metrics.read_text())
    assert payload["profile"]["hotspots"]
    assert payload["profile"]["functions_profiled"] > 0
    assert payload["memory"]["peak_rss_bytes"] > 0


def test_cli_report_verb_renders_run_directory(tmp_path, capsys):
    import xml.etree.ElementTree as ET

    run_dir = tmp_path / "run"
    assert (
        main(
            ["--simulate", "1500", "-k", "15", "--workers", "2", "--quiet",
             "--run-dir", str(run_dir)]
        )
        == 0
    )
    capsys.readouterr()

    output = tmp_path / "report.html"
    assert main(["report", str(run_dir), "-o", str(output)]) == 0
    assert "wrote report to" in capsys.readouterr().out
    html = output.read_text()
    ET.fromstring(html)  # well-formed (void tags closed, attrs quoted)
    assert "Span waterfall" in html
    assert "Resident set size" in html


def test_cli_report_verb_with_nothing_to_report_fails(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["report", str(tmp_path), "-o", str(tmp_path / "r.html")])
    assert "nothing to report on" in capsys.readouterr().err


def test_cli_gzipped_fastq_fails_typed(tmp_path, capsys):
    import gzip

    path = tmp_path / "reads.fq.gz"
    with gzip.open(path, "wt", encoding="ascii") as handle:
        handle.write("@r\nACGT\n+\nIIII\n")
    assert main(["--fastq", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "failed to load reads: input is gzip-compressed" in err


def test_cli_non_ascii_fastq_fails_typed(tmp_path, capsys):
    path = tmp_path / "reads.fastq"
    path.write_bytes("@r\nACGT\n+\nIIII\n@ré\nACGT\n+\nIIII\n".encode("utf-8"))
    assert main(["--fastq", str(path), "--quiet"]) == 1
    assert "failed to load reads: non-ASCII byte 0xc3" in capsys.readouterr().err
