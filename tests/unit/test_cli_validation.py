"""CLI argument validation and the machine-readable --json output."""

import json

import pytest

from repro.cli import main


def expect_clean_rejection(capsys, argv, fragment):
    """argparse must exit 2 with a one-line error, not a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err


class TestNumericValidation:
    def test_zero_data_mib(self, capsys):
        expect_clean_rejection(
            capsys, ["run", "regular", "--data-mib", "0"], "must be positive"
        )

    def test_negative_gpu_mem(self, capsys):
        expect_clean_rejection(
            capsys, ["run", "regular", "--gpu-mem-mib", "-5"], "must be positive"
        )

    def test_zero_batch_size(self, capsys):
        expect_clean_rejection(
            capsys, ["run", "regular", "--batch-size", "0"], "must be positive"
        )

    def test_threshold_out_of_range(self, capsys):
        expect_clean_rejection(
            capsys, ["run", "regular", "--threshold", "0"], "must be in 1..100"
        )
        expect_clean_rejection(
            capsys, ["run", "regular", "--threshold", "101"], "must be in 1..100"
        )

    def test_non_integer(self, capsys):
        expect_clean_rejection(
            capsys, ["run", "regular", "--data-mib", "lots"], "expected an integer"
        )

    def test_negative_vablock(self, capsys):
        expect_clean_rejection(
            capsys, ["run", "regular", "--vablock-kib", "-1"], "must be >= 0"
        )

    def test_compare_and_trace_share_validation(self, capsys):
        expect_clean_rejection(
            capsys,
            ["compare", "regular", "--vs", "no-prefetch", "--data-mib", "-2"],
            "must be positive",
        )
        expect_clean_rejection(
            capsys, ["trace", "regular", "--gpu-mem-mib", "0"], "must be positive"
        )

    def test_valid_args_still_run(self, capsys):
        assert main(["run", "regular", "--data-mib", "4", "--gpu-mem-mib", "32"]) == 0


class TestServeDirectoryValidation:
    """``uvmrepro serve`` must exit 2 on unusable directories, not crash
    later from inside a worker or the journal."""

    def test_store_dir_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["serve", "--store-dir", str(blocker / "store")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "uvmrepro serve: error:" in err
        assert "not writable" in err
        assert "Traceback" not in err

    def test_journal_path_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(
            [
                "serve",
                "--store-dir", str(tmp_path / "store"),
                "--journal-path", str(blocker / "journal.jsonl"),
            ]
        )
        assert rc == 2
        assert "journal" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_mode_emits_result_document(self, capsys):
        rc = main(
            ["run", "regular", "--data-mib", "4", "--gpu-mem-mib", "32", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["doc_version"] == 2
        assert doc["total_time_ns"] > 0
        assert doc["meta"]["workload"] == "regular"
        assert "preprocess" in doc["breakdown"]["rows_ns"]
        assert "service.map" in doc["service_breakdown"]["rows_ns"]
        assert doc["counters"]["faults.read"] > 0
        assert doc["dma"]["h2d_bytes"] > 0
        assert doc["config"]["driver"]["prefetch_enabled"] is True

    def test_json_matches_text_mode_totals(self, capsys):
        argv = ["run", "random", "--data-mib", "4", "--gpu-mem-mib", "32"]
        assert main(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        text = capsys.readouterr().out
        total_us = doc["total_time_ns"] / 1000.0
        assert f"total simulated time: {total_us:,.1f} us" in text
