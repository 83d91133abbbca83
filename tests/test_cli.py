"""End-to-end tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def raw_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "raw.log"
    rc = main(
        [
            "generate",
            "--system",
            "SDSC",
            "--scale",
            "0.2",
            "--weeks",
            "12",
            "--seed",
            "4",
            "--output",
            str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def clean_log(raw_log, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "clean.log"
    rc = main(["preprocess", str(raw_log), "--output", str(path)])
    assert rc == 0
    return path


class TestGenerate:
    def test_writes_loghub_format(self, raw_log):
        lines = raw_log.read_text().splitlines()
        assert len(lines) > 100
        fields = lines[0].split()
        assert fields[6] == "RAS"

    def test_clean_flag(self, tmp_path, capsys):
        path = tmp_path / "clean_gen.log"
        rc = main(
            [
                "generate", "--system", "ANL", "--scale", "0.1",
                "--weeks", "4", "--clean", "--output", str(path),
            ]
        )
        assert rc == 0
        assert "clean (categorized)" in capsys.readouterr().out
        assert path.exists()


class TestPreprocess:
    def test_compresses(self, raw_log, clean_log):
        n_raw = len(raw_log.read_text().splitlines())
        n_clean = len(clean_log.read_text().splitlines())
        assert 0 < n_clean < n_raw / 5

    def test_reports_stats(self, raw_log, tmp_path, capsys):
        out = tmp_path / "c.log"
        main(["preprocess", str(raw_log), "--output", str(out)])
        text = capsys.readouterr().out
        assert "compression" in text
        assert "0 skipped" in text


class TestPreprocessGolden:
    """``repro preprocess`` on a small seeded ANL raw trace: the counts
    line and the clean log are pinned byte for byte.  The clean log keeps
    the raw log's epochs."""

    COUNTS = (
        "parsed 18728 records (0 skipped); categorized 18728 "
        "(5 fake fatals demoted); filtered to 160 events (99.1% compression)"
    )
    CLEAN_SHA256 = (
        "ef37ecdadc5bf94e27d8a9c69ad903e890e9385d8b8707a14aae2b0cd4e60822"
    )

    def test_counts_and_clean_log(self, tmp_path, capsys):
        raw, clean = tmp_path / "anl-raw.log", tmp_path / "anl-clean.log"
        rc = main(
            [
                "generate", "--system", "ANL", "--scale", "0.05",
                "--weeks", "6", "--seed", "2", "--output", str(raw),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["preprocess", str(raw), "--output", str(clean)]) == 0
        out = capsys.readouterr().out
        assert out == f"{self.COUNTS} -> {clean}\n"
        digest = hashlib.sha256(clean.read_bytes()).hexdigest()
        assert digest == self.CLEAN_SHA256


class TestPreprocessEpochs:
    """A parsed log is written back with its own epochs, so preprocessing
    is a fixed point on its own output."""

    @staticmethod
    def _epochs(path):
        return [line.split()[1] for line in path.read_text().splitlines()]

    def test_round_trip_keeps_every_epoch(self, raw_log, clean_log, tmp_path):
        again = tmp_path / "again.log"
        assert main(["preprocess", str(clean_log), "--output", str(again)]) == 0
        clean = self._epochs(clean_log)
        assert set(clean) <= set(self._epochs(raw_log))
        assert self._epochs(again) == clean
        assert again.read_text() == clean_log.read_text()


class TestTrainPredict:
    def test_train_writes_rule_json(self, clean_log, tmp_path):
        rules = tmp_path / "rules.json"
        rc = main(["train", str(clean_log), "--output", str(rules)])
        assert rc == 0
        payload = json.loads(rules.read_text())
        assert payload["format_version"] == 1
        assert payload["n_rules"] == len(payload["records"])

    def test_predict_consumes_rules(self, clean_log, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        main(["train", str(clean_log), "--output", str(rules)])
        rc = main(
            ["predict", str(clean_log), "--rules", str(rules), "--verbose"]
        )
        assert rc == 0
        assert "warnings" in capsys.readouterr().out

    def test_train_no_reviser_keeps_all(self, clean_log, tmp_path, capsys):
        with_r = tmp_path / "with.json"
        without = tmp_path / "without.json"
        main(["train", str(clean_log), "--output", str(with_r)])
        main(["train", str(clean_log), "--no-reviser", "--output", str(without)])
        n_with = json.loads(with_r.read_text())["n_rules"]
        n_without = json.loads(without.read_text())["n_rules"]
        assert n_without >= n_with


class TestRun:
    def test_full_loop(self, tmp_path, capsys):
        log = tmp_path / "run.log"
        main(
            [
                "generate", "--system", "SDSC", "--scale", "0.5",
                "--weeks", "20", "--seed", "7", "--clean",
                "--output", str(log),
            ]
        )
        rc = main(
            [
                "run", str(log), "--initial-weeks", "12",
                "--retrain-weeks", "4",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "precision=" in text
        assert "weekly accuracy" in text

    def test_log_shorter_than_initial_training_is_a_usage_error(
        self, raw_log, capsys
    ):
        # raw_log spans 12 weeks; the default initial training is 26.
        rc = main(["run", str(raw_log)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: nothing to evaluate: ")
        assert "--initial-weeks 26" in captured.err


class TestSharding:
    def test_sharded_run_reports_per_shard(self, clean_log, capsys):
        rc = main(
            [
                "run", str(clean_log), "--shards", "2",
                "--initial-weeks", "2", "--retrain-weeks", "2",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "across 2 shard(s)" in text
        assert "shard shard-000:" in text
        assert "shard shard-001:" in text

    def test_shard_by_location_spawns_per_location_shards(
        self, clean_log, capsys
    ):
        rc = main(
            [
                "run", str(clean_log), "--shard-by", "location",
                "--initial-weeks", "2", "--retrain-weeks", "2",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "shard(s)" in text
        assert "shard R" in text  # location-keyed shard lines

    def test_fleet_run_then_recover_matches(self, clean_log, tmp_path, capsys):
        fleet = tmp_path / "fleet"
        args = [
            str(clean_log), "--shards", "2", "--fleet-dir", str(fleet),
            "--initial-weeks", "2", "--retrain-weeks", "2",
            "--journal-fsync", "never",
        ]
        rc = main(["run", *args, "--checkpoint-every", "50"])
        assert rc == 0
        first = capsys.readouterr().out
        assert (fleet / "manifest.json").exists()

        rc = main(["recover", *args])
        assert rc == 0
        captured = capsys.readouterr()
        assert "recovered fleet" in captured.err
        # nothing new to stream: the recovered fleet reports the same run
        assert captured.out == first

    def test_sharded_metrics_emits_labeled_series(self, clean_log, capsys):
        rc = main(
            [
                "metrics", str(clean_log), "--shards", "2",
                "--initial-weeks", "2", "--retrain-weeks", "2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 'service.events{shard="shard-000"}' in payload
        assert payload['service.events{shard="shard-000"}']["labels"] == {
            "shard": "shard-000"
        }
        assert list(payload) == sorted(payload)

    def test_sharding_conflicts_with_single_session_flags(
        self, clean_log, tmp_path, capsys
    ):
        with pytest.raises(SystemExit):
            main(
                [
                    "run", str(clean_log), "--shards", "2",
                    "--journal", str(tmp_path / "j"),
                ]
            )
        assert "cannot be combined" in capsys.readouterr().err

    def test_recover_requires_fleet_or_checkpoint_journal(
        self, clean_log, capsys
    ):
        with pytest.raises(SystemExit):
            main(["recover", str(clean_log)])
        assert "--fleet-dir" in capsys.readouterr().err

    def test_checkpoint_every_accepts_fleet_dir(self, clean_log, capsys):
        with pytest.raises(SystemExit):
            main(["run", str(clean_log), "--checkpoint-every", "10"])
        assert "--checkpoint-every requires" in capsys.readouterr().err


class TestMetrics:
    def test_emits_per_stage_breakdown(self, clean_log, capsys):
        rc = main(
            [
                "metrics", str(clean_log),
                "--initial-weeks", "6", "--retrain-weeks", "4",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        # Per-stage spans from the observe registry.
        assert payload["preprocess.run"]["count"] == 1
        assert payload["meta.train"]["count"] >= 1
        assert payload["reviser.revise"]["count"] >= 1
        assert payload["online.retrain"]["count"] >= 1
        assert payload["predictor.feed"]["count"] > 0
        # Per-learner training breakdown.
        for learner in ("association", "statistical", "distribution"):
            assert payload[f"meta.train.{learner}"]["count"] >= 1
        # Throughput counters.
        assert payload["online.events"]["value"] > 0
        assert payload["preprocess.events_in"]["value"] >= (
            payload["preprocess.events_out"]["value"]
        )

    def test_writes_output_file(self, clean_log, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(
            [
                "metrics", str(clean_log),
                "--initial-weeks", "6", "--retrain-weeks", "4",
                "--output", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "meta.train" in payload
        assert "wrote" in capsys.readouterr().out


class TestExperiment:
    def test_known_driver(self, capsys):
        rc = main(["experiment", "table3"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out

    def test_unknown_driver(self, capsys):
        rc = main(["experiment", "figure99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestStrictParsing:
    @pytest.fixture(scope="class")
    def dirty_log(self, clean_log, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "dirty.log"
        lines = clean_log.read_text().splitlines()
        lines.insert(len(lines) // 2, "\x00\x01 not a log line")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_lenient_run_surfaces_skip_report(self, dirty_log, capsys):
        rc = main(
            ["run", str(dirty_log), "--initial-weeks", "4",
             "--retrain-weeks", "4"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "skipped 1 malformed line" in err

    def test_strict_run_exits_nonzero(self, dirty_log, capsys):
        rc = main(
            ["run", str(dirty_log), "--strict", "--initial-weeks", "4",
             "--retrain-weeks", "4"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_strict_metrics_exits_nonzero(self, dirty_log, capsys):
        rc = main(["metrics", str(dirty_log), "--strict"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestCheckpointResume:
    def test_checkpoint_then_resume_completes_run(self, tmp_path, capsys):
        log = tmp_path / "ckpt_run.log"
        main(
            [
                "generate", "--system", "SDSC", "--scale", "0.3",
                "--weeks", "12", "--seed", "9", "--clean",
                "--output", str(log),
            ]
        )
        capsys.readouterr()  # discard the generate banner
        ckpt = tmp_path / "session.ckpt"
        rc = main(
            [
                "run", str(log), "--initial-weeks", "4",
                "--retrain-weeks", "4", "--checkpoint", str(ckpt),
                "--checkpoint-every", "500",
            ]
        )
        assert rc == 0
        assert ckpt.exists()
        first = capsys.readouterr().out
        assert "streamed" in first

        # resuming from the final checkpoint is a no-op replay: same totals
        rc = main(
            [
                "run", str(log), "--initial-weeks", "4",
                "--retrain-weeks", "4", "--resume", str(ckpt),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "resumed from" in captured.err
        assert captured.out == first

    def test_checkpoint_every_requires_checkpoint(self, clean_log, capsys):
        with pytest.raises(SystemExit):
            main(["run", str(clean_log), "--checkpoint-every", "100"])

    @pytest.mark.parametrize("bad", ["0", "-5", "many"])
    def test_nonpositive_checkpoint_every_rejected(self, clean_log, bad):
        """Nonsense checkpoint schedules exit 2, never stream."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", str(clean_log), "--checkpoint", "s.ckpt",
                 "--checkpoint-every", bad]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("bad", ["0", "-1", "sometimes", "1.5"])
    def test_invalid_journal_fsync_rejected(self, clean_log, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", str(clean_log), "--journal", "wal",
                 "--journal-fsync", bad]
            )
        assert excinfo.value.code == 2

    def test_journal_run_then_recover_matches(self, tmp_path, capsys):
        """An uninterrupted journaled run and a `repro recover` over its
        leftovers report identical totals."""
        log = tmp_path / "wal_run.log"
        main(
            [
                "generate", "--system", "SDSC", "--scale", "0.3",
                "--weeks", "12", "--seed", "11", "--clean",
                "--output", str(log),
            ]
        )
        capsys.readouterr()
        ckpt = tmp_path / "session.ckpt"
        wal = tmp_path / "wal"
        rc = main(
            [
                "run", str(log), "--initial-weeks", "4",
                "--retrain-weeks", "4", "--checkpoint", str(ckpt),
                "--checkpoint-every", "500", "--journal", str(wal),
                "--journal-fsync", "never",
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out
        assert "streamed" in first
        assert any(wal.iterdir())  # segments were written

        rc = main(
            [
                "recover", str(log), "--initial-weeks", "4",
                "--retrain-weeks", "4", "--checkpoint", str(ckpt),
                "--journal", str(wal),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "recovered from" in captured.err
        assert captured.out == first

    def test_recover_without_checkpoint_file_replays_journal(
        self, tmp_path, capsys
    ):
        """A crash before the first checkpoint leaves only the journal;
        recover starts fresh and replays the whole thing."""
        log = tmp_path / "wal_run.log"
        main(
            [
                "generate", "--system", "SDSC", "--scale", "0.2",
                "--weeks", "10", "--seed", "13", "--clean",
                "--output", str(log),
            ]
        )
        capsys.readouterr()
        wal = tmp_path / "wal"
        rc = main(
            [
                "run", str(log), "--initial-weeks", "4",
                "--retrain-weeks", "4", "--journal", str(wal),
                "--journal-fsync", "never",
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(
            [
                "recover", str(log), "--initial-weeks", "4",
                "--retrain-weeks", "4",
                "--checkpoint", str(tmp_path / "never-written.ckpt"),
                "--journal", str(wal),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "recovered from" in captured.err
        assert captured.out == first

    def test_resume_missing_checkpoint_is_clean_error(
        self, clean_log, tmp_path, capsys
    ):
        rc = main(
            ["run", str(clean_log), "--resume", str(tmp_path / "absent.ckpt")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_corrupt_checkpoint_is_clean_error(
        self, clean_log, tmp_path, capsys
    ):
        bad = tmp_path / "torn.ckpt"
        bad.write_text('{"format": "repro-session-ch')
        rc = main(["run", str(clean_log), "--resume", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
