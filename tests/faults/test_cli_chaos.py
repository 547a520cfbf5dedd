"""CLI surface: argument validation and the ``chaos``/``train``
fault-tolerance flags."""

import json

import pytest

from repro.cli import build_parser, main


def parse(argv):
    return build_parser().parse_args(argv)


class TestArgumentValidation:
    @pytest.mark.parametrize("argv", [
        ["train", "ogb-arxiv", "--cache-ratio", "1.5"],
        ["train", "ogb-arxiv", "--cache-ratio", "-0.1"],
        ["train", "ogb-arxiv", "--cache-ratio", "lots"],
        ["train", "ogb-arxiv", "--epochs", "0"],
        ["train", "ogb-arxiv", "--epochs", "-2"],
        ["train", "ogb-arxiv", "--epochs", "three"],
        ["train", "ogb-arxiv", "--workers", "0"],
        ["train", "ogb-arxiv", "--workers", "-3"],
        ["train", "ogb-arxiv", "--batch-size", "0"],
        ["serve-bench", "--train-epochs", "0"],
        ["serve-bench", "--requests", "0"],
        ["serve-bench", "--cache-ratios", "0.5", "2.0"],
        ["chaos", "--epochs", "0"],
        ["chaos", "--workers", "0"],
    ])
    def test_bad_values_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "ogb-arxiv", "--cache-ratio", "0.0"],
        ["train", "ogb-arxiv", "--cache-ratio", "1.0"],
        ["train", "ogb-arxiv", "--epochs", "1", "--workers", "1"],
    ])
    def test_boundary_values_accepted(self, argv):
        parse(argv)

    def test_resume_requires_checkpoint(self, capsys):
        code = main(["train", "ogb-arxiv", "--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestTrainFaultFlags:
    def test_defaults(self):
        args = parse(["train", "ogb-arxiv"])
        assert args.faults is None
        assert args.crash_policy == "redistribute"
        assert args.checkpoint is None
        assert args.checkpoint_every == 1
        assert not args.resume

    def test_fault_flags_parse(self):
        args = parse(["train", "ogb-arxiv", "--faults",
                      "straggler@1+3:w0:x4", "--crash-policy", "drop",
                      "--checkpoint", "/tmp/run.ckpt",
                      "--checkpoint-every", "2", "--resume"])
        assert args.faults == "straggler@1+3:w0:x4"
        assert args.crash_policy == "drop"
        assert args.checkpoint == "/tmp/run.ckpt"
        assert args.checkpoint_every == 2
        assert args.resume

    def test_unknown_crash_policy_rejected(self):
        with pytest.raises(SystemExit):
            parse(["train", "ogb-arxiv", "--crash-policy", "shrug"])


class TestChaosCommand:
    def test_parser_defaults(self):
        args = parse(["chaos"])
        assert args.dataset == "ogb-arxiv"
        assert args.epochs == 6
        assert args.workers == 4
        assert args.halt_epoch == 2
        assert args.out is None

    def test_quick_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_faults.json"
        code = main(["chaos", "--quick", "--out", str(out)])
        assert code == 0

        report = json.loads(out.read_text())
        assert report["halt_fired"] is True
        assert report["resume_exact"] is True
        assert report["plan_deterministic"] is True
        assert {row["scenario"] for row in report["scenarios"]} == {
            "straggler", "flaky", "slowlink", "crash-redistribute",
            "crash-drop"}

        stdout = capsys.readouterr().out
        assert "bit-identical: ok" in stdout
        assert "deterministic under fixed seed: ok" in stdout
