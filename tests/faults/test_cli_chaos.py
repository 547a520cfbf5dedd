"""CLI surface: ``train`` argument validation and fault-tolerance
flags, ``repro bench faults``, and the fault bench driver's own input
validation."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import FaultError
from repro.faults import run_fault_bench


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
        ["train", "ogb-arxiv", "--batch-size", "large"],
        ["train", "ogb-arxiv", "--checkpoint-every", "0"],
        ["train", "ogb-arxiv", "--cache-budget", "1.5"],
        ["train", "ogb-arxiv", "--cache-hot-fraction", "-0.5"],
        ["train", "ogb-arxiv", "--cache-hot-fraction", "half"],
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

    def test_resume_from_a_corrupt_checkpoint_is_an_error_line(
            self, tmp_path, capsys):
        """A typed error, printed as one line; it used to end in a
        ``CheckpointIntegrityError`` traceback."""
        corrupt = tmp_path / "run.ckpt"
        corrupt.write_bytes(b"not a checkpoint")
        code = main(["train", "ogb-arxiv", "--scale", "0.1", "--epochs",
                     "1", "--checkpoint", str(corrupt), "--resume"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"\nerror: {corrupt} is not a repro checkpoint (bad " \
               f"magic)\n" in "\n" + err
        assert "Traceback" not in err


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
        args = parse(["bench", "faults"])
        assert args.name == "faults"
        assert not args.quick and not args.sanitize
        assert args.out is None and args.schedule is None

    def test_quick_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_faults.json"
        code = main(["bench", "faults", "--quick", "--out", str(out)])
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

    @pytest.mark.parametrize("sweep", [
        dict(epochs=0), dict(workers=0), dict(workers=-1),
        dict(halt_epoch=0), dict(halt_epoch=6), dict(halt_epoch=50)])
    def test_driver_rejects_bad_sweeps_before_any_work(self, sweep):
        """What the retired ``chaos`` flags checked in argparse (and
        ``--halt-epoch``, which nothing checked) is a typed error."""
        with pytest.raises(FaultError):
            run_fault_bench(dataset="no-such-dataset", **sweep)

    @pytest.mark.parametrize("spec", ["crash@1:wx", "straggler@0:w0:xfoo",
                                      "crash@1:w1.5", "crash@nan:w0"])
    def test_bad_schedule_is_an_error_line(self, spec, capsys):
        """A malformed ``--schedule`` field is a FaultError, printed as
        ``error:`` before anything trains — not a traceback."""
        code = main(["bench", "fleet-chaos", "--quick", "--schedule",
                     spec])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and spec in err
