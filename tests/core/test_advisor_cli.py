"""Unit tests for the configuration advisor and the CLI."""

import numpy as np
import pytest

from repro.cli import _note_unpinned_blas, build_parser, main
from repro.core import TrainingConfig, advise
from repro.graph import load_dataset


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def skewed():
    return load_dataset("amazon", scale=0.25)


@pytest.fixture(scope="module")
def flat():
    return load_dataset("ogb-papers", scale=0.25)


class TestAdvisor:
    def test_covers_all_topics(self, skewed):
        report = advise(skewed)
        topics = {r.topic for r in report.recommendations}
        assert topics >= {"partitioner", "batch_schedule",
                          "batch_selection", "sampler", "transfer",
                          "cache_policy", "pipeline"}

    def test_reasons_cite_sections(self, skewed):
        report = advise(skewed)
        assert all("§" in r.reason for r in report.recommendations)

    def test_power_law_gets_hybrid_and_degree_cache(self, skewed):
        report = advise(skewed)
        assert report.choice("sampler") == "hybrid"
        assert report.choice("cache_policy") == "degree"

    def test_flat_graph_gets_presample_cache(self, flat):
        report = advise(flat)
        assert report.choice("sampler") == "fanout"
        assert report.choice("cache_policy") == "presample"

    def test_single_machine_prefers_hash(self, skewed):
        report = advise(skewed, num_workers=1)
        assert report.choice("partitioner") == "hash"

    def test_multi_machine_prefers_metis_vet(self, skewed):
        report = advise(skewed, num_workers=4)
        assert report.choice("partitioner") == "metis-vet"

    def test_missing_topic_returns_none(self, skewed):
        assert advise(skewed).choice("quantum") is None

    def test_config_kwargs_apply(self, skewed):
        kwargs = advise(skewed).as_config_kwargs()
        config = TrainingConfig(**kwargs)
        assert config.partitioner == "metis-vet"
        assert config.transfer == "zero-copy"
        # The recommended components must be buildable.
        config.build_partitioner()
        config.build_sampler()
        config.build_transfer()


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["datasets"])
        assert args.command == "datasets"

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "reddit" in out and "ogb-papers" in out

    def test_systems_command(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "PaGraph" in out and "SALIENT++" in out

    def test_advise_command(self, capsys):
        assert main(["advise", "amazon", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "[sampler] hybrid" in out

    def test_partition_command(self, capsys):
        assert main(["partition", "ogb-arxiv", "--scale", "0.25",
                     "--methods", "hash"]) == 0
        out = capsys.readouterr().out
        assert "edge cut" in out

    def test_train_command(self, capsys, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        code = main(["train", "ogb-arxiv", "--scale", "0.25",
                     "--epochs", "2", "--workers", "2",
                     "--batch-size", "128", "--fanout", "4", "4"])
        assert code == 0
        captured = capsys.readouterr()
        assert "best val accuracy" in captured.out
        # Nothing caps the BLAS pool: the command says so, once, on
        # stderr, and the summary on stdout is untouched.
        assert captured.err.count("note:") == 1
        assert "OPENBLAS_NUM_THREADS=1" in captured.err
        assert "note:" not in captured.out

    @pytest.mark.parametrize("pinned", BLAS_THREAD_VARIABLES)
    def test_blas_note_is_silent_when_a_variable_is_set(
            self, pinned, capsys, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv(pinned, "2")
        _note_unpinned_blas()
        assert capsys.readouterr().err == ""

    def test_blas_note_is_silent_on_one_cpu(self, capsys, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        _note_unpinned_blas()
        assert capsys.readouterr().err == ""

    def test_train_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["train", "imagenet"])


class TestReproduceCommand:
    def test_runs_benchmarks_and_writes_report(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_tiny.py").write_text(
            'print("hello from tiny bench")\n')
        out = tmp_path / "report.md"
        code = main(["reproduce", "--benchmarks-dir", str(bench_dir),
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "bench_tiny.py" in text
        assert "hello from tiny bench" in text

    def test_failure_recorded_and_nonzero_exit(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_broken.py").write_text(
            'raise SystemExit("boom")\n')
        out = tmp_path / "report.md"
        code = main(["reproduce", "--benchmarks-dir", str(bench_dir),
                     "--out", str(out)])
        assert code == 1
        assert "FAILED" in out.read_text()

    def test_missing_dir(self, tmp_path, capsys):
        assert main(["reproduce", "--benchmarks-dir",
                     str(tmp_path / "nope")]) == 1

    def test_filter_matches_nothing(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_a.py").write_text("print('a')\n")
        assert main(["reproduce", "--benchmarks-dir", str(bench_dir),
                     "--only", "zzz"]) == 1
