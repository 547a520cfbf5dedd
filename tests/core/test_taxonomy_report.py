"""Unit tests for the taxonomy registry and report formatting."""

import pytest

from repro.core import (PARTITIONING_GOALS, SYSTEMS, format_series,
                        format_table, table1_rows, table3_rows, table5_rows)


class TestTaxonomy:
    def test_twenty_four_systems(self):
        assert len(SYSTEMS) == 24

    def test_table1_matches_paper_examples(self):
        rows = {r["system"]: r for r in table1_rows()}
        assert rows["DGL"]["year"] == 2019
        assert rows["PaGraph"]["partition"] == "Streaming"
        assert rows["PaGraph"]["cache"] == "yes"
        assert rows["DistDGL"]["partition"] == "Metis-extend"
        assert rows["Sancus"]["train"] == "Full-batch"
        assert rows["SALIENT++"]["transfer"] == "GPU direct access"
        assert rows["BGL"]["pipeline"] == "yes"

    def test_full_batch_systems_do_not_sample(self):
        for system in SYSTEMS:
            if system.sample_method == "N/A":
                assert not system.sample

    def test_mini_batch_systems_sample(self):
        minibatch = [s for s in SYSTEMS if s.train_method == "Mini-batch"]
        assert all(s.sample for s in minibatch)

    def test_platform_queries(self):
        cpu = [s for s in SYSTEMS if "cpu-cluster" in s.platform.lower()]
        assert {s.name for s in cpu} >= {"AliGraph", "AGL", "DistDGL",
                                         "DistGNN", "ByteGNN"}

    def test_cache_systems(self):
        names = {s.name for s in SYSTEMS if s.cache}
        assert names == {"PaGraph", "GNNLab", "Sancus", "Legion",
                         "SALIENT++", "BGL"}

    def test_table3_goals(self):
        rows = {r["method"]: r for r in table3_rows()}
        assert rows["Hash"]["goals"] == ["G2", "G4"]
        assert "G1" in rows["Metis-V"]["goals"]
        assert len(rows) == 6
        assert set(PARTITIONING_GOALS) == {"G1", "G2", "G3", "G4"}

    def test_table5_defaults(self):
        rows = {r["system"]: r for r in table5_rows()}
        assert rows["PaGraph"]["batch_size"] == 6000
        assert rows["BNS-GCN"]["sampling_rate"] == 0.1
        assert rows["ByteGNN"]["batch_size"] == 512


class TestReport:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_handles_none_and_bool(self):
        text = format_table([{"x": None, "y": True}])
        assert "N/A" in text and "yes" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_title(self):
        text = format_table([{"a": 1}], title="Table X")
        assert text.startswith("Table X")

    def test_format_series(self):
        text = format_series([(0.5, 0.9)], label="acc", x_name="t",
                             y_name="acc")
        assert "[acc]" in text and "t=" in text
