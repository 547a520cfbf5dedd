# Developer entry points. `make help` lists targets.

.PHONY: help install test lint bench bench-cache examples docs reproduce clean

help:
	@echo "install     editable install (falls back past missing wheel pkg)"
	@echo "test        run the unit/integration/property test suite"
	@echo "lint        the static analyzer (RPR per-file + ARC architectural rules)"
	@echo "bench       run every table/figure benchmark (includes serving)"
	@echo "bench-NAME  run one registered bench and rewrite BENCH_NAME.json"
	@echo "            (repro bench NAME: serve fleet faults fleet-chaos)"
	@echo "bench-cache run the tiered feature-cache benchmark alone"
	@echo "examples    run all runnable examples"
	@echo "docs        regenerate docs/api.md"
	@echo "reproduce   write reproduction_report.md from all benchmarks"

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# The static analyzer: per-file determinism & numerics rules (RPR) over
# every scanned file, architectural rules (ARC) over src/repro. Fails on
# any finding not marked `# repro: noqa`; the CI `lint` job runs the
# same gate and uploads the JSON report.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python -m repro lint --out lint_report.json

# The benchmarks are runnable scripts with a __main__ block (like the
# examples); `pytest --benchmark-only` can't collect them without the
# package importable, so run them the same way the examples target does.
# The glob includes the wrappers of the registered benches below, so
# `make bench` covers them at full size too.
bench:
	@for f in benchmarks/bench_*.py; do echo "== $$f"; \
	  PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python $$f || exit 1; done

# One registered bench (the table in src/repro/bench.py): runs the full
# sweep, prints its tables and checks, rewrites the tracked
# BENCH_<name>.json and exits nonzero on a violated check.  Runs arm
# the runtime sanitizers: they are behaviour-preserving (checks only),
# and a NaN or malformed CSR inside a benchmark should fail the run,
# not skew its numbers.
bench-%:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python -m repro bench $* --sanitize

# Tiered-cache sweep (policy x budget x Zipf skew, training + serving
# billing modes); its sweep lives in the script, its path rule and
# writer are the registry's.  No sanitizer flag: the sweep never runs
# a model.
bench-cache:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python benchmarks/bench_cache_tiers.py

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

docs:
	python tools/gen_api_docs.py

reproduce:
	python -m repro reproduce --out reproduction_report.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
