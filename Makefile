# Developer entry points.  Everything runs from the source tree
# (PYTHONPATH=src), no install required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast lint smoke chaos crashfuzz verify bench bench-table

## full tier-1 test suite
test:
	$(PYTHON) -m pytest -q

## quick inner-loop subset (everything not marked slow/chaos/verify)
test-fast:
	$(PYTHON) -m pytest -q -m fast

## correctness battery: verify-marked tests (50-arch differential
## acceptance, full gradient suite, resume fingerprints) plus the CLI
## battery, which appends its matrix to VERIFY_report.json
verify:
	$(PYTHON) -m pytest -q -m verify
	$(PYTHON) -m repro.verify all --output VERIFY_report.json

## static hygiene: import-cycle check over src/repro (stdlib, always
## runs), the ≤60-line function budget over the search-runtime seam
## modules, byte-compile sanity, and ruff (skipped with a notice when
## the environment doesn't ship it — config lives in pyproject.toml)
lint:
	$(PYTHON) tools/check_imports.py
	$(PYTHON) tools/check_runtime_shape.py
	$(PYTHON) -m compileall -q src tools
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tools; \
	else \
		echo "lint: ruff not installed; skipped (cycle + compile checks ran)"; \
	fi

## pre-merge smoke check: lint gate + tabular-benchmark smoke + core
## NN/RL tests + the eager-vs-compiled differential pass (appended to
## VERIFY_report.json) + the fault matrix and the numerical health-layer
## profile + a one-second timing pass of the repo benchmark (exit 1 on a
## failed benchmark check) + a bounded crash-point fuzzing pass
## (a3c/ambs/evolution on serial)
smoke: lint bench-table
	$(PYTHON) -m pytest -q tests/test_nn_graph.py tests/test_nn_training.py \
		tests/test_rl_ppo.py
	$(PYTHON) -m repro.verify report --per-space 8 --output VERIFY_report.json
	$(PYTHON) -m repro.search.chaos --profile faults --minutes 10 --tolerance 0.10
	$(PYTHON) -m repro.search.chaos --profile numeric --minutes 40
	$(PYTHON) e2ebench/run.py --workload sim --seed 1 --seconds 1
	$(PYTHON) -m repro.search.chaos --profile crashpoint \
		--methods a3c,ambs,evolution --backends serial --points 1

## tabular-benchmark smoke: sweep a tiny capped Combo sub-space into a
## resumable arch→metrics table (repro.bench), re-enter it to prove the
## resume path, then replay seeded searches of every method family
## (a3c/rdm/ambs/evolution) against the table and print the
## exact-regret comparison (docs/benchmark.md)
bench-table:
	rm -rf .bench_table
	$(PYTHON) -m repro.bench sweep --problem combo --cap-ops 2 --cap 128 \
		--out .bench_table --backend process --workers 2 --shard-size 64
	$(PYTHON) -m repro.bench sweep --problem combo --cap-ops 2 --cap 128 \
		--out .bench_table --backend process --workers 2 --shard-size 64
	$(PYTHON) -m repro.bench info .bench_table
	$(PYTHON) -m repro.bench compare .bench_table \
		--methods a3c,rdm,ambs,evolution --runs 2 --minutes 10 \
		--agents 2 --workers 3 --population 8 --tournament 3

## fault-matrix smoke: seeded fault injection at several failure rates,
## bounded reward degradation, the numerical health-layer profile
## (NaN gradients, exploding updates, corrupt deltas under guard-mode
## recover), and the real-process supervision profile (SIGKILLed
## workers, crashing/hanging evals); then the chaos-, health- and
## proc-marked pytest suites
chaos:
	$(PYTHON) -m repro.search.chaos --profile all
	$(PYTHON) -m pytest -q -m "chaos or health or proc or crashfuzz"

## crash-point fuzzing: SIGKILL a journaled search subprocess at
## stratified journal records, resume from the write-ahead journal, and
## assert bit-identical fingerprints with zero re-evaluated
## architectures (docs/robustness.md); then the crashfuzz pytest tier
crashfuzz:
	$(PYTHON) -m repro.search.chaos --profile crashpoint
	$(PYTHON) -m pytest -q -m crashfuzz

## repro benchmark (e2ebench/README.md): every workload end to end plus
## the traced per-layer run; exit 1 on a failed benchmark check
bench:
	$(PYTHON) e2ebench/run.py --workload all --seed 1 --trace 1
