# Developer entry points. `make verify` is the per-PR gate: the full
# tier-1 test suite, the obs selftest, the fast-path A/B selftest
# (paired error-bound check against the packet-level oracle), the
# component-ablation selftest (leave-one-out knob sweep with exact
# contract verification), the population-workload
# selftest (determinism, tail sanity, leak audit, <10 s), the overload
# selftest (flash-crowd metastability contrast: retry storm with
# protections off, bounded graceful degradation on, <10 s), then a quick
# perf smoke run (appends a row to BENCH_results.json), then the trajectory
# compare, which exits non-zero if any headline metric regressed more
# than 10 % against the previous full-size run.
#
# `make bench` runs the repository benchmark (perfbench/, see its
# README): every workload untraced at seeds 1 and 7919, then the traced
# `city` run whose gate cross-checks per-layer counts. About 3 minutes.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test obs fastpath-ab ablations2 population overload perf \
	perf-full compare experiments bench

BENCH_WORKLOADS := city figure3-sweep flash-crowd
BENCH_SEEDS := 1 7919

verify: test obs fastpath-ab ablations2 population overload perf compare

test:
	$(PYTHON) -m pytest -x -q

obs:
	$(PYTHON) -m repro.obs --selftest

fastpath-ab:
	$(PYTHON) -m repro.experiments.fastpath_ab --selftest

ablations2:
	$(PYTHON) -m repro.experiments.ablations2 --selftest

population:
	$(PYTHON) -m repro.experiments.population --selftest

overload:
	$(PYTHON) -m repro.experiments.overload --selftest

perf:
	$(PYTHON) -m repro.perf --quick

perf-full:
	$(PYTHON) -m repro.perf

compare:
	$(PYTHON) -m repro.perf --compare

experiments:
	$(PYTHON) -m repro.experiments.run_all

bench:
	@set -e; for workload in $(BENCH_WORKLOADS); do \
		for seed in $(BENCH_SEEDS); do \
			python3 perfbench/run.py --workload $$workload --seed $$seed \
				--trace 0; \
		done; \
	done
	python3 perfbench/run.py --workload city --seed 1 --trace 1
