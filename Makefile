# Developer chores for the MetaDSE reproduction.
#
#   make test            - tier-1 verification (the command ROADMAP.md pins)
#                          plus the docs consistency check; fails if the
#                          run changed the working tree (git status or the
#                          git diff checksum differ before and after)
#   make unit            - fast unit tests only (tests/)
#   make test-fast       - tests/ minus the `slow`-marked modules (quick
#                          inner-loop signal; full tier stays `make test`)
#   make bench           - regenerate the paper tables/figures (benchmarks/,
#                          includes the throughput benchmarks)
#   make bench-quality   - re-record only the deterministic quality artefacts:
#                          every benchmarks/test_*.py except *_throughput.py
#                          and *_overhead.py (a re-baseline that never
#                          rewrites timing artefacts with noise)
#   make bench-meta      - just the meta-training throughput benchmark
#   make bench-precision - just the float32-vs-float64 precision benchmark
#   make bench-dse       - just the cross-workload DSE campaign benchmark
#                          (the speed-up band skips below 4 cores)
#   make bench-runtime   - just the parallel campaign runtime benchmark
#                          (skips on machines with fewer than 4 cores)
#   make bench-kernels   - just the threaded inference-pass benchmark
#                          (skips on machines with fewer than 4 cores)
#   make bench-pruning   - just the attention-guided pruning benchmark
#   make bench-portfolio - just the strategy-portfolio quality benchmark
#   make bench-store     - just the persistent-store warm-start benchmark
#   make bench-trace     - just the tracing-overhead benchmark
#   make bench-repo      - the repository benchmark (perfbench/): pipeline,
#                          explore-nsga2 and explore-wide at SEED (default 1)
#   make bench-pairs     - PAIRS (default 10) alternating parent/change runs
#                          of one perfbench WORKLOAD (default explore-nsga2)
#                          at SEED, against PARENT=<checkout of the parent
#                          commit> (tools/bench_pairs.py): each side's
#                          median and quartiles, the change's wins, bound
#                          breaches, digest match, and with CLAIM=<metric>
#                          whether the gain counts (>= 9/10 wins and a
#                          median gap above the parent's IQR); fails on a
#                          failed repetition or a bound breach
#   make docs-check      - fail on dead intra-repo links / stale module refs
#                          / stale bare names / uncataloged
#                          benchmarks/results JSONs
#   make repo-check      - fail on git-tracked build/bytecode artifacts, on
#                          public names under src/repro that only tests/ call
#                          and on switches (None/True/False defaults) that
#                          only tests/ set (tools/check_repo.py; its
#                          allowlists name the reference oracles and the
#                          test seams)
#   make examples        - run every example script end to end
#
# Only the bench targets rewrite benchmarks/results/*.json (they export
# REPRO_RECORD_RESULTS=1); `make test` and plain pytest only assert bands.

PYTHON ?= python
SEED ?= 1
WORKLOAD ?= explore-nsga2
PAIRS ?= 10
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test unit test-fast bench bench-quality bench-meta bench-precision bench-dse bench-runtime bench-kernels bench-pruning bench-portfolio bench-store bench-trace bench-repo bench-pairs docs-check repo-check examples

bench: export REPRO_RECORD_RESULTS := 1
bench-%: export REPRO_RECORD_RESULTS := 1

test: docs-check repo-check
	@snapshot() { git status --porcelain --untracked-files=all; git diff | cksum; }; \
	scratch=$$(mktemp -d); snapshot > $$scratch/before 2>/dev/null; \
	echo "$(PYTHON) -m pytest -x -q"; $(PYTHON) -m pytest -x -q; status=$$?; \
	snapshot > $$scratch/after 2>/dev/null; \
	if ! diff -u $$scratch/before $$scratch/after; then \
		echo "tier-1 changed the working tree (git status / git diff checksum above)"; \
		status=1; \
	fi; \
	rm -rf $$scratch; exit $$status

# Includes the DSE engine-vs-reference equivalence tests
# (tests/test_dse_engine_equivalence.py) alongside the rest of tests/.
unit:
	$(PYTHON) -m pytest tests -q

# Skips the `slow`-marked modules (whole-protocol baselines, end-to-end
# pipelines); every equivalence/property suite still runs.
test-fast:
	$(PYTHON) -m pytest tests -q -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks -q

# Selected by name, not by list: a new timing benchmark is excluded as soon
# as it follows the *_throughput.py / *_overhead.py naming rule.
bench-quality:
	$(PYTHON) -m pytest $(filter-out %_throughput.py %_overhead.py,$(sort $(wildcard benchmarks/test_*.py))) -q

bench-meta:
	$(PYTHON) -m pytest benchmarks/test_meta_throughput.py -q

bench-precision:
	$(PYTHON) -m pytest benchmarks/test_precision_throughput.py -q

bench-dse:
	$(PYTHON) -m pytest benchmarks/test_dse_campaign_throughput.py -q

bench-runtime:
	$(PYTHON) -m pytest benchmarks/test_runtime_throughput.py -q

bench-kernels:
	$(PYTHON) -m pytest benchmarks/test_kernel_throughput.py -q

bench-pruning:
	$(PYTHON) -m pytest benchmarks/test_pruning_throughput.py -q

bench-portfolio:
	$(PYTHON) -m pytest benchmarks/test_portfolio_quality.py -q

bench-store:
	$(PYTHON) -m pytest benchmarks/test_store_throughput.py -q

bench-trace:
	$(PYTHON) -m pytest benchmarks/test_trace_overhead.py -q

bench-repo:
	@set -e; for workload in pipeline explore-nsga2 explore-wide; do \
		echo "== $$workload"; \
		python3 perfbench/run.py --workload $$workload --seed $(SEED) --seconds 20 --trace 0; \
	done

bench-pairs:
	@test -n "$(PARENT)" || { echo "bench-pairs needs PARENT=<checkout of the parent commit>"; exit 2; }
	python3 tools/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(PAIRS)$(if $(CLAIM), --claim $(CLAIM))

docs-check:
	$(PYTHON) tools/check_docs.py

repo-check:
	$(PYTHON) tools/check_repo.py

examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script; \
	done
