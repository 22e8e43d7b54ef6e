# Convenience targets for the DCDB reproduction.

PYTHON ?= python

# Seeds driving the deterministic chaos suite; override to reproduce a
# failing schedule: make chaos CHAOS_SEEDS=42
CHAOS_SEEDS ?= 101,202,303,404,505

.PHONY: install test metrics-smoke trace-smoke chaos chaos-durability chaos-rebalance bench bench-query bench-rollup bench-transport bench-durability bench-rebalance bench-baseline bench-compare bench-check experiments examples loc all

install:
	pip install -e .

test: metrics-smoke trace-smoke chaos chaos-durability chaos-rebalance bench-query bench-rollup bench-transport bench-durability bench-rebalance bench-check
	$(PYTHON) -m pytest tests/

# Boot an in-process pusher->agent pipeline and validate the /metrics
# exposition of both REST APIs; fails on malformed Prometheus output
# or on drift between the docs catalogue and the runtime families.
metrics-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.metrics_smoke

# Step a simulated cluster with tracing on and assert a complete
# (>= 5 span) distributed trace is retrievable via GET /traces.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.trace_smoke

# Seeded fault-injection suite (kill/restart mid-ingest, flaky flushes,
# broker disconnects).  See docs/resilience.md.
chaos:
	PYTHONPATH=src CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTHON) -m pytest \
		tests/storage/test_faults.py tests/integration/test_chaos.py

# Durability chaos battery: kill -9 mid-ingest under fsync=always
# (zero acked-write loss, bit-identical recovery fingerprints per
# seed), torn WAL tails, flipped CRC bytes, disk-fault injection.
# See docs/durability.md.
chaos-durability:
	PYTHONPATH=src CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTHON) -m pytest \
		tests/storage/test_durable.py tests/storage/test_durable_codecs.py \
		tests/integration/test_chaos_durability.py

# Elastic-membership chaos battery: double/drain a cluster mid-ingest
# with a source killed at an exact chunk boundary of the rebalance
# stream (zero acked-reading loss, bit-identical reads before/during/
# after, moved bytes <= 1.25x the theoretical minimum).  See the
# "Cluster operations" runbook in docs/deployment.md.
chaos-rebalance:
	PYTHONPATH=src CHAOS_SEEDS=$(CHAOS_SEEDS) $(PYTHON) -m pytest \
		tests/storage/test_membership.py \
		tests/integration/test_chaos_rebalance.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Single-round smoke over the read-path benchmarks: correctness of the
# pruned/batched/parallel query paths without timing anything (the
# speedup gates only arm when benchmarking is enabled), so it is cheap
# enough to ride along with every `make test`.
bench-query:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_query_path.py \
		--benchmark-disable

# Single-round smoke over the transport fan-in benchmark (200 pushers
# against the event-loop broker, correctness only — the >= 2x gate vs
# the in-test thread-per-client reference arms under `make bench`).
bench-transport:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_transport.py \
		--benchmark-disable

# Single-round smoke over the rollup-tier dashboard-burst benchmark
# (tier-served aggregates are asserted bit-identical to raw-computed
# ones in every mode; the >= 5x p99 gate arms under `make bench`).
bench-rollup:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_rollup_path.py \
		--benchmark-disable

# Record the microbenchmark baselines as pytest-benchmark JSON, one
# committed BENCH_<suite>.json per suite, so regressions show up as a
# diff against the recorded numbers; raw per-round samples are stripped
# to keep the committed files small.  The suites: ingest (batched
# ingest path), query (segment pruning, cluster query_many, parallel
# subtree scan, batched virtual sensors), transport (event-loop fan-in
# throughput), rollup (tier-served dashboard-burst p99), durability
# (durable-ingest overhead, facility-data compression ratio, cold-
# window pruning speedup, seal encode) and rebalance (live-rebalance
# moved volume and mid-rebalance ingest overhead).  Refresh a subset
# with e.g. `make bench-baseline BENCH_SUITES=durability`.
BENCH_SUITES ?= ingest query transport rollup durability rebalance
BENCH_FILES_ingest = benchmarks/test_microbench_components.py \
	benchmarks/test_microbench_backends.py
BENCH_FILES_query = benchmarks/test_query_path.py
BENCH_FILES_transport = benchmarks/test_transport.py
BENCH_FILES_rollup = benchmarks/test_rollup_path.py
BENCH_FILES_durability = benchmarks/test_durability.py
BENCH_FILES_rebalance = benchmarks/test_rebalance.py
STRIP_SAMPLES = import json, sys; p = sys.argv[1]; d = json.load(open(p)); \
	[b['stats'].pop('data', None) for b in d['benchmarks']]; \
	json.dump(d, open(p, 'w'), indent=1, sort_keys=True)

bench-baseline:
	set -e; $(foreach suite,$(BENCH_SUITES), \
		PYTHONPATH=src $(PYTHON) -m pytest $(BENCH_FILES_$(suite)) \
			--benchmark-only --benchmark-json=BENCH_$(suite).json; \
		$(PYTHON) -c "$(STRIP_SAMPLES)" BENCH_$(suite).json;)

# Single-round smoke over the durability benchmarks: the compression-
# ratio floor and the bounded-memory block-cache scan are asserted in
# every mode; the <= 1.6x durable-vs-memory ingest gate and the >= 3x
# cold-window pruning gate arm under `make bench`.
bench-durability:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_durability.py \
		--benchmark-disable

# Single-round smoke over the live-rebalance benchmarks: the moved-
# volume minimum and the zero-loss mid-rebalance ingest are asserted
# in every mode; the ingest-slowdown gate arms under `make bench`.
bench-rebalance:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_rebalance.py \
		--benchmark-disable

# Run the full benchmark suite and diff the gated stats (best-of wall
# time plus the machine-independent *_x / *_ratio extra_info values)
# against the committed BENCH_*.json baselines; fails on any >25%
# regression.  Refresh the baselines with `make bench-baseline`.
bench-compare:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=.bench_fresh.json
	PYTHONPATH=src $(PYTHON) -m repro.tools.bench_compare .bench_fresh.json
	rm -f .bench_fresh.json

# Structural smoke over the committed baselines (they parse, carry
# stats, and name only benchmarks that still collect) — rides along
# with `make test` so a renamed benchmark cannot strand its baseline.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.tools.bench_compare --check

# Regenerate every paper table/figure with the result tables printed.
experiments:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/facility_monitoring.py
	$(PYTHON) examples/application_characterization.py
	$(PYTHON) examples/scalable_cluster.py
	$(PYTHON) examples/online_analytics.py
	$(PYTHON) examples/self_monitoring.py

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

all: test bench
