# Developer entry points.  `make test` is the tier-1 verification
# command (see ROADMAP.md); `make ci` is the fast lane the CI workflow
# runs on every push (lint + tier-1 fast lane + smoke) and `make
# ci-full` the nightly full lane (everything, plus the benchmark
# identity checks with the timing gates disabled).

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-batch test-build test-replication test-net \
	chaos-smoke bench-batch bench-build bench-serving bench-kernel \
	bench-load bench-storage bench-e2e-smoke bench-paper paper-smoke \
	profile-kernel profile-fit smoke \
	smoke-examples smoke-net smoke-migrate demo lint ci ci-full

# Tier-1: the full test suite, stop on first failure.
test:
	$(PYTHON) -m pytest -x -q

# Tier-1 fast lane: everything not marked slow (see pyproject.toml);
# the slow marker covers the heavyweight parity/integration suites.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Just the batched-engine tests (parity, edge cases, table build).
test-batch:
	$(PYTHON) -m pytest -x -q tests/test_batch_parity.py \
		tests/test_batch_edge_cases.py tests/test_batch_lookup.py

# Lockstep-construction parity (batched vs sequential builds).
test-build:
	$(PYTHON) -m pytest -x -q tests/test_build_parity.py

# The shard fleet: the one five-scenario parity matrix (tests/fleet.py)
# at replicas = 1 (test_shard_backends) and replicas = 2
# (test_replication), plus routing/failover/supervisor coverage.
test-replication:
	$(PYTHON) -m pytest -x -q tests/test_shard_backends.py \
		tests/test_replication.py

# Network tier: framing strictness, socket shard workers, the asyncio
# gateway, and the full socket-vs-in-process parity matrix (the slow
# markers cover the five-scenario subprocess matrix + SIGKILL chaos).
test-net:
	$(PYTHON) -m pytest -x -q tests/test_net.py

# The SIGKILL chaos gates alone (fast lane): kill a process worker
# under traffic.  replicas = 2: zero failed requests, bitwise-identical
# answers.  replicas = 1: typed ReplicaDied, never a padded answer.
# Either way the supervisor respawns the worker.  Correctness-gated,
# not timing-gated, so it is deterministic on a loaded 1-CPU runner.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/test_replication.py -k Chaos \
		-m "not slow"

# Single-vs-batch QPS on memory + hybrid scenarios (>= 3x gate).
bench-batch:
	cd benchmarks && $(PYTHON) -m pytest bench_batch_throughput.py -q

# Sequential-vs-lockstep build times (identity + >= 2.5x vamana gate).
bench-build:
	cd benchmarks && $(PYTHON) -m pytest bench_build.py -q

# Dynamic-batching serving QPS vs latency (determinism + >= 2x gate).
bench-serving:
	cd benchmarks && $(PYTHON) -m pytest bench_serving.py -q

# Kernel hot path: B=32 QPS on the memory scenario (recorded, not
# gated; batched answers == their rows answered one at a time, bitwise,
# always).  Emits BENCH_kernel.json, whose `retired` block keeps the
# vendored legacy kernel's and the table cache's last numbers.
bench-kernel:
	cd benchmarks && $(PYTHON) -m pytest bench_kernel.py -q

# Open-loop Poisson load sweep: QPS-vs-p99 frontier per backend config
# with knee/SLO gates (bitwise identity under load, zero drops, and
# exact accounting always assert; the knee-QPS and p99-at-half-knee
# gates honor REPRO_SKIP_SPEEDUP_GATES).  Emits BENCH_load.json.
bench-load:
	cd benchmarks && $(PYTHON) -m pytest bench_load.py -q

# Index storage: bytes-per-vector + cold-load timing of the one on-disk
# layout (five-scenario + sharded + replicated-fleet bitwise
# round-trips through a mapped load and the copy-on-write guard always
# assert; no timing gate).  Emits BENCH_storage.json, whose `retired`
# block keeps the v1 writer's, the int64-adjacency container's and the
# rANS-coded codes' last numbers.
bench-storage:
	cd benchmarks && $(PYTHON) -m pytest bench_storage.py -q

# The repo benchmark's own smoke lane (~35 s, part of `make ci`): every
# workload plus a traced run at toy sizes, driving the program only
# through its public surfaces — so a surface refactor that breaks the
# benchmark's frozen driver fails on push rather than at judging.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# The paper's evaluation: every row of repro.eval.paper.PAPER (§3
# Table 2, §4 Fig. 4, §8 Figs. 5-12 / Tables 4-7, the design ablation)
# run, rendered to benchmarks/results/<id>.txt and gated by its shape
# assertion — ~16 min on a 2-CPU box.
bench-paper:
	cd benchmarks && $(PYTHON) -m pytest bench_paper.py -q

# The two cheapest rows (~12 s each): the same runner, renderer and
# shape checks, cheap enough for the nightly full lane.
paper-smoke:
	cd benchmarks && $(PYTHON) -m pytest bench_paper.py -q \
		-k "table2 or design"

# Per-round kernel stage breakdown (gather/score/rank/truncate), rounds
# per call and us per round, for the memory and the hybrid scenario —
# the only entry point that turns the profiling hooks on.
profile-kernel:
	cd benchmarks && $(PYTHON) profile_kernel.py

# The set-up twin: an RPQ fit (and a PQ fit) at offline_batch's shape
# with exclusive seconds per stage (OPQ rotation, k-means++ seeding,
# Lloyd, warm start, feature sampling, training forward / backward) and
# expm / soft_reconstruct calls per optimizer step (~10 s).
profile-fit:
	cd benchmarks && $(PYTHON) profile_fit.py

# Static checks.  ruff ships via requirements-dev.txt (CI always has
# it); when it is missing locally the target skips instead of failing
# so `make ci` stays runnable in minimal environments.  The format
# check covers the serving layer and its tests/benchmarks (the
# incrementally-adopted formatted subset); `ruff check` covers
# everything.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check . && \
		$(PYTHON) -m ruff format --check src/repro/serving \
			src/repro/index src/repro/api/registry.py \
			src/repro/eval/workbench.py src/repro/eval/paper.py \
			src/repro/loadgen/frontier.py \
			src/repro/cli/shared.py src/repro/cli/experiment.py \
			benchmarks/bench_paper.py tests/test_paper.py \
			tests/test_sharded.py tests/test_batcher.py \
			tests/fleet.py tests/test_shard_backends.py \
			tests/test_replication.py tests/test_net.py \
			benchmarks/bench_serving.py scripts/smoke_net.py; \
	else \
		echo "ruff not installed; skipping lint (CI installs it)"; \
	fi

# End-to-end smoke: the quickstart example must run clean.
smoke:
	$(PYTHON) examples/quickstart.py

# Every example on tiny synthetic data (REPRO_SMOKE=1 shrinks dataset
# sizes and training epochs) — API drift in examples breaks the build.
smoke-examples:
	@set -e; for ex in examples/*.py; do \
		echo "== $$ex"; \
		REPRO_SMOKE=1 $(PYTHON) $$ex; \
	done

# Network smoke: 2 `repro serve-shard` workers + the asyncio gateway
# on localhost through the real CLI entry points — bitwise-identity
# round trip over the wire, then SIGTERM-drains with exit 0 all round.
smoke-net:
	$(PYTHON) scripts/smoke_net.py

# Migration smoke: `repro index migrate` on the committed format-1
# fixture, then `index describe`, a `serve-shard --dir` boot and one
# `index search --connect` against the result; then the committed
# int64-era format-2 directory migrated to int32 vertex ids (id
# sections exactly half, same `index search --dir` answer) — all
# through the real CLI, exit 0 all round.
smoke-migrate:
	$(PYTHON) scripts/smoke_migrate.py

# Fast lane — what CI runs on every push/PR (keep in lockstep with
# .github/workflows/ci.yml).  chaos-smoke is nominally a subset of
# test-fast, but naming it keeps the kill-a-replica gate explicit even
# if the replication tests are ever re-marked.
ci: lint test-fast chaos-smoke smoke-net smoke-migrate smoke-examples \
		bench-e2e-smoke

# Full lane — nightly CI: full tier-1 plus the benchmark identity /
# determinism checks and the two cheapest paper artifacts.  Speedup
# gates are timing-flaky on shared runners, so the nightly job sets
# REPRO_SKIP_SPEEDUP_GATES=1.
# (`test` already includes the slow replica and socket matrices;
# test-replication / test-net re-run them by name so a marker change
# can never silently drop them.)
ci-full: lint test test-replication test-net smoke-net smoke-migrate \
		smoke-examples bench-e2e-smoke paper-smoke
	cd benchmarks && REPRO_SMOKE=1 $(PYTHON) profile_fit.py
	cd benchmarks && $(PYTHON) -m pytest bench_batch_throughput.py \
		bench_build.py bench_serving.py bench_kernel.py \
		bench_load.py bench_storage.py -q

demo:
	$(PYTHON) -m repro.cli demo --batch-size 64
