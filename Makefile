# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

# What CI runs: build, tests, documentation (odoc warnings are fatal,
# see the root dune file), and — when ocamlformat is available — a
# formatting check.
ci:
	dune build @all
	dune runtest
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	else \
	  echo "odoc not installed; skipping doc check"; \
	fi
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Chaos soak: replay the deterministic serve-layer soak (interleaved
# requests/mutations at fault rate 0.05, fail-closed + liveness
# assertions) under the CI chaos-soak job's three fixed seeds, then
# run the resilience bench once.
soak:
	@for seed in 1 7 20090101; do \
	  echo "== chaos soak, fault seed $$seed =="; \
	  XMLAC_FAULT_SEED=$$seed dune exec test/test_serve.exe -- test soak || exit 1; \
	done
	dune exec bench/main.exe -- -e resilience

bench:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- --full

# Multi-subject shared-pass annotation at role counts 1/8/64/512.
bench-multirole:
	dune exec bench/main.exe -- -e multirole

# Pinned snapshot readers x writer churn: p50/p99 read latency,
# snapshot-reclaim lag, and the MVCC invariant counters (stale /
# unpinned / errors must all be 0).
bench-concurrent:
	dune exec bench/main.exe -- -e concurrent

# Rewrite lane vs materialization: per-lane p50/p99 and the
# queries-until-breakeven crossover on every store.
bench-rewrite:
	dune exec bench/main.exe -- -e rewrite

# Read miss stages on an annotated frozen XMark f=0.1 view over the
# repo benchmark's query pool: Eval vs the pre/size index (index build
# ms, then per-query mean/p50/p99 us and minor words), and a CAM walk
# vs the rank-space check over each query's answers (the same
# figures).  Then the repair's scope stage: every rule scope of the
# repo benchmark's 16-role policy on the live document, through the
# native backend with Eval and with a live index.  Exits non-zero if
# any answer, verdict or scope differs.
bench-eval:
	dune exec bench/main.exe -- -e eval

# Micro-benchmarks: one Bechamel row per table/figure kernel, then one
# memo-hit read through Snapshot.request, Serve.request (live) and
# Serve.snapshot_request (pinned) in ns and minor words per call.
bench-micro:
	dune exec bench/main.exe -- -e micro

# Snapshot publication: full-copy vs COW publish p50/p99 across a
# document ladder, plus 1000 pinned epochs of retained history.
# Exits non-zero if COW publish is not sublinear in document size,
# pinned history is not bounded, or a decision carried across a
# structural epoch differs from a direct read.
bench-snapshot:
	dune exec bench/main.exe -- -e snapshot

# Replication under load: apply lag p50/p99 and failover
# time-to-first-served-read across a readers x churn x fault-rate
# grid.  Exits non-zero on a single stale grant (a follower serving a
# grant the leader never made at that epoch), on unbounded lag, or on
# a failover that never serves.
bench-replication:
	dune exec bench/main.exe -- -e replication

# Replication chaos soak: the replicate test binary (chaos
# convergence, kill sweeps, cross-node equivalence property) under
# the CI replication-soak job's three fixed seeds, then the
# replication bench once.
soak-replication:
	@for seed in 1 7 20090101; do \
	  echo "== replication soak, fault seed $$seed =="; \
	  XMLAC_FAULT_SEED=$$seed dune exec test/test_replicate.exe || exit 1; \
	done
	dune exec bench/main.exe -- -e replication

# Smoke run of the repo benchmark (BENCHMARK.json): every workload for
# 3 s with the per-layer trace on.  The benchmark exits non-zero on any
# oracle, layer-split or snapshot-leak failure, so a change that breaks
# a workload fails here rather than only in a full benchmark run.
perfbench-smoke:
	@for w in session-reads role-churn replica-churn; do \
	  echo "== perfbench $$w, seed 1, 3 s, traced =="; \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 3 --trace 1 || exit 1; \
	done

doc:
	dune build @doc

# Size of the library: lines of every .ml and .mli under lib/ — the
# figure ROADMAP.md tracks.
loc:
	@printf 'lib/ .ml+.mli lines: '
	@find lib \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l

quickstart:
	dune exec examples/quickstart.exe

clean:
	dune clean

.PHONY: all test ci soak bench bench-full bench-multirole bench-concurrent bench-rewrite bench-eval bench-micro bench-snapshot bench-replication soak-replication perfbench-smoke doc loc quickstart clean
