# Development entry points. `make ci` is what the CI workflow runs: the
# workflow installs the toolchain and calls it, so the step list lives
# here alone.

CARGO ?= cargo

.PHONY: ci build test test-workspace test-release fmt fmt-check clippy fuzz-smoke e15-smoke trace-smoke watch-smoke study-smoke serve-smoke frontier-smoke audit-smoke prof-smoke labbench-smoke loc

ci: build test-workspace test-release fmt-check clippy fuzz-smoke e15-smoke trace-smoke watch-smoke study-smoke serve-smoke frontier-smoke audit-smoke labbench-smoke prof-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

test-workspace:
	$(CARGO) test --workspace -q

# The population's lane walk (`mercurial-fault`, with its one `unsafe`
# call, and `mercurial-fleet`) tested under release codegen: the dev
# profile is `opt-level = 1`, so only this step tests the optimised
# build of both its compilations.
test-release:
	$(CARGO) test --release -q -p mercurial-fault -p mercurial-fleet

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Bounded fuzz campaign (fixed seed, small budget): asserts every lesion
# kind gets a witness, the distilled corpus stays <= 25% of the budget,
# and reports are identical at 1/2/8 worker threads (the campaign fans
# independent programs out across threads; each program runs serially).
fuzz-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e_fuzz -- --smoke

# Bounded closed-loop run (demo scale, fixed seed): asserts the epoch-
# interleaved pipeline strictly reduces residual corrupt-ops vs the open
# loop and that safe-task capacity sits between base and nominal.
e15-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e15_closed_loop -- --smoke

# Tracing contracts (demo scale, fixed seed): asserts the JSONL trace
# records, the Chrome export is valid JSON with balanced span pairs, and the incident timeline shows a full
# onset -> signal -> quarantine -> confirm story.
trace-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e16_trace_overhead -- --smoke

# Alerting contracts (demo scale, fixed seed) plus the paper-scale alert
# gate: the committed rule file must stay silent on the healthy paper
# scenario (against the committed baseline) and must fire on the seeded
# detection-regression scenario.
watch-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e17_watch_overhead -- --smoke
	$(CARGO) run --release -- watch --rules scenarios/watch_rules.json --scenario scenarios/paper.json
	! $(CARGO) run --release -- watch --rules scenarios/watch_rules.json --scenario scenarios/watch_regression.json

# Fleet-study contracts: the sim's output does not depend on its
# stepping granularity, and the 1M-machine x 36-month closed loop stays
# within a self-calibrated wall-clock budget.
study-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e18_study -- --smoke

# Served-topology contracts: frame-codec round-trip, zero-impairment
# bit-parity between the socket-split pipeline and the in-process driver
# (1/2/4 workers), and loss monotonicity of the impairment layer.
serve-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e19_serve -- --smoke

# Workload-frontier contracts: a zeroed workload layer moves no
# simulation bit, per-class attribution conserves fleet totals, and the
# mitigation ladder is strictly monotone — lower
# residual corruption at strictly higher overhead, every rung.
frontier-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e20_frontier -- --smoke

# Decision-audit contracts: an audit-off run reproduces the E20 pin
# digests bit-for-bit, the ledger replayed from exported JSONL is
# byte-identical to the in-loop ledger, and attribution
# conserves ground truth (TP+FN == seeded mercurial cores, FP healthy).
audit-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e21_audit -- --smoke

# Self-observability contracts: a profiled run reproduces the E20 legacy
# pin bit-for-bit (the profiler is write-only), the enabled profiler
# stays under its 2% overhead budget (the median of 201 prof-off/prof-on
# pair ratios from the shared bench sampler, on one 20,000-machine
# experiment built once), and the shared BenchMeta envelope round-trips
# through its own validator.
prof-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e22_prof -- --smoke

# The benchmark's demo-scale smoke tests: every workload prints its
# metrics, hand-driven digests match the drivers, spans balance. The
# benchmark builds against the lab's public crate APIs, so this catches
# an API change that would break it.
labbench-smoke:
	$(CARGO) test --offline --manifest-path labbench/Cargo.toml

# Non-test Rust lines: every `.rs` file outside `tests/` directories and
# `labbench/` (shims included), build output excluded. The figure the
# change log reports per change.
loc:
	@find . -path ./target -prune -o -path ./labbench -prune -o -path '*/tests' -prune \
		-o -name '*.rs' -print0 | xargs -0 cat | wc -l
