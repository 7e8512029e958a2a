# Development entry points. `make ci` is what the CI workflow runs: the
# workflow installs the toolchain and calls it, so the step list lives
# here alone.

CARGO ?= cargo

.PHONY: ci build test test-workspace test-release fmt fmt-check clippy fuzz-smoke watch-smoke study-smoke serve-smoke frontier-smoke observe-smoke labbench-smoke loc claims

ci: build test-workspace test-release fmt-check clippy fuzz-smoke watch-smoke study-smoke serve-smoke frontier-smoke labbench-smoke observe-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

test-workspace:
	$(CARGO) test --workspace -q

# The population's lane walk (`mercurial-fault`, with its one `unsafe`
# call, and `mercurial-fleet`), the exporters' shortest-float writer
# (`mercurial-trace`, whose differential test pins it to `Display`) and
# the audit fold (`mercurial-audit`) tested under release codegen: the
# dev profile is `opt-level = 1`, so only this step tests the optimised
# build.
test-release:
	$(CARGO) test --release -q -p mercurial-fault -p mercurial-fleet -p mercurial-trace -p mercurial-audit

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

# The paper-scale alert gate: the committed rule file must stay silent
# on the healthy paper scenario (against the committed baseline) and must
# fire on the seeded detection-regression scenario.
watch-smoke:
	$(CARGO) run --release -- watch --rules scenarios/watch_rules.json --scenario scenarios/paper.json
	! $(CARGO) run --release -- watch --rules scenarios/watch_rules.json --scenario scenarios/watch_regression.json

# Fleet-study contract: the 1M-machine x 36-month closed loop stays
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

# The benchmark's demo-scale smoke tests: every workload prints its
# metrics, hand-driven digests match the drivers, spans balance. The
# benchmark builds against the lab's public crate APIs, so this catches
# an API change that would break it.
labbench-smoke:
	$(CARGO) test --offline --manifest-path labbench/Cargo.toml

# The observability timing gates, each the median of per-pair on/base
# ratios from the shared bench sampler on one built experiment: tracing
# costs <= 1.5x the paper-scale closed loop (21 pairs), and the enabled
# profiler < 2% of the traced and watched demo fleet widened to 20,000
# machines (201 pairs). Every timed run must reproduce the all-off run's
# outputs. Last in `ci`: host load can still fail the 2% gate.
observe-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e16_observe -- --smoke

# Non-test Rust lines: every `.rs` file outside `tests/` directories and
# `labbench/` (shims included), build output excluded. The figure the
# change log reports per change.
loc:
	@find . -path ./target -prune -o -path ./labbench -prune -o -path '*/tests' -prune \
		-o -name '*.rs' -print0 | xargs -0 cat | wc -l

# How fresh each committed bench number is. A report, not a gate, and
# not part of `ci`: per BENCH_*.json, the experiment, commit and dirty
# flag its envelope stamps ("-" when it predates the flag), the commits
# since that stamp and how many of them touched the experiment's bin
# ("?" when the stamp is not a commit of this history).
claims:
	@printf '%-22s %-14s %-10s %-7s %-6s %s\n' file experiment commit dirty since touched-bin
	@for f in BENCH_*.json; do \
		exp=$$(sed -n 's/.*"experiment": "\([^"]*\)".*/\1/p' $$f | head -n 1); \
		sha=$$(sed -n 's/.*"git_commit": "\([^"]*\)".*/\1/p' $$f | head -n 1); \
		dirty=$$(sed -n 's/.*"git_dirty": \([a-z]*\).*/\1/p' $$f | head -n 1); \
		since=$$(git rev-list --count "$$sha..HEAD" 2>/dev/null || echo '?'); \
		bin=$$(git rev-list --count "$$sha..HEAD" -- "crates/bench/src/bin/$$exp.rs" 2>/dev/null || echo '?'); \
		printf '%-22s %-14s %-10.10s %-7s %-6s %s\n' "$$f" "$$exp" "$$sha" "$${dirty:--}" "$$since" "$$bin"; \
	done
