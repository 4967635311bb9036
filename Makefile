# Tier-1 gate (see ROADMAP.md): `make check` must pass — a clean build
# with zero warnings plus the full test suite — before any PR lands.

.PHONY: all check build test bench bench-diff serve-smoke volumes-smoke faultsweep-smoke wrap-smoke recovery-smoke timeline-smoke watch-smoke why-smoke qdepth-smoke fmt fmt-check ci clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

# Reproduce every paper table and regenerate the committed snapshots
# (BENCH_OBS.json, BENCH_GROUPCOMMIT.json, BENCH_FAULTSWEEP.json,
# BENCH_RECOVERY.json, BENCH_WRAP.json, BENCH_TIMELINE.json,
# BENCH_BREAKDOWN.json, BENCH_VOLUMES.json, BENCH_QDEPTH.json) so
# reviewers can diff observability, group-commit-scaling, crash-sweep,
# restart-time, log-wrap-endurance, saturation-sweep, latency-anatomy,
# multi-volume-scale-out and disk-scheduler-sweep output.
bench:
	dune exec bench/main.exe
	dune exec bench/main.exe -- obs-json --out BENCH_OBS.json
	dune exec bench/main.exe -- clients --out BENCH_GROUPCOMMIT.json
	dune exec bench/main.exe -- faultsweep --out BENCH_FAULTSWEEP.json
	dune exec bench/main.exe -- recovery --out BENCH_RECOVERY.json
	dune exec bench/main.exe -- wrap --out BENCH_WRAP.json
	dune exec bench/main.exe -- timeline --out BENCH_TIMELINE.json
	dune exec bench/main.exe -- breakdown --out BENCH_BREAKDOWN.json
	dune exec bench/main.exe -- volumes --out BENCH_VOLUMES.json
	dune exec bench/main.exe -- qdepth --out BENCH_QDEPTH.json

# Snapshot drift gate: regenerate every BENCH_*.json into
# _build/bench-diff/ and structurally compare against the committed
# copies (timing-flavoured fields get 10% relative tolerance, everything
# else must match exactly). Exits non-zero on drift.
bench-diff:
	dune exec bench/main.exe -- diff

# Determinism smoke: two same-seed 2-client server runs must produce
# byte-identical JSON reports (the server's core contract), and the
# one-volume report must carry the per-volume array like any other.
serve-smoke:
	dune build bin/cedar.exe
	rm -rf _build/serve-smoke && mkdir -p _build/serve-smoke
	./_build/default/bin/cedar.exe mkfs _build/serve-smoke/vol.img > /dev/null
	./_build/default/bin/cedar.exe serve _build/serve-smoke/vol.img \
		--clients 2 --json > _build/serve-smoke/run1.json
	./_build/default/bin/cedar.exe serve _build/serve-smoke/vol.img \
		--clients 2 --json > _build/serve-smoke/run2.json
	cmp _build/serve-smoke/run1.json _build/serve-smoke/run2.json
	@grep -q '"volumes"' _build/serve-smoke/run1.json
	@echo "serve-smoke: deterministic"

# Multi-volume determinism smoke: two same-seed 2-volume sharded server
# runs (fresh in-memory volumes, no image) must produce byte-identical
# JSON reports, and the report must carry the per-volume array.
volumes-smoke:
	dune build bin/cedar.exe
	rm -rf _build/volumes-smoke && mkdir -p _build/volumes-smoke
	./_build/default/bin/cedar.exe serve --volumes 2 --clients 4 \
		--json > _build/volumes-smoke/run1.json
	./_build/default/bin/cedar.exe serve --volumes 2 --clients 4 \
		--json > _build/volumes-smoke/run2.json
	cmp _build/volumes-smoke/run1.json _build/volumes-smoke/run2.json
	@grep -q '"volumes"' _build/volumes-smoke/run1.json
	@echo "volumes-smoke: deterministic"

# Crash-injection smoke: kill the 2-client server at every sector write
# of the first three force intervals, once per tear mode, and reboot each
# time. cedar faultsweep exits non-zero on any recovery-contract
# violation, so this line IS the assertion.
faultsweep-smoke:
	dune build bin/cedar.exe
	./_build/default/bin/cedar.exe faultsweep --clients 2 --max-forces 3 \
		--tear all > /dev/null
	@echo "faultsweep-smoke: zero violations"

# Log-wrap smoke: a bounded churn run that wraps the log at least once,
# twice with the same seed. cedar churn exits non-zero on any oracle
# violation, a non-zero replay after the clean shutdown, or too few
# wraps, and the two JSON summaries must be byte-identical.
wrap-smoke:
	dune build bin/cedar.exe
	rm -rf _build/wrap-smoke && mkdir -p _build/wrap-smoke
	./_build/default/bin/cedar.exe churn --tiny --ops 60 --min-wraps 1 \
		--json > _build/wrap-smoke/run1.json
	./_build/default/bin/cedar.exe churn --tiny --ops 60 --min-wraps 1 \
		--json > _build/wrap-smoke/run2.json
	cmp _build/wrap-smoke/run1.json _build/wrap-smoke/run2.json
	@echo "wrap-smoke: wrapped, clean, deterministic"

# Restart smoke: the recovery bench hard-fails (exit 1) if a crash
# reboot replays the wrong record count or reads any log body sector
# more than once — its internal assertions ARE the check.
recovery-smoke:
	dune exec bench/main.exe -- recovery --out _build/BENCH_RECOVERY.smoke.json \
		> /dev/null
	@echo "recovery-smoke: single-pass replay holds"

# Telemetry smoke: two identical open-loop server runs must write valid,
# non-trivial (>= 20 samples), byte-identical timeline JSON.
timeline-smoke:
	dune build bin/cedar.exe
	rm -rf _build/timeline-smoke && mkdir -p _build/timeline-smoke
	./_build/default/bin/cedar.exe mkfs _build/timeline-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe serve _build/timeline-smoke/vol.img \
		--clients 4 --open-loop 20 --ops 60 \
		--timeline _build/timeline-smoke/run1.json > /dev/null
	./_build/default/bin/cedar.exe serve _build/timeline-smoke/vol.img \
		--clients 4 --open-loop 20 --ops 60 \
		--timeline _build/timeline-smoke/run2.json > /dev/null
	cmp _build/timeline-smoke/run1.json _build/timeline-smoke/run2.json
	@n=$$(grep -c '"at_us"' _build/timeline-smoke/run1.json); \
	if [ "$$n" -lt 20 ]; then \
		echo "timeline-smoke: only $$n samples (want >= 20)"; exit 1; fi; \
	echo "timeline-smoke: $$n samples, valid, deterministic"

# Watch smoke: --watch on a pipe must emit frames as plain text — not a
# single ANSI escape byte — and stay deterministic run to run.
watch-smoke:
	dune build bin/cedar.exe
	rm -rf _build/watch-smoke && mkdir -p _build/watch-smoke
	./_build/default/bin/cedar.exe mkfs _build/watch-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe serve _build/watch-smoke/vol.img \
		--clients 2 --watch > _build/watch-smoke/run1.txt
	./_build/default/bin/cedar.exe serve _build/watch-smoke/vol.img \
		--clients 2 --watch > _build/watch-smoke/run2.txt
	cmp _build/watch-smoke/run1.txt _build/watch-smoke/run2.txt
	@if LC_ALL=C grep -q "$$(printf '\033')" _build/watch-smoke/run1.txt; then \
		echo "watch-smoke: ANSI escape codes in non-tty output"; exit 1; fi
	@grep -q "sat.device_busy" _build/watch-smoke/run1.txt
	@echo "watch-smoke: plain-text frames, deterministic"

# Latency-anatomy smoke: cedar why exits non-zero if any op's phase
# vector fails the conservation invariant, so the runs themselves are
# the correctness check; the two JSON anatomies must also be
# byte-identical (same seed, same blame, same microseconds).
why-smoke:
	dune build bin/cedar.exe
	rm -rf _build/why-smoke && mkdir -p _build/why-smoke
	./_build/default/bin/cedar.exe mkfs _build/why-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe why _build/why-smoke/vol.img \
		--clients 4 --json > _build/why-smoke/run1.json
	./_build/default/bin/cedar.exe why _build/why-smoke/vol.img \
		--clients 4 --json > _build/why-smoke/run2.json
	cmp _build/why-smoke/run1.json _build/why-smoke/run2.json
	@grep -q '"all_conserved": true' _build/why-smoke/run1.json
	@echo "why-smoke: conserved, deterministic"

# Disk-scheduler smoke: the qdepth sweep must rerun byte-identically and
# both built-in regression checks must hold — a reordering policy beats
# FIFO at depth >= 4, and depth-1 rows degenerate to the queue-off
# baseline.
qdepth-smoke:
	rm -rf _build/qdepth-smoke && mkdir -p _build/qdepth-smoke
	dune exec bench/main.exe -- qdepth \
		--out _build/qdepth-smoke/run1.json > _build/qdepth-smoke/log1.txt
	dune exec bench/main.exe -- qdepth \
		--out _build/qdepth-smoke/run2.json > /dev/null
	cmp _build/qdepth-smoke/run1.json _build/qdepth-smoke/run2.json
	@grep -q '"shape_ok": true' _build/qdepth-smoke/run1.json
	@grep -q '"depth1_ok": true' _build/qdepth-smoke/run1.json
	@echo "qdepth-smoke: reordering wins at depth >= 4, depth-1 degenerate, deterministic"

# Requires ocamlformat (not vendored in the container); no-op without it.
fmt:
	-dune fmt

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

ci: fmt-check check serve-smoke volumes-smoke faultsweep-smoke wrap-smoke \
	recovery-smoke timeline-smoke watch-smoke why-smoke qdepth-smoke bench-diff

clean:
	dune clean
