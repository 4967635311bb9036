# Tier-1 gate (see ROADMAP.md): `make check` must pass — a clean build
# with zero warnings plus the full test suite, including the CLI and
# bench smokes under test/smoke/ — before any PR lands.

.PHONY: all check build test bench bench-diff fmt fmt-check ci clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

# Reproduce every paper table and regenerate every committed
# BENCH_*.json snapshot (the table in bench/bench_diff.ml) in place, so
# reviewers can diff them. Exits non-zero if any bench check fails.
bench:
	dune exec bench/main.exe -- all snapshots

# Snapshot drift gate: regenerate every BENCH_*.json into
# _build/bench-diff/ and structurally compare against the committed
# copies (timing-flavoured fields get 10% relative tolerance, everything
# else must match exactly). Exits non-zero on drift or on any false
# bench check.
bench-diff:
	dune exec bench/main.exe -- diff

# Requires ocamlformat (not vendored in the container); no-op without it.
fmt:
	-dune fmt

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

ci: fmt-check check bench-diff

clean:
	dune clean
