.PHONY: all build test fuzz-smoke eqn-smoke serve-smoke serve-stress tune-smoke promote fmt lint-examples lint-distance trace-demo clean

all: build

build:
	dune build

test: fmt fuzz-smoke eqn-smoke serve-smoke serve-stress lint-distance tune-smoke
	dune runtest

# Bounded differential fuzzing pass: every generated module must agree
# across the sequential, stolen, collapsed and hyperplane execution
# paths (plus emitted C when a compiler is present).  Part of `make
# test`; a longer campaign is `psc fuzz --seed 1 --count 200`.
fuzz-smoke: build
	_build/default/bin/psc_main.exe fuzz --seed 1 --count 50

# The equation notation: every examples/ps/*.eqn translates to a PS
# module that `psc parse` reads back, and the equation_frontend example
# (which exits 1 unless its iterative and wavefront grids agree bit for
# bit) passes.  Part of `make test`.
eqn-smoke: build
	for f in examples/ps/*.eqn; do \
	  ps=$$(_build/default/bin/psc_main.exe eqn --ps "$$f") \
	  && printf '%s\n' "$$ps" | _build/default/bin/psc_main.exe parse - > /dev/null \
	  || { echo "eqn-smoke: $$f does not translate to PS that parses"; exit 1; }; \
	done
	_build/default/examples/equation_frontend.exe > /dev/null
	@echo "eqn-smoke: ok"

# The compile server in stdio mode: a malformed number and a run
# without its scalars must each be answered, not kill the server, so
# the schedule request behind them (id 3) still gets its ok answer.
# Two emit-c harnesses of one source with different scalars (ids 4
# and 5) must each print their own.  Part of `make test`; the full
# protocol suite is test/test_server.ml.
serve-smoke: build
	out=$$(printf '%s\n' \
	  '{"id":1,"op":"stats","x":-}' \
	  '{"id":2,"op":"run","source_file":"examples/ps/relaxation.ps"}' \
	  '{"id":3,"op":"schedule","source_file":"examples/ps/relaxation.ps"}' \
	  '{"id":4,"op":"emit-c","source_file":"examples/ps/relaxation.ps","main":true,"scalars":{"M":4,"maxK":2}}' \
	  '{"id":5,"op":"emit-c","source_file":"examples/ps/relaxation.ps","main":true,"scalars":{"M":9,"maxK":7}}' \
	  '{"id":6,"op":"shutdown"}' \
	  | _build/default/bin/psc_main.exe serve --stdio) \
	  && printf '%s\n' "$$out" | grep -q '"id":3,"ok":true' \
	  && printf '%s\n' "$$out" | grep -q '"id":4,"ok":true,.*int M = 4;' \
	  && printf '%s\n' "$$out" | grep -q '"id":5,"ok":true,.*int M = 9;'
	@echo "serve-smoke: ok"

# The overload/churn smoke: 500 connection open/close cycles leave no
# per-connection residue, flooding past --max-queue sheds E033 without
# dropping a connection, a pipelined burst is answered once per id, and
# 1024 connections open at once are all answered, none shed, hits from
# the cache and misses not.  Part of `make test`; the cases live in
# test/test_server.ml.
serve-stress: build
	_build/default/test/test_server.exe test stress
	@echo "serve-stress: ok"

# Tune the headline relaxation nests and replay the tuned tables
# bit-identically through `run --policy-file`.  Part of `make test`;
# the unit coverage, and the static table's paired timing against
# sequential runs, are in test/test_policy.ml.
tune-smoke: build
	sh bin/tune_smoke.sh _build/default/bin/psc_main.exe

# Re-bless the golden snapshots (test/golden/) after reviewing an
# intended schedule or back-end change.
promote: build
	GOLDEN_PROMOTE=test/golden dune exec test/test_golden.exe

# Check dune-file formatting (no ocamlformat in the toolchain, so OCaml
# sources are exempt).  Part of `make test`; `make fmt-fix` rewrites in
# place.
fmt:
	dune build @fmt

fmt-fix:
	dune build @fmt --auto-promote

# Run psc lint over every PS example (also part of `dune runtest`).
lint-examples: build
	sh bin/lint_examples.sh _build/default/bin/psc_main.exe examples/ps

# The classifier-drift gate: no example may carry a subscript the
# symbolic distance solver could classify but the labeller demoted to
# "other" (W115).  Part of `make test` and of `dune runtest`.
lint-distance: build
	sh bin/lint_distance.sh _build/default/bin/psc_main.exe examples/ps

# Trace a full compile + run of the relaxation example and validate the
# emitted Chrome trace file (loadable in Perfetto / chrome://tracing).
trace-demo: build
	_build/default/bin/psc_main.exe run --trace trace_demo.json \
	  --par 4 --stats -i M=64 -i maxK=20 examples/ps/relaxation.ps
	_build/default/bin/psc_main.exe trace-check trace_demo.json
	@echo "trace-demo: trace_demo.json is valid"

clean:
	dune clean
