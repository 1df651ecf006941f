GO ?= go

FUZZTIME ?= 10s

.PHONY: test check vet fmt race audit fuzz-smoke bench-smoke bench-ab linked unlinked profile loc

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## fmt: fail when gofmt would rewrite any file.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }

race:
	$(GO) test -race ./...

## audit: full-trace invariant audit — the seed workload under the dynamic
## scheme, whose consolidation passes run Algorithm 1 as lazy rounds over
## gain bounds (internal/core/bound.go), with every event checked, every
## pass's roster (internal/core/roster.go) held to a cold rebuild, every
## round — moving or ending the pass — held to one cold reference over the
## Running VMs, core.Joint on every (VM, active PM) pair
## (internal/core/reference.go: the index sound, each column's group scan
## its best PM bit-for-bit, its Best the lazy choice, no swept bound below
## a built gain, no column left out that could move), plus the per-period
## lazy-vs-reference (the first round's check, SparseCheck) and roster
## checks, and every queued VM held to the queue's change feed after each
## event (170259 checks: the per-round checks ride inside them). A second
## run audits the first-fit baseline (138882 checks), whose placements go
## through the datacenter's first-fit index (internal/cluster/fitindex.go):
## the state check's CheckInvariants holds the index to the live fleet
## after every event. Exits non-zero on the first violation. The
## configuration differentials (decisions, checkpoint/resume) and the
## engine differential are tier-1 tests: cmd/dvmpsim TestTraceEquivalence
## and TestFaithfulReplayReproducesTrace, internal/audit
## TestSparseDifferentialSweep.
audit:
	$(GO) run ./cmd/dvmpsim -audit=event -spare
	$(GO) run ./cmd/dvmpsim -audit=event -scheme first-fit

## fuzz-smoke: short randomized fuzz budgets — the audit harness's
## randomized operations, each followed by the full check set, the lazy
## rounds' first round held to the cold reference included
## (internal/audit.FuzzOperations), the mirrored fleets that take every
## placement and consolidation decision both cell by cell and on the
## candidate index, under SelfAudit (internal/audit.FuzzSparseOperations),
## the event heap against a sorted-slice model (internal/sim.FuzzScheduler),
## the crash-injection resume differential (internal/sim.FuzzSnapshotResume),
## Restore on hostile checkpoint bytes, never a panic and only named errors
## (internal/sim.FuzzRestore), the decision-log reader against
## the recorder's encoders (internal/policy.FuzzParseDecisionLog), the trace
## renderer on hostile bytes, seeded from the golden run's binary streams
## (internal/obs.FuzzRender), the first-fit index against the linear
## walk (internal/cluster.FuzzFirstFit), the SWF parser on hostile bytes,
## never a panic and no accepted job with a negative time, core count or
## memory (internal/workload.FuzzParseSWF), SortBySubmit against a stable
## sort on (Submit, ID) over forced ties and duplicate IDs
## (internal/workload.FuzzSortBySubmit), and Algorithm 1's lazy rounds
## against the cold reference over fuzzed operation streams
## (internal/core.FuzzLazyRounds).
## FUZZTIME=10s by default (each). The status line counts a worker's
## executions only when its batch ends, so it can read 0 execs/s for most
## of the run while the worker is busy: a 90 s FuzzRestore run on a 2-CPU
## host read 7 execs from 3 s to 24 s, then 337,949 at 27 s and 467,567 at
## the end.
fuzz-smoke:
	$(GO) test ./internal/audit -run '^$$' -fuzz FuzzOperations -fuzztime $(FUZZTIME)
	$(GO) test ./internal/audit -run '^$$' -fuzz FuzzSparseOperations -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzScheduler -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzSnapshotResume -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/policy -run '^$$' -fuzz FuzzParseDecisionLog -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzRender -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzFirstFit -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzParseSWF -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzSortBySubmit -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLazyRounds -fuzztime $(FUZZTIME)

## bench-smoke: run every Kernel*, Engine*, Meter*, Sweep, FirstFit and
## Generate (the trace generator: the week and static-fleet-1k's week at
## 10x) micro-benchmark exactly once. Not a measurement — a liveness gate:
## benchmarks bit-rot silently because `go test` never executes them, so
## check runs each for one iteration.
bench-smoke:
	$(GO) test ./internal/core -run '^$$' -bench '^BenchmarkKernel' -benchtime 1x
	$(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkEngine' -benchtime 1x
	$(GO) test ./internal/power -run '^$$' -bench '^BenchmarkMeter' -benchtime 1x
	$(GO) test ./internal/exp -run '^$$' -bench '^BenchmarkSweep' -benchtime 1x
	$(GO) test ./internal/cluster -run '^$$' -bench '^BenchmarkFirstFit' -benchtime 1x
	$(GO) test ./internal/workload -run '^$$' -bench '^BenchmarkGenerate' -benchtime 1x

## check: the full pre-commit gate — vet, gofmt, the unlinked-function
## gate (nothing in internal/ that no binary links, but what
## internal/unlinked.txt names), the race-enabled test suite (covers the
## lock-free metrics hot path, the parallel experiment harness, and two
## runs sharing one Dynamic concurrently), the full-trace audit run, a fuzz
## smoke test, and a one-iteration pass over the kernel benchmarks. What
## every run writes is pinned by the test suite, not here: `go test
## ./cmd/dvmpsim ./cmd/experiments ./examples/multiregion -run Digest`
## (TestRunDigests' pins are cmd/dvmpsim/testdata/run_digests.json;
## `-update` re-blesses them).
check: vet fmt unlinked race audit fuzz-smoke bench-smoke

## bench-ab: the end-to-end benchmark, this tree against another commit,
## by the alternating-pairs procedure of bench/README.md: BASE is checked
## out into a temporary shared `git clone` (under $TMPDIR, removed on
## exit; no `git worktree`, so the repository's own metadata is never
## written), `go run ./bench` runs N times a side with the order flipped
## each round, and `-compare a1..aN b1..bN` (a = BASE, b = this tree) reads
## the medians. The result sets stay in bench/out/ab/.
## `make bench-ab BASE=HEAD~1`.
## With W=<workload> the pairs run that one workload
## (`go run ./bench -workload $(W)`) and the summary is the claim rule's:
## each side's `wall_s` median and quartiles over the N pairs and how many
## pairs this tree won — `make bench-ab BASE=HEAD~1 N=10 W=paper-week-100`.
## BENCHFLAGS goes to every run (`BENCHFLAGS='-seed 7'`).
N ?= 3
W ?=
BENCHFLAGS ?=
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<ref> [N=3] [W=<workload>] [BENCHFLAGS=...]"; exit 2; }
	@set -e; out=$(CURDIR)/bench/out/ab; base=$$(mktemp -d); rm -rf "$$out"; mkdir -p "$$out"; \
	trap 'rm -rf "$$base"' EXIT; \
	git clone -q --shared . "$$base" && git -C "$$base" checkout -q --detach $(BASE); \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi; \
		for side in $$order; do \
			if [ $$side = a ]; then dir="$$base"; else dir=.; fi; \
			(cd "$$dir" && $(GO) run ./bench $(if $(W),-workload $(W)) $(BENCHFLAGS) -out "$$out/$$side$$i") \
				$(if $(W),> "$$out/$$side$$i.txt" || { cat "$$out/$$side$$i.txt"; exit 1; }; cat "$$out/$$side$$i.txt"); \
		done; \
	done; \
	if [ -z "$(W)" ]; then \
		$(GO) run ./bench -compare "$$out"/a*/results.json "$$out"/b*/results.json; \
	else \
		for i in $$(seq 1 $(N)); do for side in a b; do awk -v s=$$side '$$1 == "wall_s" { print s, $$2 }' "$$out/$$side$$i.txt"; done; done | awk -v w=$(W) ' \
			function q(v, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) } \
			function report(name, v, n,   i, j, t) { \
				for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j] < v[j - 1]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } \
				printf "%s wall_s  median %.4f  quartiles %.4f / %.4f  (n = %d)\n", name, q(v, n, .5), q(v, n, .25), q(v, n, .75), n } \
			$$1 == "a" { a[++na] = $$2; pa[na] = $$2 } $$1 == "b" { b[++nb] = $$2; pb[nb] = $$2 } \
			END { if (na != nb || na == 0) { print "bench-ab: " na " wall_s readings for a, " nb " for b"; exit 1 } \
				for (i = 1; i <= na; i++) { printf "pair %d  a %.4f  b %.4f\n", i, pa[i], pb[i]; if (pb[i] < pa[i]) wins++; else if (pb[i] > pa[i]) losses++ } \
				print "== " w ", a = BASE, b = this tree"; report("a", a, na); report("b", b, nb); \
				printf "b ahead in %d of %d pairs (a ahead in %d); b median / a median = %.3f\n", wins, na, losses, q(b, nb, .5) / q(a, na, .5) }'; \
	fi

## linked: build every main package `go list ./...` reports with inlining
## off (-gcflags=all=-l, so a function called from one place still shows up
## as a symbol) and write each binary's sorted repro/ text symbols
## (`go tool nm`) to OUT/<name>.syms. Two trees' directories diff to the
## functions a change added to or took out of each binary; a function in no
## list is linked by no binary. The binaries themselves go to a temporary
## directory, removed on exit. `make linked OUT=/tmp/syms`.
OUT ?=
linked:
	@test -n "$(OUT)" || { echo "usage: make linked OUT=<dir>"; exit 2; }
	@set -e; mkdir -p "$(OUT)"; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for pkg in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do \
		name=$${pkg##*/}; \
		$(GO) build -gcflags=all=-l -o "$$bin/$$name" "$$pkg"; \
		$(GO) tool nm "$$bin/$$name" | awk '($$2 == "T" || $$2 == "t") && $$3 ~ /^repro\// { print $$3 }' | sort -u > "$(OUT)/$$name.syms"; \
		echo "$$name: $$(wc -l < "$(OUT)/$$name.syms") symbols"; \
	done

## unlinked: fail on any function declared in internal/ that no main
## package links, unless internal/unlinked.txt names it with a reason. It
## runs `make linked` into a temporary directory, so bench/ counts as a
## binary like cmd/* and examples/*. A function is counted by its `^func`
## declaration in a non-test file (gofmt'd, so one line), methods as
## T.M; a symbol is matched by name once `(*T).M` reads T.M and any `[…]`,
## `.funcN`, `.deferwrapN`, `.gowrapN` or `-fm` is dropped. It also fails on
## an allow entry that is linked again, no longer declared, or has no reason.
UNLINKED_ALLOW := internal/unlinked.txt
unlinked:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(MAKE) -s --no-print-directory linked OUT="$$tmp/syms" > /dev/null; \
	cat "$$tmp"/syms/*.syms | sed -E 's/\(\*([^)]*)\)/\1/; :a; s/\[[^][]*\]//; ta; s/\[.*$$//; s/\.(func|deferwrap|gowrap)[0-9].*$$//; s/-fm$$//; s/\.init\.[0-9]+$$/.init/' \
		| LC_ALL=C sort -u > "$$tmp/linked"; \
	find internal -name '*.go' ! -name '*_test.go' | LC_ALL=C sort | while read -r f; do \
		awk -v pkg="repro/$${f%/*}" '/^func / { s = substr($$0, 6); \
			if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); sub(/\[.*/, "", r); n = split(r, p, " "); t = p[n]; sub(/^\*/, "", t); \
				s = substr(s, index(s, ")") + 2); s = t "." s } \
			sub(/[[(].*/, "", s); print pkg "." s }' "$$f"; \
	done | LC_ALL=C sort -u > "$$tmp/declared"; \
	LC_ALL=C comm -23 "$$tmp/declared" "$$tmp/linked" > "$$tmp/unlinked"; \
	fail=0; : > "$$tmp/allowed"; \
	awk -v out="$$tmp/allowed" '/^#/ || !NF { next } NF == 1 { print "unlinked: entry " $$1 " in $(UNLINKED_ALLOW) gives no reason"; bad = 1 } \
		{ print $$1 > out } END { exit bad }' $(UNLINKED_ALLOW) || fail=1; \
	LC_ALL=C sort -o "$$tmp/allowed" "$$tmp/allowed"; \
	for f in $$(LC_ALL=C comm -23 "$$tmp/unlinked" "$$tmp/allowed"); do \
		echo "unlinked: $$f is linked by no binary and not in $(UNLINKED_ALLOW)"; fail=1; done; \
	for f in $$(LC_ALL=C comm -13 "$$tmp/unlinked" "$$tmp/allowed"); do \
		if grep -qxF "$$f" "$$tmp/declared"; then why="linked again"; else why="no longer declared"; fi; \
		echo "unlinked: stale entry $$f in $(UNLINKED_ALLOW): $$why"; fail=1; done; \
	test -z "$$(uniq -d "$$tmp/allowed")" || { echo "unlinked: repeated entries: $$(uniq -d "$$tmp/allowed")"; fail=1; }; \
	test $$fail = 0; \
	echo "unlinked: $$(wc -l < "$$tmp/declared") functions declared in internal/, $$(wc -l < "$$tmp/unlinked") linked by no binary, each in $(UNLINKED_ALLOW)"

## loc: non-test Go lines under internal/, cmd/ and examples/ (bench/ is
## not counted), each directory, then internal/ + cmd/ (the figure ROADMAP's
## line targets use) and all three.
loc:
	@for d in internal cmd examples; do \
		printf '%s %d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done | awk '{ printf "%-13s %6d\n", $$1, $$2; all += $$2; if ($$1 != "examples") ic += $$2 } \
		END { printf "%-13s %6d\n%-13s %6d\n", "internal+cmd", ic, "all three", all }'

## profile: capture CPU and heap profiles from the seed workload under the
## dynamic scheme (PROFILE_FLAGS to change the run). Inspect with
## `go tool pprof cpu.pprof` / `go tool pprof heap.pprof`.
PROFILE_FLAGS ?= -spare
profile:
	$(GO) run ./cmd/dvmpsim $(PROFILE_FLAGS) -cpuprofile cpu.pprof -memprofile heap.pprof
	@echo "wrote cpu.pprof and heap.pprof"
