.PHONY: tier1 extended extended-only lint seeds bench-smoke bench-identity

# Tier-1 gate: must stay green on every PR. The benchmark under bench/ is
# a module of its own that root `./...` does not reach, so it is built,
# vetted and tested here too: an API change that breaks it fails in tier-1.
tier1:
	go build ./...
	go test ./...
	cd bench && go build ./... && go vet ./... && go test ./...

# The analyzer suite (cmd/daslint): the two rules no run can check, map
# order and stray goroutines (DESIGN.md §10). Clean on the tree. Then
# gofmt over every Go file of the checkout, bench/ and testdata included:
# any file it would reformat fails the target, named.
lint:
	go run ./cmd/daslint ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt would reformat:"; echo "$$unformatted"; exit 1; fi

# Extended gate: tier-1 and lint, then what only this gate runs
# (extended-only).
extended: tier1 lint extended-only

# What only the extended gate runs, so that CI, which runs tier1 and lint
# as jobs of their own, runs each once: the seed sweep, vet and race, then
# a bounded fuzz of the row-streaming kernels against their per-element
# oracle, of the order keys they select on against `<`, and of the raster
# generators against their per-pixel definitions (tier-1 runs only the
# seed corpora), and last one iteration of each set-up benchmark (the
# sequential kernel references and the raster generators at full-scale
# size), so that they keep compiling and running. The module starts no
# goroutine of its own, so -race rests on internal/sim's coroutines alone:
# the handoff between processes.
extended-only: seeds
	go vet ./...
	go test -race ./...
	go test -run '^$$' -fuzz FuzzRowDriver -fuzztime 20s ./internal/kernels
	go test -run '^$$' -fuzz FuzzOrderKey -fuzztime 20s ./internal/kernels
	go test -run '^$$' -fuzz FuzzGenerators -fuzztime 20s ./internal/workload
	go test -run '^$$' -bench . -benchtime 1x ./internal/kernels ./internal/workload

# Seed sweep: every seed-sensitive experiment (`tenants` today) at full
# scale over one declared list of twelve seeds, each claim's margin per
# seed, then the least and the median (~2 min). It reports and does not
# gate: a claim that fails at some seed is printed, not an exit status.
seeds:
	go run ./cmd/dasseeds

# Bench smoke: every experiment end to end at the reduced configuration —
# each cell verified against the sequential reference and held at or above
# its bound, the replayed experiments byte-identical across two runs — then
# every program under examples/ built and run: one that fails to build or
# exits non-zero fails the target, named. The race detector runs over every
# package in `extended`.
bench-smoke:
	go run ./cmd/dasbench -quick -exp all -json BENCH_sim_smoke.json
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for dir in examples/*/; do \
		name="$$(basename "$$dir")"; \
		go build -o "$$tmp/$$name" "./$$dir" || { echo "bench-smoke: examples/$$name does not build"; exit 1; }; \
		"$$tmp/$$name" >/dev/null || { status=$$?; echo "bench-smoke: examples/$$name exited $$status"; exit 1; }; \
	done; \
	echo "bench-smoke: every example under examples/ ran and exited 0"

# Bench identity: the simulated-clock records are functions of the code
# alone, so the committed BENCH_sim.json — every cell of every experiment,
# one record a line, sim seconds and counts only — must regenerate byte
# for byte from one full `dasbench -exp all -json` (~35 s; pipeline and
# restripe include crash runs), and `dasbench -quick -exp faults` —
# retries, timeouts and failover counts under a mid-run crash — must print
# its golden text. A refactor that moves no byte passes; anything else
# names every record that moved (or came, or went), with its steps'
# sim_seconds committed → generated and, under it, every step `stats` and
# `traffic` value that changed — so a re-record shows whether it moved
# compute or bytes — and shows the lines of the faults
# text that differ. Both comparisons always run and both report before the
# target fails, so a deliberate re-record also says whether the golden moved.
bench-identity:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/dasbench" ./cmd/dasbench; \
	"$$tmp/dasbench" -exp all -json "$$tmp/BENCH_sim.json" >/dev/null; \
	"$$tmp/dasbench" -quick -exp faults >"$$tmp/faults_quick.txt"; \
	status=0; \
	if cmp -s "$$tmp/BENCH_sim.json" BENCH_sim.json; then \
		echo "bench-identity: BENCH_sim.json identical"; \
	else \
		status=1; \
		echo "bench-identity: BENCH_sim.json differs from what the code generates, in these records (step sim_seconds, committed → generated):"; \
		awk 'function key(l) { return match(l, /^[{]"name":"[^"]*"/) ? substr(l, 10, RLENGTH - 10) : "" } \
		function secs(l, s) { s = ""; while (match(l, /"sim_seconds":[^,}]*/)) { s = s (s == "" ? "" : ", ") substr(l, RSTART + 14, RLENGTH - 14); l = substr(l, RSTART + RLENGTH) } return s } \
		function fields(l, f, o,   steps, t, m, pre, kv, n, c, i, p, k) { steps = gsub(/"sim_seconds":/, "&", l); t = 0; n = 0; \
			while (match(l, /"sim_seconds":|"(stats|traffic)":[{][^}]*[}]/)) { m = substr(l, RSTART, RLENGTH); l = substr(l, RSTART + RLENGTH); \
				if (m == "\"sim_seconds\":") { t++; continue } \
				pre = (steps > 1 ? "step " (t - 1) " " : "") (substr(m, 2, 7) == "traffic" ? "traffic." : ""); \
				m = substr(m, index(m, "{") + 1); c = split(substr(m, 1, length(m) - 1), kv, ","); \
				for (i = 1; i <= c; i++) { p = index(kv[i], ":"); k = pre substr(kv[i], 2, p - 3); f[k] = substr(kv[i], p + 1); o[++n] = k } } \
			return n } \
		function moved(a, b,   fa, fb, oa, ob, na, nb, i, k, s) { na = fields(a, fa, oa); nb = fields(b, fb, ob); s = ""; \
			for (i = 1; i <= nb; i++) if (!((k = ob[i]) in fa) || fa[k] != fb[k]) s = s (s == "" ? "" : ", ") k " " ((k in fa) ? fa[k] : "(none)") " → " fb[k]; \
			for (i = 1; i <= na; i++) if (!((k = oa[i]) in fb)) s = s (s == "" ? "" : ", ") k " " fa[k] " → (none)"; \
			return s } \
		FNR == NR { if ((k = key($$0)) != "") was[k] = $$0; next } \
		(k = key($$0)) != "" { seen[k] = 1; if (!(k in was)) print "  " k ": (none) → " secs($$0); \
			else if (was[k] != $$0) { print "  " k ": " secs(was[k]) " → " secs($$0); if ((m = moved(was[k], $$0)) != "") print "    moved: " m } } \
		END { for (k in was) if (!(k in seen)) print "  " k ": " secs(was[k]) " → (none)" }' BENCH_sim.json "$$tmp/BENCH_sim.json"; \
	fi; \
	if diff "$$tmp/faults_quick.txt" testdata/faults_quick.golden.txt; then \
		echo "bench-identity: -quick -exp faults output identical"; \
	else \
		status=1; \
		echo "bench-identity: -quick -exp faults output differs from testdata/faults_quick.golden.txt (< generated, > golden)"; \
	fi; \
	exit $$status
