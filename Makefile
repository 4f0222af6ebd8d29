# Development entry points; CI (.github/workflows/ci.yml) runs the same
# commands. See README "Development & static analysis".

GO ?= go

.PHONY: build test perfbench-test race race-full lint lint-fixtures lint-budget bench trace-smoke chaos predictd-smoke profile fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench-test runs the tests of the nested benchmark module, which the
# root `go test ./...` does not reach. Among them are the guards that the
# benchmark's probe replay and stream kernel still compute exactly what
# probes.MeasureContext and memsim.SimulateStream do.
perfbench-test:
	cd perfbench && $(GO) test ./...

# race runs the -short suite under the race detector: the 2-machine x
# 2-application study slice plus every unit test, which exercises the
# worker pool, cancellation, and the shared-cache paths in minutes, not
# tens of minutes. race-full is the exhaustive variant. The -timeout
# raises go test's 10m per-package default: the instrumented study
# package sits right at that line on small machines.
race:
	$(GO) test -race -short -timeout 20m ./...

# race-full includes the concurrent SharedStudy test; expect tens of
# minutes, dominated by the full study under the race detector (the
# -timeout raises go test's 10m per-package default, which the
# instrumented study exceeds on small machines).
race-full:
	$(GO) test -race -timeout 40m ./...

# lint = go vet + module-wide self-application of the repo's own analyzer
# suite (cmd/hpclint), plus a suppression audit: the //hpclint:ignore
# inventory must match the committed allowlist exactly, so a new
# suppression cannot slip in without a reviewed lint-suppressions.txt
# change (and a stale allowlist entry fails too). Both sides of the diff
# are normalized with `LC_ALL=C sort -u` so the gate is order-stable
# across platforms and locales (hpclint emits the same byte order, but
# the committed file may have been hand-edited).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/hpclint ./...
	LC_ALL=C sort -u lint-suppressions.txt >lint-suppressions.sorted.tmp; \
	$(GO) run ./cmd/hpclint -suppressions ./... | LC_ALL=C sort -u | diff -u lint-suppressions.sorted.tmp -; \
	st=$$?; rm -f lint-suppressions.sorted.tmp; exit $$st

# lint-fixtures runs the analyzer unit and fixture tests (the analyzers'
# own correctness, as opposed to lint's application of them to the repo).
lint-fixtures:
	$(GO) test ./internal/analysis/...

# lint-budget is the analyzer-cost gate: one timed module-wide hpclint
# pass must take at most 2x the hpclint_seconds recorded in
# BENCH_baseline.json. It runs alone so nothing contends with the timing.
lint-budget:
	$(GO) test -count=1 -run '^TestHpclintModuleBudget$$' ./internal/analysis -lint-baseline ../../BENCH_baseline.json

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# trace-smoke runs a traced 1-app study slice and validates the
# observability artifacts: the span log must parse and cover every phase,
# and the run manifest must be complete (cmd/tracecheck). The per-phase
# aggregates land in trace-smoke-out/phases.csv; CI uploads the directory.
trace-smoke:
	mkdir -p trace-smoke-out
	$(GO) run ./cmd/metricstudy -quiet -csv -only phases \
		-apps avus-standard -targets ARL_Opteron,MHPCC_P3 \
		-spans trace-smoke-out/spans.jsonl \
		-manifest trace-smoke-out/manifest.json \
		-prom trace-smoke-out/metrics.prom \
		-cpuprofile trace-smoke-out/cpu.pprof \
		> trace-smoke-out/phases.csv
	$(GO) run ./cmd/tracecheck trace-smoke-out/spans.jsonl trace-smoke-out/manifest.json

# chaos exercises the fault-injected, self-healing harness end to end.
# First the chaos tests under the race detector: a transient storm must
# retry to results byte-identical to a clean run, a permanent fault must
# cost skips (with attempt counts) and never the run, and a killed
# checkpointed study must resume without re-executing journaled cells.
# Then a chaotic metricstudy run — transients everywhere, one target
# permanently broken — produces the chaos-out/ artifact: every table
# including the skip/attempts table and the retry counters, plus the
# span log, manifest, and metrics dump, which cmd/tracecheck validates
# (including the retry/fault counter algebra).
chaos:
	$(GO) test -race -timeout 30m \
		-run 'TestStudyTransientStormConverges|TestStudyPermanentFaultSkipsNotCrashes|TestStudyCheckpointResume|TestStudyResumeRejectsDifferentOptions' \
		./internal/study
	$(GO) test -race -timeout 30m -run 'TestTable4BytesIdenticalUnderTransientStorm' .
	mkdir -p chaos-out
	$(GO) run ./cmd/metricstudy -quiet -csv \
		-apps avus-standard -targets ARL_Opteron,MHPCC_P3 \
		-faults 'transient:simexec.block:1:2,permanent:simexec.block:1:1::MHPCC_P3' \
		-max-attempts 4 -checkpoint chaos-out/study.ckpt \
		-spans chaos-out/spans.jsonl \
		-manifest chaos-out/manifest.json \
		-prom chaos-out/metrics.prom \
		> chaos-out/tables.csv
	$(GO) run ./cmd/tracecheck chaos-out/spans.jsonl chaos-out/manifest.json chaos-out/metrics.prom

# predictd-smoke boots the prediction server on an ephemeral port with
# span + access logs enabled, waits for the -ready-file handshake, and
# exercises the serving surface with curl into predictd-smoke-out/:
# /healthz, a cold /v1/predict carrying a caller traceparent (the trace
# must round-trip into the access log), the cached re-request ("cached":
# true or the smoke fails), an If-None-Match revalidation that must come
# back 304, two concurrent herds on fresh cells (for coalesced
# followers), /v1/rank, /v1/status, and /metrics. After a SIGTERM drain
# ("predictd: drained and stopped" in the log), tracecheck -serve
# cross-validates the span/access log pair and requires the run to have
# demonstrated the cold/cached/coalesced outcome triple. CI uploads the
# directory as an artifact.
predictd-smoke:
	mkdir -p predictd-smoke-out
	rm -f predictd-smoke-out/addr
	$(GO) build -o predictd-smoke-out/predictd ./cmd/predictd
	$(GO) build -o predictd-smoke-out/tracecheck ./cmd/tracecheck
	./predictd-smoke-out/predictd -addr 127.0.0.1:0 -workers 8 \
		-ready-file predictd-smoke-out/addr \
		-spans predictd-smoke-out/spans.jsonl \
		-access-log predictd-smoke-out/access.jsonl \
		2> predictd-smoke-out/server.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s predictd-smoke-out/addr ] && break; sleep 0.1; done; \
	[ -s predictd-smoke-out/addr ] || { echo "predictd never wrote its ready file"; kill $$pid; exit 1; }; \
	addr=$$(cat predictd-smoke-out/addr); \
	trace=deadbeefdeadbeefdeadbeefdeadbeef; \
	set -e; \
	curl -fsS "http://$$addr/healthz" > predictd-smoke-out/healthz.json; \
	curl -fsS -D predictd-smoke-out/predict-cold.headers \
		-H "traceparent: 00-$$trace-00f067aa0ba902b7-01" \
		"http://$$addr/v1/predict?app=rfcth&procs=16&target=ARL_Opteron&metric=9" \
		> predictd-smoke-out/predict-cold.json; \
	tr -d '\r' < predictd-smoke-out/predict-cold.headers | grep -iq "^traceparent: 00-$$trace-" || \
		{ echo "server did not echo the caller traceparent"; kill $$pid; exit 1; }; \
	curl -fsS -D predictd-smoke-out/predict-cached.headers \
		"http://$$addr/v1/predict?app=rfcth&procs=16&target=ARL_Opteron&metric=9" \
		> predictd-smoke-out/predict-cached.json; \
	grep -q '"cached": true' predictd-smoke-out/predict-cached.json || \
		{ echo "repeat request was not served from cache"; kill $$pid; exit 1; }; \
	etag=$$(tr -d '\r' < predictd-smoke-out/predict-cached.headers | awk -F': ' 'tolower($$1)=="etag"{print $$2}'); \
	[ -n "$$etag" ] || { echo "predict response carried no ETag"; kill $$pid; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$etag" \
		"http://$$addr/v1/predict?app=rfcth&procs=16&target=ARL_Opteron&metric=9"); \
	[ "$$code" = "304" ] || { echo "If-None-Match revalidation returned $$code, want 304"; kill $$pid; exit 1; }; \
	hpids=""; \
	for i in 1 2 3 4; do \
		curl -fsS "http://$$addr/v1/predict?app=rfcth&procs=32&target=ARL_Opteron&metric=9" \
			> predictd-smoke-out/herd32-$$i.json & hpids="$$hpids $$!"; \
	done; \
	for i in 1 2 3 4; do \
		curl -fsS "http://$$addr/v1/predict?app=rfcth&procs=64&target=ARL_Opteron&metric=9" \
			> predictd-smoke-out/herd64-$$i.json & hpids="$$hpids $$!"; \
	done; \
	wait $$hpids; \
	curl -fsS "http://$$addr/v1/rank?app=rfcth&procs=16&metric=9&targets=ARL_Opteron,MHPCC_P3" \
		> predictd-smoke-out/rank.json; \
	curl -fsS "http://$$addr/v1/status" > predictd-smoke-out/status.json; \
	grep -q '"uptime_seconds"' predictd-smoke-out/status.json || \
		{ echo "/v1/status missing uptime"; kill $$pid; exit 1; }; \
	grep -q '"caches"' predictd-smoke-out/status.json || \
		{ echo "/v1/status missing cache stats"; kill $$pid; exit 1; }; \
	curl -fsS "http://$$addr/metrics" > predictd-smoke-out/metrics.prom; \
	grep -q 'predictd_predict_requests_total 11' predictd-smoke-out/metrics.prom || \
		{ echo "metrics exposition predict counter off (want 11 requests)"; kill $$pid; exit 1; }; \
	grep -q 'predictd_not_modified_total 1' predictd-smoke-out/metrics.prom || \
		{ echo "metrics exposition missing the 304 counter"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; \
	grep -q 'drained and stopped' predictd-smoke-out/server.log || \
		{ echo "server did not drain cleanly"; cat predictd-smoke-out/server.log; exit 1; }; \
	grep -q "\"trace\":\"$$trace\"" predictd-smoke-out/access.jsonl || \
		{ echo "caller trace never reached the access log"; exit 1; }; \
	./predictd-smoke-out/tracecheck -serve -require-outcomes cold,cached,coalesced \
		predictd-smoke-out/spans.jsonl predictd-smoke-out/access.jsonl
	@echo "predictd-smoke: OK"

# profile runs the same slice with the Go profilers wired in and prints
# the top CPU consumers; profile-out/ also gets the heap profile.
profile:
	mkdir -p profile-out
	$(GO) run ./cmd/metricstudy -quiet -only table4 \
		-apps avus-standard -targets ARL_Opteron,MHPCC_P3 \
		-cpuprofile profile-out/cpu.pprof -memprofile profile-out/mem.pprof \
		> /dev/null
	$(GO) tool pprof -top -nodecount=15 profile-out/cpu.pprof

fmt:
	gofmt -w .
