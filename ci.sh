#!/usr/bin/env bash
# Tier-1 gate. Run before merging:
#
#   ./ci.sh          # build + vet + tests + race detector
#   ./ci.sh quick    # build + vet + tests (skips the race pass)
#
# The race pass re-runs every test under the race detector — this is what
# proves the parallel experiment engine (internal/experiments.RunMatrix,
# internal/workload.TraceCache) is data-race free, so do not skip it when
# touching the engine, the simulator, or the workload generators.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt -l"
fmt_out="$(gofmt -l .)"
if [[ -n "$fmt_out" ]]; then
	echo "gofmt: files need formatting:" >&2
	echo "$fmt_out" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

# Recorded, not gated: the net production Go line count (non-test .go
# files outside perfbench/ and testdata/), so each change's delta is
# visible in the CI log.
prod_lines="$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' \
	! -path '*/testdata/*' ! -path './.*' -exec cat {} + | wc -l | tr -d ' ')"
echo "ci: production Go lines ${prod_lines}"

echo "== go vet ./..."
go vet ./...

# Fast lint smoke: the analyzer corpora and CFG unit tests finish in a
# couple of seconds and catch a broken analyzer before the full-tree
# lint pass and the race suite spend minutes on it.
echo "== lint smoke (go test -short ./internal/lint)"
go test -short -count=1 ./internal/lint

# Blocking: the repo's own static-analysis suite (internal/lint). Any
# finding — determinism, pool-ownership, context/goroutine discipline,
# float fold order, error handling, or a malformed suppression
# directive — fails the gate; fix it or suppress it with a reasoned
# //pcaplint:ignore. The JSON finding list is kept as a build artifact
# (pcaplint.json, gitignored) for tooling.
echo "== pcaplint ./... (artifact: pcaplint.json)"
if ! go run ./cmd/pcaplint -json ./... >pcaplint.json; then
	echo "ci: pcaplint findings:" >&2
	cat pcaplint.json >&2
	exit 1
fi

echo "== go test ./..."
go test ./...

# Blocking: the CLI's full output must equal the golden file byte for
# byte at one worker and at two. Every experiment run goes through
# RunMatrix, so this drives the CLI's one path at both pool sizes.
echo "== pcapsim -exp all -parallel 1|2 vs suite.golden"
cli_dir="$(mktemp -d)"
trap 'rm -rf "${cli_dir}"' EXIT
go build -o "${cli_dir}/pcapsim" ./cmd/pcapsim
for workers in 1 2; do
	"${cli_dir}/pcapsim" -exp all -parallel "${workers}" >"${cli_dir}/all.txt"
	if ! cmp "${cli_dir}/all.txt" internal/experiments/testdata/suite.golden; then
		echo "ci: pcapsim -exp all -parallel ${workers} differs from suite.golden" >&2
		exit 1
	fi
done
# Blocking: every committed invalid trace (time running backwards, a disk
# access after its process's exit) makes pcapsim -replay exit non-zero
# with sim's invalid-execution error, never print a report.
echo "== pcapsim -replay on internal/sim/testdata/invalid exits non-zero"
for bad in internal/sim/testdata/invalid/*; do
	if "${cli_dir}/pcapsim" -replay "${bad}" >/dev/null 2>"${cli_dir}/err.txt"; then
		echo "ci: pcapsim -replay ${bad} exited 0" >&2
		exit 1
	fi
	if ! grep -q "sim: invalid execution" "${cli_dir}/err.txt"; then
		echo "ci: pcapsim -replay ${bad} failed without the invalid-execution error:" >&2
		cat "${cli_dir}/err.txt" >&2
		exit 1
	fi
done
rm -rf "${cli_dir}"
trap - EXIT

# Blocking: the benchmark of record (perfbench/, its own module) compiles
# against internal/sim, internal/fleet and internal/experiments, which
# the root module's ./... does not reach. Build, vet and test it here so
# an API change there cannot break the benchmark unseen (~30 s).
echo "== perfbench: go vet + go test -short"
(cd perfbench && go vet ./... && go test -short ./...)

if [[ "${1:-}" != "quick" ]]; then
	# -short trims the differential determinism test to 1 and 8 workers,
	# the per-experiment declaration test to four experiments and the
	# streaming differential test to a reduced app × policy matrix (the
	# race detector is 5-20x slower); the shape tests share one matrix
	# run. Every concurrent code path — the matrix passes and the suite's
	# result table, the streamed RunSource pipeline — still runs under
	# the detector.
	echo "== go test -race -short ./..."
	go test -race -short ./...
fi

# Server smoke: boot a real pcapd, drive it with pcapload at 32
# concurrent clients over loopback, and shut it down with SIGTERM. This
# is blocking — a failed job, a non-zero pcapload exit, or an unclean
# drain fails the gate. The recorded run (jobs/s, events/s, latency) is
# appended to the bench artifact below so it lands in BENCH_PR*.json
# alongside the in-process benchmarks. LOAD_TIME stretches the window
# for recorded runs; the default keeps CI fast.
echo "== pcapd/pcapload smoke (32 clients, ${LOAD_TIME:-3s})"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
go build -o "${smoke_dir}/pcapd" ./cmd/pcapd
go build -o "${smoke_dir}/pcapload" ./cmd/pcapload
go build -o "${smoke_dir}/pcapsim" ./cmd/pcapsim
go build -o "${smoke_dir}/tracegen" ./cmd/tracegen
mkdir "${smoke_dir}/traces"
"${smoke_dir}/tracegen" -app mozilla -exec 0 -out "${smoke_dir}/traces" >/dev/null
"${smoke_dir}/pcapd" -addr 127.0.0.1:0 -addrfile "${smoke_dir}/addr" -traces "${smoke_dir}/traces" \
	2>"${smoke_dir}/pcapd.log" &
pcapd_pid=$!
# A failed step below exits with pcapd still running: stop it on the way out.
trap 'kill "${pcapd_pid}" 2>/dev/null || true; rm -rf "${smoke_dir}"' EXIT
for _ in $(seq 1 100); do
	[[ -s "${smoke_dir}/addr" ]] && break
	kill -0 "${pcapd_pid}" 2>/dev/null || break
	sleep 0.1
done
if [[ ! -s "${smoke_dir}/addr" ]]; then
	echo "ci: pcapd failed to start:" >&2
	cat "${smoke_dir}/pcapd.log" >&2
	exit 1
fi
"${smoke_dir}/pcapload" -addr "$(cat "${smoke_dir}/addr")" -c 32 \
	-duration "${LOAD_TIME:-3s}" -benchline | tee "${smoke_dir}/load.txt"
# Blocking: a replay job and a fleet job print exactly what pcapsim
# prints for the same run at one worker and at two. Both call
# experiments.RunSpec.Run; this pins the CLI's flag-to-RunSpec mapping and
# the daemon's JSON-to-RunSpec decoding against each other.
echo "== pcapd jobs vs pcapsim -replay|-fleet -parallel 1|2"
pcapd_url="http://$(cat "${smoke_dir}/addr")"
for workers in 1 2; do
	curl -sf "${pcapd_url}/jobs?wait=1" -d "{\"kind\":\"replay\",\"trace\":\"mozilla-000.pct2\",\"pid\":2,\"from_sec\":10,\"workers\":${workers},\"policies\":[\"base\",\"tp\",\"pcap\"]}" |
		jq -r .output >"${smoke_dir}/job.txt"
	"${smoke_dir}/pcapsim" -replay "${smoke_dir}/traces/mozilla-000.pct2" -pid 2 -from 10s \
		-parallel "${workers}" -policies base,tp,pcap >"${smoke_dir}/cli.txt"
	if ! cmp "${smoke_dir}/job.txt" "${smoke_dir}/cli.txt"; then
		echo "ci: pcapd replay job differs from pcapsim -replay -parallel ${workers}" >&2
		exit 1
	fi
	# A fleet runs every policy in one pass; the one-policy fleet is its
	# one-cell case.
	for policies in base,tp,pcap pcap; do
		curl -sf "${pcapd_url}/jobs?wait=1" -d "{\"kind\":\"fleet\",\"machines\":24,\"duration_sec\":120,\"workers\":${workers},\"policies\":[\"${policies//,/\",\"}\"]}" |
			jq -r .output >"${smoke_dir}/job.txt"
		"${smoke_dir}/pcapsim" -fleet 24 -duration 2m -parallel "${workers}" -policies "${policies}" \
			>"${smoke_dir}/cli.txt"
		if ! cmp "${smoke_dir}/job.txt" "${smoke_dir}/cli.txt"; then
			echo "ci: pcapd fleet job (${policies}) differs from pcapsim -fleet -parallel ${workers}" >&2
			exit 1
		fi
	done
done
# pcapd's peak resident set (VmHWM), read while the process still lives.
# It rides the bench artifact as peak-rss-MB for trend visibility and
# stays out of the gate metric list; where /proc is unreadable it is
# skipped.
if peak_mb="$(awk '/^VmHWM:/ {printf "%.1f", $2 / 1024}' "/proc/${pcapd_pid}/status" 2>/dev/null)" &&
	[[ -n "${peak_mb}" ]]; then
	echo "ci: pcapd peak RSS ${peak_mb} MB"
	printf 'BenchmarkPcapdPeakRSS \t1\t%s peak-rss-MB\n' "${peak_mb}" >>"${smoke_dir}/load.txt"
else
	echo "ci: pcapd peak RSS unreadable; skipped"
fi
kill -TERM "${pcapd_pid}"
wait "${pcapd_pid}"

# Hot-path benchmarks. The sweep itself stays non-blocking (a failed
# bench run or missing artifact never fails the gate), but the recorded
# throughput trajectory now pays rent: once the JSON report is written,
# the benchjson fitness gate compares the headline throughput metrics
# (FullSimulation ios/s, v2 decode events/s) against a baseline report
# and FAILS the build on a >10% regression.
#
# The fresh report goes to bench.json (gitignored), so a CI run never
# rewrites a committed file; recording a new BENCH_PR*.json is a
# deliberate copy of bench.json. The default baseline is the committed
# BENCH_PR10.json. Absolute throughput drifts with the machine across
# days (measured ~20% between the PR 5 and PR 6 recordings with
# bit-identical code; see EXPERIMENTS.md), so on another machine the
# gate compares hardware as well as code. BENCH_BASELINE=parent compares
# code alone: it runs the same filter on the parent commit (HEAD~1) on
# this machine, in a temporary git worktree removed on exit, writes that
# report to bench_parent.json (gitignored) and gates against it. Point
# BENCH_BASELINE at another BENCH_PR*.json for a different comparison,
# or disable with BENCH_GATE=off on a known-noisy runner. The default
# filter is the allocation-sensitive hot path; BENCH_FILTER='.' sweeps
# everything. SuiteParallel (the grouped full-matrix path),
# FleetPeakHeap1k (the fleet's peak live heap, peak-heap-KB), Prefetch
# (one app's three-prefetcher evaluation pass), ReplayFourPolicies (a
# four-policy replay job's one ReplayRows pass, without HTTP) and
# EvalRetained (a capped four-policy eval job repeated over one retaining
# suite, without HTTP) are recorded in the artifact but stay out of the
# gate metric list.
bench_artifact="${BENCH_ARTIFACT:-bench.txt}"
bench_filter="${BENCH_FILTER:-FSCache|TableTrain|TableLookup|CacheFilter|RunApp(Materialized|Streaming)\$|FullSimulation|PCAPOnAccess\$|DecodeV2\$|DecodeV2(Parallel|Pushdown)\$|Fleet(1k|10k)\$|FleetReplay1k\$|FleetPeakHeap1k\$|PcapdSustained\$|SuiteParallel\$|Prefetch\$|ReplayFourPolicies\$|EvalRetained\$}"
echo "== go test -bench (hot path) -benchmem (artifact: ${bench_artifact})"
if go test -run '^$' -bench "${bench_filter}" -benchmem -benchtime "${BENCH_TIME:-1s}" . >"${bench_artifact}" 2>&1; then
	# PcaplintFull runs in its own process, appended to the artifact: it
	# is recorded for trend visibility but deliberately NOT in the gate
	# metric list below (one loader-bound iteration, stdlib re-type-check
	# dominates — far too noisy for the 10% threshold), and its one-shot
	# ~700 MB loader heap measurably perturbs the allocation-sensitive
	# hot-path benches when they share the sweep process.
	echo "== go test -bench PcaplintFull (own process, not gated)"
	if ! go test -run '^$' -bench 'PcaplintFull$' -benchmem . >>"${bench_artifact}" 2>&1; then
		echo "ci: pcaplint bench failed (non-blocking); see ${bench_artifact}" >&2
	fi
	# Fold the recorded pcapload run (already in bench-line format) into
	# the artifact so the load-generator numbers ride the same JSON.
	if [[ -s "${smoke_dir}/load.txt" ]]; then
		cat "${smoke_dir}/load.txt" >>"${bench_artifact}"
	fi
	grep '^Benchmark' "${bench_artifact}" || true
	# Machine-readable perf report: benchmark name → iterations and
	# every metric (ns/op, B/op, allocs/op, ios/s, events/s, ...); schema
	# in EXPERIMENTS.md.
	bench_json="${BENCH_JSON:-bench.json}"
	bench_baseline="${BENCH_BASELINE:-BENCH_PR10.json}"
	if go run ./cmd/benchjson -o "${bench_json}" "${bench_artifact}"; then
		echo "ci: wrote ${bench_json}"
		if [[ "${BENCH_GATE:-on}" != "off" && "${bench_baseline}" == parent ]]; then
			parent_dir="$(mktemp -d)"
			trap 'git worktree remove --force "${parent_dir}/tree" 2>/dev/null || true; rm -rf "${parent_dir}" "${smoke_dir}"' EXIT
			echo "== go test -bench (hot path) on HEAD~1 (baseline: bench_parent.json)"
			git worktree add --detach --quiet "${parent_dir}/tree" HEAD~1
			if ! (cd "${parent_dir}/tree" && go test -run '^$' -bench "${bench_filter}" -benchmem \
				-benchtime "${BENCH_TIME:-1s}" .) >"${parent_dir}/bench.txt" 2>&1; then
				echo "ci: parent benchmarks failed; see below" >&2
				cat "${parent_dir}/bench.txt" >&2
				exit 1
			fi
			go run ./cmd/benchjson -o bench_parent.json "${parent_dir}/bench.txt"
			bench_baseline=bench_parent.json
		fi
		if [[ "${BENCH_GATE:-on}" != "off" && -f "${bench_baseline}" ]]; then
			echo "== benchjson -gate ${bench_baseline} (blocking)"
			go run ./cmd/benchjson -gate "${bench_baseline}" \
				-metrics "BenchmarkFullSimulation:ios/s,BenchmarkDecodeV2:events/s,BenchmarkDecodeV2Parallel:events/s,BenchmarkFleet1k:machines/s,BenchmarkPcapdSustained:jobs/s" \
				-threshold 0.10 "${bench_json}"
		fi
	else
		echo "ci: benchjson failed (non-blocking)" >&2
	fi
else
	echo "ci: benchmarks failed (non-blocking); see ${bench_artifact}" >&2
fi

echo "ci: all gates green"
