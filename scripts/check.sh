#!/bin/sh
# CI smoke check: fast typecheck, full test suite, and repo-hygiene
# guards. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

# Guard: no build artefacts may be committed. A tracked _build/ path
# means someone ran `git add -A` with a stale .gitignore.
tracked_build=$(git ls-files | grep -E '(^|/)_build/' || true)
if [ -n "$tracked_build" ]; then
    echo "error: build artefacts are tracked by git:" >&2
    echo "$tracked_build" | sed 's/^/  /' >&2
    echo "run: git rm -r --cached _build" >&2
    exit 1
fi

# Independent JSON check: our own parser cannot vouch for our own
# printers, so every JSON artifact the smokes produce must also load
# with Python's json module (NaN/Infinity rejected, as in strict JSON).
# json_ok checks whole files, json_lines_ok one document per line.
json_check() {
    python3 - "$@" <<'PYEOF'
import json, sys
def reject(name):
    raise ValueError("non-standard constant " + name)
mode, paths = sys.argv[1], sys.argv[2:]
for path in paths:
    with open(path, encoding="utf-8") as f:
        docs = [f.read()] if mode == "whole" else f.read().splitlines()
    for n, doc in enumerate(docs, 1):
        try:
            json.loads(doc, parse_constant=reject)
        except ValueError as e:
            sys.exit("error: %s (document %d) is not valid JSON: %s" % (path, n, e))
PYEOF
}
json_ok() { json_check whole "$@"; }
json_lines_ok() { json_check lines "$@"; }

echo "== dune build @check"
dune build @check

echo "== release codegen (no -opaque)"
# The checkout builds in dune's release profile (dune-workspace), so
# ocamlopt inlines across modules; the dev profile's -opaque stops
# every call from the solver into Vec, Order_heap, Gauss and Cnf from
# inlining. Fail when the solver's native compile falls back to it, or
# drops bounds checks or assertions.
solver_rule=$(dune rules _build/default/lib/sat/.sat.objs/native/sat__Solver.cmx)
echo "$solver_rule" | grep -q 'ocamlopt' || {
    echo "error: dune rules printed no ocamlopt rule for sat__Solver.cmx" >&2
    exit 1
}
for flag in -opaque -unsafe -noassert; do
    if echo "$solver_rule" | grep -q -- "$flag\b"; then
        echo "error: sat__Solver.cmx is compiled with $flag (dev codegen or unchecked code)" >&2
        exit 1
    fi
done

echo "== lint"
# Repo-specific rules (determinism, concurrency discipline, hot-path
# hygiene, .mli coverage, observability-name registry) from
# lib/analysis; findings are JSON on stdout, blocking ones fail the
# build. SARIF goes to a scratch file and is structurally validated so
# CI annotation never ingests a malformed document.
lint_dir=$(mktemp -d)
dune exec bin/lint.exe -- --root . --sarif "$lint_dir/lint.sarif" > "$lint_dir/findings.json"
json_ok "$lint_dir/lint.sarif" "$lint_dir/findings.json"
for key in '"version": "2.1.0"' '"runs"' '"tool"' '"unigen-lint"' \
           '"rules"' '"results"' '"physicalLocation"'; do
    grep -q "$key" "$lint_dir/lint.sarif" || {
        echo "error: SARIF output missing $key" >&2
        cat "$lint_dir/lint.sarif" >&2
        exit 1
    }
done
# every emitted result must reference a rule the driver declares
for rid in $(sed -n 's/.*"ruleId": "\([a-z-]*\)".*/\1/p' "$lint_dir/lint.sarif" | sort -u); do
    [ "$rid" = "stale-allowlist" ] && continue   # engine-synthesized
    grep -q "\"id\": \"$rid\"" "$lint_dir/lint.sarif" || {
        echo "error: SARIF result references undeclared rule $rid" >&2
        exit 1
    }
done
rm -rf "$lint_dir"

echo "== dune runtest"
dune runtest

echo "== benchmark self-tests"
# The arithmetic of perfbench (percentiles, host-speed scaling, ledger
# sums) is otherwise only checked when run.py starts a benchmark.
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'
# and the pairing arithmetic of scripts/perf_pairs.py (medians,
# quartiles, change wins, run order, digest parsing)
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s scripts -p 'test_*.py'

echo "== dune runtest (audit mode)"
# Second pass with the correctness-audit subsystem live: sampled
# invariant sweeps, witness re-evaluation, blocking-set and ownership
# checks. A longer sweep period keeps the pass ~2x baseline cost.
UNIGEN_AUDIT=1 UNIGEN_AUDIT_PERIOD=256 dune runtest --force

echo "== xor engine (Gauss engine vs brute force, audit mode)"
# The in-search Gauss engine's enumerations in test/test_gauss.ml must
# match brute force and a from-scratch static RREF, with the invariant
# sanitizer sweeping the matrix state in-search at a short period (the
# gauss-* invariants).
UNIGEN_AUDIT=1 UNIGEN_AUDIT_PERIOD=16 dune exec test/test_gauss.exe

echo "== examples"
# Every program under examples/ is a runnable end-to-end demo (several
# assert on their own witnesses); each must exit 0.
for src in examples/*.ml; do
    exe="examples/$(basename "$src" .ml).exe"
    dune build "./$exe"
    "./_build/default/$exe" > /dev/null || {
        echo "error: $exe exited with status $?" >&2
        exit 1
    }
done

echo "== counting smoke (known-projection cache, audit mode)"
# ApproxMC decides most hashed cells from its cache of found
# projections. With the audit live, every such cell is re-enumerated
# by a fresh solver (invariant known-cell); the estimate must not depend on
# the worker count, and the cache must have decided some cells.
count_dir=$(mktemp -d)
dune exec bin/unigen_cli.exe -- bench-gen case_m1 -o "$count_dir/m1.cnf" > /dev/null
for j in 1 2; do
    dune exec bin/unigen_cli.exe -- count "$count_dir/m1.cnf" -s 5 -d 0.8 -j "$j" \
        --audit --metrics-json "$count_dir/metrics$j.json" > "$count_dir/count$j.out"
    grep '^s mc' "$count_dir/count$j.out" > "$count_dir/mc$j" || {
        echo "error: count -j $j printed no 's mc' line" >&2
        cat "$count_dir/count$j.out" >&2
        exit 1
    }
    python3 - "$count_dir/metrics$j.json" <<'PYEOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
if m.get("approxmc.cells_from_known", 0) <= 0:
    sys.exit("error: %s: approxmc.cells_from_known should be > 0" % sys.argv[1])
PYEOF
done
cmp -s "$count_dir/mc1" "$count_dir/mc2" || {
    echo "error: count -j 1 and -j 2 print different estimates" >&2
    cat "$count_dir/mc1" "$count_dir/mc2" >&2
    exit 1
}
json_ok "$count_dir/metrics1.json" "$count_dir/metrics2.json"
rm -rf "$count_dir"

echo "== draw smoke (known-witness cache, audit mode)"
# UniGen draws decide oversized cells from each domain's cache of found
# witnesses, which starts from ApproxMC's, and take accepted cells'
# cached witnesses from it. With the audit live, every cell that used
# the cache is re-enumerated by a fresh solver (invariant known-cell),
# and every lookup that walked a cell through the projection index is
# compared with a scan (invariant known-index); the witnesses must not
# depend on the worker count, the cache must have decided some cells
# and supplied some witnesses, and some lookups must have walked the
# points of their cells, so that the known-index audit covered walks.
draw_dir=$(mktemp -d)
dune exec bin/unigen_cli.exe -- bench-gen case_m1 -o "$draw_dir/m1.cnf" > /dev/null
for j in 1 2; do
    dune exec bin/unigen_cli.exe -- sample "$draw_dir/m1.cnf" -n 300 -s 9 -j "$j" \
        --audit --metrics-json "$draw_dir/metrics$j.json" > "$draw_dir/sample$j.out"
    grep '^v ' "$draw_dir/sample$j.out" > "$draw_dir/v$j" || {
        echo "error: sample -j $j printed no witness" >&2
        cat "$draw_dir/sample$j.out" >&2
        exit 1
    }
    python3 - "$draw_dir/metrics$j.json" <<'PYEOF'
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
if m.get("unigen.cells_from_known", 0) <= 0:
    sys.exit("error: %s: unigen.cells_from_known should be > 0" % sys.argv[1])
if m.get("unigen.models_from_known", 0) <= 0:
    sys.exit("error: %s: unigen.models_from_known should be > 0" % sys.argv[1])
if m.get("known.walk_points", 0) <= 0:
    sys.exit("error: %s: known.walk_points should be > 0" % sys.argv[1])
PYEOF
done
cmp -s "$draw_dir/v1" "$draw_dir/v2" || {
    echo "error: sample -j 1 and -j 2 print different witnesses" >&2
    exit 1
}
json_ok "$draw_dir/metrics1.json" "$draw_dir/metrics2.json"
rm -rf "$draw_dir"

echo "== allocation budget (sample case_m1 -n 301 -s 9 -j 1)"
# Minor-heap words of one draw run, as the OCaml runtime reports them
# at exit (OCAMLRUNPARAM=v=0x400). At -j 1 the count is the same on
# every run, so the bound is the measured count + 10 %: a solver or
# XOR-propagation path that starts allocating per assignment again
# fails here. The binary runs directly so the runtime report is its
# own, not dune's.
alloc_budget=14012985
alloc_dir=$(mktemp -d)
dune build bin/unigen_cli.exe
dune exec bin/unigen_cli.exe -- bench-gen case_m1 -o "$alloc_dir/m1.cnf" > /dev/null
OCAMLRUNPARAM=v=0x400 ./_build/default/bin/unigen_cli.exe sample "$alloc_dir/m1.cnf" \
    -n 301 -s 9 -j 1 > /dev/null 2> "$alloc_dir/gc.txt"
alloc_words=$(sed -n 's/^minor_words: *//p' "$alloc_dir/gc.txt")
if [ -z "$alloc_words" ] || [ "$alloc_words" -gt "$alloc_budget" ]; then
    echo "error: sample allocated ${alloc_words:-?} minor words (budget $alloc_budget)" >&2
    cat "$alloc_dir/gc.txt" >&2
    exit 1
fi
echo "minor words: $alloc_words (budget $alloc_budget)"
rm -rf "$alloc_dir"

echo "== solver report (sample = count)"
# sample and count print their solver counters from one field list:
# both metrics files must carry a "solver" section with the same keys,
# every value an integer, and the counters must have moved. sample's
# "prepare_solver" section (the preparation's work) has the same keys
# and integer values. sample runs one easy check, which serves as the
# count's too (one bsat.enumerate call), and at -j 1 one warm session
# serves the count and the draws: every session call after the first
# is a reuse hit of one of the two.
solver_dir=$(mktemp -d)
dune exec bin/unigen_cli.exe -- bench-gen case_m1 -o "$solver_dir/m1.cnf" > /dev/null
dune exec bin/unigen_cli.exe -- sample "$solver_dir/m1.cnf" -n 5 -s 9 -j 1 \
    --metrics-json "$solver_dir/sample.json" > /dev/null
dune exec bin/unigen_cli.exe -- count "$solver_dir/m1.cnf" -s 9 -e 0.8 -d 0.8 -j 1 \
    --metrics-json "$solver_dir/count.json" > /dev/null
python3 - "$solver_dir/sample.json" "$solver_dir/count.json" <<'PYEOF'
import json, sys
reports = [json.load(open(p)) for p in sys.argv[1:]]
sections = [r.get("solver") for r in reports]
for path, sec in zip(sys.argv[1:], sections):
    if not sec:
        sys.exit("error: %s has no solver section" % path)
    if not all(type(v) is int for v in sec.values()):
        sys.exit("error: %s: solver counters must be integers: %r" % (path, sec))
    if sec.get("conflicts", 0) <= 0 or sec.get("propagations", 0) <= 0:
        sys.exit("error: %s: solver counters did not move: %r" % (path, sec))
if list(sections[0]) != list(sections[1]):
    sys.exit("error: sample and count report different solver keys: %r vs %r"
             % (list(sections[0]), list(sections[1])))
prep = reports[0].get("prepare_solver")
if not prep:
    sys.exit("error: %s has no prepare_solver section" % sys.argv[1])
if list(prep) != list(sections[0]):
    sys.exit("error: prepare_solver and solver report different keys: %r vs %r"
             % (list(prep), list(sections[0])))
if not all(type(v) is int for v in prep.values()):
    sys.exit("error: prepare_solver counters must be integers: %r" % prep)
calls = reports[0].get("phase_calls", {})
if calls.get("bsat.enumerate") != 1:
    sys.exit("error: sample ran %r one-shot enumerations, not one easy check"
             % calls.get("bsat.enumerate"))
reuses = prep["reuse_hits"] + sections[0]["reuse_hits"]
if calls.get("bsat.session.enumerate") != reuses + 1:
    sys.exit("error: sample made %r session calls, not one plus its %d reuse hits "
             "(one session for the count and the draws)"
             % (calls.get("bsat.session.enumerate"), reuses))
PYEOF
rm -rf "$solver_dir"

echo "== service smoke (default --jobs 1)"
# End-to-end daemon check over a real socket: start `unigen serve` on a
# temp socket, issue the same request twice on the same formula, verify
# the second is served from the prepared-state cache (the daemon's
# metrics JSON must report exactly one hit and one miss), then shut
# down gracefully and confirm the metrics file was flushed on exit.
smoke_dir=$(mktemp -d)
serve_pid=
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
sock="$smoke_dir/unigen.sock"
metrics="$smoke_dir/metrics.json"
cat > "$smoke_dir/smoke.cnf" <<'EOF'
p cnf 6 3
c ind 1 2 3 4 0
1 2 3 0
-2 4 0
x 5 6 0
EOF
dune exec bin/unigen_cli.exe -- serve --socket "$sock" \
    --metrics-json "$metrics" > "$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "error: daemon did not create $sock" >&2; exit 1; }
client() {
    dune exec bin/unigen_cli.exe -- client "$smoke_dir/smoke.cnf" \
        --socket "$sock" -n 3 -s 7 "$@"
}
client > "$smoke_dir/jobs1.out"
grep -q 'cache=miss' "$smoke_dir/jobs1.out" || { echo "error: first request should miss" >&2; exit 1; }
client | grep -q 'cache=hit'  || { echo "error: second request should hit the cache" >&2; exit 1; }
client --shutdown > /dev/null
wait "$serve_pid"
grep -q '"service.cache_hits": 1' "$metrics" || {
    echo "error: metrics JSON should record exactly one cache hit" >&2
    cat "$metrics" >&2
    exit 1
}
grep -q '"service.cache_misses": 1' "$metrics" || {
    echo "error: metrics JSON should record exactly one cache miss" >&2
    exit 1
}
json_ok "$metrics"

echo "== service smoke (--jobs 2, audit mode)"
# Same end-to-end flow against a daemon that executes requests on
# worker domains, with the correctness audit live so Audit.Ownership
# single-owner tags are checked with two workers. Witnesses must stay
# bit-identical to the default (jobs 1) daemon's for the same seeds.
sock2="$smoke_dir/unigen2.sock"
UNIGEN_AUDIT=1 UNIGEN_AUDIT_PERIOD=16 dune exec bin/unigen_cli.exe -- serve \
    --socket "$sock2" --jobs 2 > "$smoke_dir/serve2.log" 2>&1 &
serve2_pid=$!
trap 'kill "$serve_pid" "$serve2_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
for _ in $(seq 1 100); do
    [ -S "$sock2" ] && break
    sleep 0.1
done
[ -S "$sock2" ] || { echo "error: parallel daemon did not create $sock2" >&2; cat "$smoke_dir/serve2.log" >&2; exit 1; }
client2() {
    dune exec bin/unigen_cli.exe -- client "$smoke_dir/smoke.cnf" \
        --socket "$sock2" -n 3 -s 7 "$@"
}
client2 > "$smoke_dir/par1.out"
grep -q 'cache=miss' "$smoke_dir/par1.out" || { echo "error: first parallel request should miss" >&2; exit 1; }
client2 > "$smoke_dir/par2.out"
grep -q 'cache=hit' "$smoke_dir/par2.out" || { echo "error: second parallel request should hit" >&2; exit 1; }
# determinism across daemons and cache states: the parallel daemon's
# witnesses (miss and hit path alike) must be bit-identical to the
# default (jobs 1) daemon's for the same formula and seeds
grep '^v ' "$smoke_dir/jobs1.out" > "$smoke_dir/jobs1.witness"
grep '^v ' "$smoke_dir/par1.out" > "$smoke_dir/par1.witness"
grep '^v ' "$smoke_dir/par2.out" > "$smoke_dir/par2.witness"
cmp -s "$smoke_dir/jobs1.witness" "$smoke_dir/par1.witness" || {
    echo "error: --jobs 2 daemon's witnesses differ from the --jobs 1 daemon's" >&2
    exit 1
}
cmp -s "$smoke_dir/par1.witness" "$smoke_dir/par2.witness" || {
    echo "error: parallel daemon's miss and hit paths disagree on witnesses" >&2
    exit 1
}
client2 --shutdown > /dev/null
wait "$serve2_pid"

echo "== daemon = sample (default --jobs 1)"
# The daemon prepares on the same stream-per-iteration ApproxMC loop as
# `unigen sample` and draws witness i from stream (seed, i), so for the
# same formula, epsilon, seeds and max_attempts it must answer exactly
# what `sample` prints. The formula (13 variables, sampling set = all
# of them, 5696 witnesses) sits near a q boundary, where a differently
# ordered count loop derives another q at this seed.
sock_eq="$smoke_dir/unigen_eq.sock"
cat > "$smoke_dir/near_q.cnf" <<'EOF'
p cnf 13 7
c ind 1 2 3 4 5 6 7 8 9 10 11 12 13 0
13 -7 -1 -5 9 0
-9 -3 5 -12 0
5 2 12 -6 0
9 -8 -12 13 0
-12 11 -13 -1 8 0
4 -3 -9 -8 0
-2 -5 -9 -12 -13 0
EOF
dune exec bin/unigen_cli.exe -- serve --socket "$sock_eq" \
    > "$smoke_dir/serve_eq.log" 2>&1 &
serve_eq_pid=$!
trap 'kill "$serve_pid" "$serve2_pid" "$serve_eq_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
for _ in $(seq 1 100); do
    [ -S "$sock_eq" ] && break
    sleep 0.1
done
[ -S "$sock_eq" ] || { echo "error: daemon did not create $sock_eq" >&2; cat "$smoke_dir/serve_eq.log" >&2; exit 1; }
dune exec bin/unigen_cli.exe -- client "$smoke_dir/near_q.cnf" \
    --socket "$sock_eq" --prepare-seed 9 --seed 9 -n 8 --max-attempts 20 \
    | grep '^v ' > "$smoke_dir/daemon_eq.witness"
dune exec bin/unigen_cli.exe -- sample "$smoke_dir/near_q.cnf" -n 8 -s 9 \
    | grep '^v ' > "$smoke_dir/sample_eq.witness"
[ "$(wc -l < "$smoke_dir/sample_eq.witness")" -eq 8 ] || {
    echo "error: sample should print 8 witnesses" >&2
    exit 1
}
cmp -s "$smoke_dir/daemon_eq.witness" "$smoke_dir/sample_eq.witness" || {
    echo "error: the daemon's witnesses differ from unigen sample's" >&2
    exit 1
}
dune exec bin/unigen_cli.exe -- client --socket "$sock_eq" --shutdown > /dev/null
wait "$serve_eq_pid"

echo "== telemetry smoke (structured log, trace ids, monitor)"
# Daemon with the structured event log enabled: drive a miss and a hit,
# assert one service.request JSON line per request carrying the full
# per-request schema, that a client-supplied trace id is echoed end to
# end (response AND log line), that the server mints an id when the
# client sends none, and that `unigen monitor --once` renders the
# rolling-window report and exits 0.
sock3="$smoke_dir/unigen3.sock"
log3="$smoke_dir/events.jsonl"
dune exec bin/unigen_cli.exe -- serve --socket "$sock3" \
    --log-file "$log3" > "$smoke_dir/serve3.log" 2>&1 &
serve3_pid=$!
trap 'kill "$serve_pid" "$serve2_pid" "$serve_eq_pid" "$serve3_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
for _ in $(seq 1 100); do
    [ -S "$sock3" ] && break
    sleep 0.1
done
[ -S "$sock3" ] || { echo "error: telemetry daemon did not create $sock3" >&2; cat "$smoke_dir/serve3.log" >&2; exit 1; }
client3() {
    dune exec bin/unigen_cli.exe -- client "$smoke_dir/smoke.cnf" \
        --socket "$sock3" -n 3 -s 7 "$@"
}
client3 --trace-id smoke-req-1 > "$smoke_dir/tel1.out"
grep -q 'cache=miss' "$smoke_dir/tel1.out" || { echo "error: first telemetry request should miss" >&2; exit 1; }
grep -q 'trace_id=smoke-req-1' "$smoke_dir/tel1.out" || {
    echo "error: client-supplied trace id not echoed in the response" >&2
    cat "$smoke_dir/tel1.out" >&2
    exit 1
}
client3 > "$smoke_dir/tel2.out"
grep -q 'cache=hit' "$smoke_dir/tel2.out" || { echo "error: second telemetry request should hit" >&2; exit 1; }
grep -q 'trace_id=req-' "$smoke_dir/tel2.out" || {
    echo "error: server should mint a trace id when the client sends none" >&2
    cat "$smoke_dir/tel2.out" >&2
    exit 1
}
dune exec bin/unigen_cli.exe -- monitor "$sock3" --once > "$smoke_dir/monitor.out" || {
    echo "error: monitor --once failed" >&2
    exit 1
}
grep -q 'requests' "$smoke_dir/monitor.out" || {
    echo "error: monitor output missing the window report" >&2
    cat "$smoke_dir/monitor.out" >&2
    exit 1
}
client3 --shutdown > /dev/null
wait "$serve3_pid"
req_lines=$(grep -c '"event": "service.request"' "$log3" || true)
[ "$req_lines" = "2" ] || {
    echo "error: expected 2 service.request log lines, got $req_lines" >&2
    cat "$log3" >&2
    exit 1
}
for key in ts level trace_id fingerprint outcome queue_ms prepare_ms draw_ms cache; do
    [ "$(grep '"event": "service.request"' "$log3" | grep -c "\"$key\"")" = "2" ] || {
        echo "error: service.request log lines missing \"$key\"" >&2
        cat "$log3" >&2
        exit 1
    }
done
grep -q '"trace_id": "smoke-req-1"' "$log3" || {
    echo "error: log should record the client-supplied trace id" >&2
    cat "$log3" >&2
    exit 1
}
grep -q '"event": "service.start"' "$log3" || { echo "error: missing service.start event" >&2; exit 1; }
grep -q '"event": "service.stop"' "$log3" || { echo "error: missing service.stop event" >&2; exit 1; }
json_lines_ok "$log3"

echo "== durable store smoke (restart persistence)"
# Daemon with a spill directory: a cold miss spills the preparation to
# disk; a restarted daemon over the same directory serves it disk-warm
# (cache=disk, no ApproxMC re-run) with bit-identical witnesses; a
# corrupted spill entry is quarantined and falls back to a clean
# re-preparation — witnesses still identical.
spill="$smoke_dir/spill"
sock4="$smoke_dir/unigen4.sock"
serve4() {
    rm -f "$sock4"
    dune exec bin/unigen_cli.exe -- serve --socket "$sock4" \
        --spill-dir "$spill" >> "$smoke_dir/serve4.log" 2>&1 &
    serve4_pid=$!
    trap 'kill "$serve_pid" "$serve2_pid" "$serve_eq_pid" "$serve3_pid" "$serve4_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    for _ in $(seq 1 100); do
        [ -S "$sock4" ] && break
        sleep 0.1
    done
    [ -S "$sock4" ] || { echo "error: durable daemon did not create $sock4" >&2; cat "$smoke_dir/serve4.log" >&2; exit 1; }
}
client4() {
    dune exec bin/unigen_cli.exe -- client "$smoke_dir/smoke.cnf" \
        --socket "$sock4" -n 3 -s 7 "$@"
}
serve4
client4 > "$smoke_dir/dur1.out"
grep -q 'cache=miss' "$smoke_dir/dur1.out" || { echo "error: first durable request should miss" >&2; exit 1; }
client4 | grep -q 'cache=hit' || { echo "error: second durable request should hit RAM" >&2; exit 1; }
client4 --shutdown > /dev/null
wait "$serve4_pid"
ls "$spill"/*.prep > /dev/null 2>&1 || {
    echo "error: preparation was not spilled to $spill" >&2
    ls -la "$spill" >&2 || true
    exit 1
}
# generation 2: restart over the same spill directory
serve4
client4 > "$smoke_dir/dur2.out"
grep -q 'cache=disk' "$smoke_dir/dur2.out" || {
    echo "error: restarted daemon should serve disk-warm (cache=disk)" >&2
    cat "$smoke_dir/dur2.out" >&2
    exit 1
}
grep '^v ' "$smoke_dir/dur1.out" > "$smoke_dir/dur1.witness"
grep '^v ' "$smoke_dir/dur2.out" > "$smoke_dir/dur2.witness"
cmp -s "$smoke_dir/dur1.witness" "$smoke_dir/dur2.witness" || {
    echo "error: disk-warm witnesses differ from the cold run's" >&2
    exit 1
}
client4 --status > "$smoke_dir/dur_status.out"
grep -q 'store.hit = 1' "$smoke_dir/dur_status.out" || {
    echo "error: status should report the store.hit counter" >&2
    cat "$smoke_dir/dur_status.out" >&2
    exit 1
}
client4 --shutdown > /dev/null
wait "$serve4_pid"
# generation 3: corrupt the spill entry; the daemon must quarantine it
# and re-prepare cleanly
for prep in "$spill"/*.prep; do
    printf 'bit rot' >> "$prep"
done
serve4
client4 > "$smoke_dir/dur3.out"
grep -q 'cache=miss' "$smoke_dir/dur3.out" || {
    echo "error: corrupt spill entry should fall back to a clean miss" >&2
    cat "$smoke_dir/dur3.out" >&2
    exit 1
}
[ -n "$(ls "$spill/quarantine" 2>/dev/null)" ] || {
    echo "error: corrupt spill entry was not quarantined" >&2
    ls -la "$spill" >&2 || true
    exit 1
}
grep '^v ' "$smoke_dir/dur3.out" > "$smoke_dir/dur3.witness"
cmp -s "$smoke_dir/dur1.witness" "$smoke_dir/dur3.witness" || {
    echo "error: re-prepared witnesses differ after quarantine" >&2
    exit 1
}
client4 --shutdown > /dev/null
wait "$serve4_pid"

echo "ok"
