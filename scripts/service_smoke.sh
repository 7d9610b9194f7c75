#!/usr/bin/env bash
# Job-service smoke: serve → submit → poll → kill -9 mid-assembly →
# restart → assert the job resumes and its contigs are byte-identical
# to the contigs.fasta of an uninterrupted one-shot run's run directory.  This is the shell replay of
# tests/service/test_crash_recovery.py, run by CI as a black-box check
# of the installed entry point.
#
# Environment:
#   REPRO_ASSEMBLE  command to invoke (default: repro-assemble on PATH;
#                   use "python -m repro.cli" with PYTHONPATH=src)
#   SMOKE_PORT      TCP port for the service (default 8650)
set -euo pipefail

ASSEMBLE=(${REPRO_ASSEMBLE:-repro-assemble})
PORT="${SMOKE_PORT:-8650}"
URL="http://127.0.0.1:$PORT"
DATA_DIR="$(mktemp -d)"
GENOME=24000
SEED=13
K=17
SERVER_PID=""

cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$DATA_DIR"
}
trap cleanup EXIT

start_server() {
    # Short lease + fast reaper: after a kill -9 the orphaned worker
    # process fences itself out within a heartbeat tick (lease/3) and
    # the restarted server reclaims the job in ~2s instead of 15.
    "${ASSEMBLE[@]}" serve --data-dir "$DATA_DIR/service" --port "$PORT" \
        --workers 1 --poll-interval 0.05 --lease-seconds 2 --reap-interval 0.2 &
    SERVER_PID=$!
    for _ in $(seq 1 200); do
        if curl -fsS "$URL/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "service_smoke: server did not come up" >&2
    exit 1
}

job_field() {  # job_field <id> <python expr over doc>
    curl -fsS "$URL/jobs/$1" | python -c "import json,sys; doc=json.load(sys.stdin); print($2)"
}

echo "== reference: uninterrupted one-shot run =="
"${ASSEMBLE[@]}" --simulate "$GENOME" --seed "$SEED" -k "$K" --workers 2 \
    --quiet --run-dir "$DATA_DIR/reference"

echo "== start service =="
start_server

echo "== submit =="
JOB=$(curl -fsS -X POST "$URL/jobs" -H 'Content-Type: application/json' \
    -d "{\"input\": {\"mode\": \"simulate\", \"genome_length\": $GENOME, \"seed\": $SEED},
         \"config\": {\"k\": $K, \"num_workers\": 2}}" \
    | python -c 'import json,sys; print(json.load(sys.stdin)["job"]["id"])')
echo "job $JOB"

echo "== wait for the first checkpoint, then kill -9 =="
CHECKPOINTS=0
for _ in $(seq 1 600); do
    CHECKPOINTS=$(curl -fsS "$URL/jobs/$JOB/events" | python -c \
        'import json,sys; print(sum(1 for e in json.load(sys.stdin)["events"] if e["type"] == "checkpoint"))')
    if [ "$CHECKPOINTS" -ge 1 ]; then
        break
    fi
    sleep 0.05
done
if [ "$CHECKPOINTS" -lt 1 ]; then
    echo "service_smoke: job never checkpointed" >&2
    exit 1
fi
STATE=$(job_field "$JOB" 'doc["job"]["state"]')
if [ "$STATE" != "running" ] && [ "$STATE" != "queued" ]; then
    echo "service_smoke: job already $STATE; cannot kill mid-assembly" >&2
    exit 1
fi
echo "== scrape /metrics mid-run: well-formed Prometheus text + core series =="
curl -fsS "$URL/metrics" | python -c '
import re, sys
text = sys.stdin.read()
sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$")
lines = [l for l in text.splitlines() if l and not l.startswith("#")]
assert lines, "empty /metrics exposition"
for line in lines:
    assert sample.match(line), f"malformed sample line: {line!r}"
for series in (
    "repro_jobs_queued",
    "repro_jobs_running",
    "repro_jobs_submitted_total 1",
    "repro_http_requests_total",
    "repro_http_request_seconds_bucket",
    "repro_claim_latency_seconds_count",
):
    assert series in text, f"missing series: {series}"
print(f"/metrics OK mid-run ({len(lines)} samples)")
'

echo "killing server (job $STATE, $CHECKPOINTS checkpoint(s) written)"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "== restart: the job must resume and finish =="
start_server
STATE=""
for _ in $(seq 1 1200); do
    STATE=$(job_field "$JOB" 'doc["job"]["state"]')
    case "$STATE" in
        succeeded) break ;;
        failed|cancelled)
            echo "service_smoke: job ended $STATE after restart" >&2
            job_field "$JOB" 'doc["job"]["error"]' >&2 || true
            exit 1 ;;
    esac
    sleep 0.25
done
if [ "$STATE" != "succeeded" ]; then
    echo "service_smoke: job did not finish after restart" >&2
    exit 1
fi

echo "== assert the resume actually resumed =="
curl -fsS "$URL/jobs/$JOB/events" | python -c '
import json, sys
types = [event["type"] for event in json.load(sys.stdin)["events"]]
assert "recovered" in types, f"no recovery event: {types}"
assert "stage-skipped" in types, f"resume recomputed everything: {types}"
print(f"recovered; {types.count('"'"'stage-skipped'"'"')} stages skipped on resume")
'

echo "== assert byte-identical contigs =="
curl -fsS "$URL/jobs/$JOB/contigs.fasta" > "$DATA_DIR/resumed.fa"
cmp "$DATA_DIR/reference/contigs.fasta" "$DATA_DIR/resumed.fa"

echo "== scrape /metrics after success: superstep counters populated =="
curl -fsS "$URL/metrics" | python -c '
import re, sys
text = sys.stdin.read()
messages = re.search(r"^repro_pregel_messages_total\{[^}]*\} (\d+)", text, re.M)
assert messages, "no repro_pregel_messages_total series after a finished job"
assert int(messages.group(1)) > 0, "superstep message counter stayed zero"
assert re.search(r"^repro_jobs_completed_total\{state=\"succeeded\"\} 1$", text, re.M), \
    "job completion not counted"
print(f"/metrics OK after success ({messages.group(1)} Pregel messages counted)")
'

echo "== fetch the job trace =="
curl -fsS "$URL/jobs/$JOB/trace" | python -c '
import json, sys
root = json.load(sys.stdin)["trace"]
assert root["name"].startswith("job:"), root["name"]
assert root["children"][0]["name"] == "workflow:ppa-assembly"
name, outcome = root["name"], root["attributes"]["outcome"]
print(f"trace OK (root {name}, outcome {outcome})")
'

echo "== fetch the run timeline: superstep series present and sorted =="
curl -fsS "$URL/jobs/$JOB/timeline" | python -c '
import json, sys
events = json.load(sys.stdin)["events"]
kinds = {}
for event in events:
    kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
for kind in ("superstep", "stage-start", "stage-end", "sample"):
    assert kinds.get(kind, 0) > 0, f"no {kind} events in timeline: {kinds}"
timestamps = [event["ts"] for event in events]
assert timestamps == sorted(timestamps), "timeline not sorted by ts"
print(f"timeline OK ({len(events)} events: {kinds})")
'

echo "== render the ops report (kept for CI artifact upload) =="
REPORT_PATH="${SMOKE_REPORT:-/tmp/service_smoke_report.html}"
curl -fsS "$URL/jobs/$JOB/report" > "$REPORT_PATH"
python - "$REPORT_PATH" <<'PYEOF'
import sys, xml.etree.ElementTree as ET
path = sys.argv[1]
with open(path, encoding="utf-8") as handle:
    html = handle.read()
root = ET.fromstring(html)  # no DOCTYPE, void tags closed: XML-parseable
assert root.tag == "html", root.tag
for needle in ("Span waterfall", "Resident set size"):
    assert needle in html, f"missing report section: {needle}"
print(f"report OK ({len(html)} bytes -> {path})")
PYEOF

echo "== render the dashboard =="
curl -fsS "$URL/dashboard" > "$DATA_DIR/dashboard.html"
python - "$JOB" "$DATA_DIR/dashboard.html" <<'PYEOF'
import sys, xml.etree.ElementTree as ET
job_id, path = sys.argv[1], sys.argv[2]
with open(path, encoding="utf-8") as handle:
    html = handle.read()
ET.fromstring(html)
assert job_id[:12] in html, "finished job missing from dashboard"
assert f'href="/jobs/{job_id}/report"' in html, "dashboard does not link the report"
print(f"dashboard OK ({len(html)} bytes)")
PYEOF

echo "== chaos: kill -9 a worker process mid-job; NO server restart =="
CHAOS_JOB=$(curl -fsS -X POST "$URL/jobs" -H 'Content-Type: application/json' \
    -d "{\"input\": {\"mode\": \"simulate\", \"genome_length\": $GENOME, \"seed\": $SEED},
         \"config\": {\"k\": $K, \"num_workers\": 2},
         \"retry\": {\"backoff_seconds\": 0.1}}" \
    | python -c 'import json,sys; print(json.load(sys.stdin)["job"]["id"])')
echo "chaos job $CHAOS_JOB"
CHECKPOINTS=0
for _ in $(seq 1 600); do
    CHECKPOINTS=$(curl -fsS "$URL/jobs/$CHAOS_JOB/events" | python -c \
        'import json,sys; print(sum(1 for e in json.load(sys.stdin)["events"] if e["type"] == "checkpoint"))')
    if [ "$CHECKPOINTS" -ge 1 ]; then
        break
    fi
    sleep 0.05
done
if [ "$CHECKPOINTS" -lt 1 ]; then
    echo "service_smoke: chaos job never checkpointed" >&2
    exit 1
fi
WORKER_PID=$(curl -fsS "$URL/healthz" | python -c \
    'import json,sys; pids=json.load(sys.stdin)["worker_pids"]; print(pids[0] if pids else "")')
if [ -z "$WORKER_PID" ]; then
    echo "service_smoke: no worker process pid in /healthz" >&2
    exit 1
fi
echo "killing worker process $WORKER_PID ($CHECKPOINTS checkpoint(s) written)"
kill -9 "$WORKER_PID"

STATE=""
for _ in $(seq 1 1200); do
    STATE=$(job_field "$CHAOS_JOB" 'doc["job"]["state"]')
    case "$STATE" in
        succeeded) break ;;
        failed|cancelled|poisoned)
            echo "service_smoke: chaos job ended $STATE" >&2
            job_field "$CHAOS_JOB" 'doc["job"]["error"]' >&2 || true
            exit 1 ;;
    esac
    sleep 0.25
done
if [ "$STATE" != "succeeded" ]; then
    echo "service_smoke: chaos job did not finish after the worker kill" >&2
    exit 1
fi

echo "== assert the supervisor reclaimed and the retry resumed =="
ATTEMPTS=$(job_field "$CHAOS_JOB" 'doc["job"]["attempts"]')
if [ "$ATTEMPTS" -lt 2 ]; then
    echo "service_smoke: expected a retry, got attempts=$ATTEMPTS" >&2
    exit 1
fi
curl -fsS "$URL/jobs/$CHAOS_JOB/events" | python -c '
import json, sys
types = [event["type"] for event in json.load(sys.stdin)["events"]]
assert "recovered" in types, f"no recovery event: {types}"
assert "stage-skipped" in types, f"retry recomputed everything: {types}"
print(f"worker death recovered; {types.count('"'"'stage-skipped'"'"')} stages skipped on retry")
'

echo "== assert worker-death metrics =="
curl -fsS "$URL/metrics" | python -c '
import re, sys
text = sys.stdin.read()
deaths = re.search(r"^repro_worker_deaths_total\{reason=\"signal-9\"\} (\d+)", text, re.M)
assert deaths and int(deaths.group(1)) >= 1, "worker SIGKILL not counted"
reclaims = re.search(r"^repro_lease_reclaims_total\{[^}]*\} (\d+)", text, re.M)
assert reclaims and int(reclaims.group(1)) >= 1, "lease reclaim not counted"
print(f"/metrics OK after chaos ({deaths.group(1)} worker death(s) counted)")
'

echo "== assert byte-identical contigs after the worker kill =="
curl -fsS "$URL/jobs/$CHAOS_JOB/contigs.fasta" > "$DATA_DIR/chaos.fa"
cmp "$DATA_DIR/reference/contigs.fasta" "$DATA_DIR/chaos.fa"

echo "service_smoke: resume-to-identical-result OK (server restart and worker kill)"
