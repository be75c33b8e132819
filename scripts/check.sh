#!/bin/sh
# Tier-1 gate for sedna-go: formatting, vet, build, full tests, and race
# tests on the concurrency-sensitive packages. CI and pre-commit both run
# exactly this script; a clean exit is the definition of "tier-1 green".
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -cpu 1,2,4 (core-count matrix on the parallel-path packages) =="
# A 1-core host runs every query serially; force GOMAXPROCS 1, 2 and 4 so
# faults in the parallel fan-out show on any host.
go test -cpu 1,2,4 ./internal/query ./internal/core ./internal/server

echo "== go test -race (concurrency-sensitive packages) =="
go test -race ./internal/metrics ./internal/trace ./internal/buffer ./internal/wal \
    ./internal/txn ./internal/core ./internal/lock ./internal/server ./internal/query \
    ./internal/repl ./internal/resident ./internal/opt

echo "== bench smoke (compile + one iteration of every benchmark) =="
go test -bench=. -benchtime=1x -run '^$' .

echo "== replication smoke (E20: seed, stream, storm, converge) =="
go run ./cmd/sedna-bench -run E20

echo "== introspection smoke (E21: sessions, KILL of a long query, Prometheus round-trip) =="
go run ./cmd/sedna-bench -run E21

echo "== resident-mode smoke (E22: resident vs paged, byte-identity, >=5x warm speedup) =="
go run ./cmd/sedna-bench -run E22

echo "== optimizer smoke (E23: costed plans vs hand-forced, <=1.1x regression, >=2x selective speedup) =="
go run ./cmd/sedna-bench -run E23

echo "== bulk-load smoke (E24: streaming loader vs node-at-a-time, byte-identity, >=3x speedup, crash leg) =="
go run ./cmd/sedna-bench -run E24

echo "check.sh: all green"
