#!/bin/sh
# lint.sh — static analysis behind `make lint`.
#
# Three layers, strictest last: gofmt (formatting), go vet (generic
# correctness), and ggvet (the repo's own domain-aware suite in
# internal/lint: determinism of the simulation core, event-pool
# hygiene, telemetry naming, context plumbing, lock order and
# goroutine tracking). Any finding prints file:line diagnostics and
# exits non-zero.
set -eu

GO=${GO:-go}
GOFMT=${GOFMT:-"$($GO env GOROOT)/bin/gofmt"}
[ -x "$GOFMT" ] || GOFMT=gofmt

status=0

unformatted=$("$GOFMT" -l .)
if [ -n "$unformatted" ]; then
    echo "lint: gofmt wants to rewrite:" >&2
    echo "$unformatted" | sed 's/^/\t/' >&2
    status=1
fi

if ! $GO vet ./...; then
    status=1
fi

if ! $GO run ./cmd/ggvet ./...; then
    status=1
fi

exit $status
