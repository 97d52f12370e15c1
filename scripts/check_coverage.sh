#!/bin/sh
# check_coverage.sh — per-package coverage floors.
#
# Reads `go test -cover ./...` output on stdin, prints a summary table,
# and fails if any package with a floor regresses below it. Floors are
# set ~2 points below the measured baseline so ordinary refactoring
# noise passes but deleting a test file does not. When you raise a
# package's coverage, raise its floor here in the same PR.
#
# Usage: go test -cover ./... | scripts/check_coverage.sh

floors='
scionmpr/cmd/beaconsim 22
scionmpr/cmd/chaossim 56
scionmpr/cmd/pathserve 59
scionmpr/cmd/topogen 25
scionmpr/cmd/trafficsim 46
scionmpr/internal/addr 92
scionmpr/internal/beacon 90
scionmpr/internal/bgp 87
scionmpr/internal/bgpsec 88
scionmpr/internal/chaos 88
scionmpr/internal/combinator 96
scionmpr/internal/core 91
scionmpr/internal/dataplane 80
scionmpr/internal/deploy 91
scionmpr/internal/experiments 87
scionmpr/internal/graphalg 97
scionmpr/internal/metrics 95
scionmpr/internal/pathdb 83
scionmpr/internal/pathsrv 92
scionmpr/internal/seg 77
scionmpr/internal/sig 93
scionmpr/internal/slayers 88
scionmpr/internal/sim 77
scionmpr/internal/strategy 96
scionmpr/internal/telemetry 88
scionmpr/internal/topology 93
scionmpr/internal/traffic 88
scionmpr/internal/trust 89
scionmpr/internal/wire 95
scionmpr/scion 88
'

awk -v floors="$floors" '
BEGIN {
    n = split(floors, lines, "\n")
    for (i = 1; i <= n; i++) {
        if (split(lines[i], f, " ") == 2) floor[f[1]] = f[2] + 0
    }
    fail = 0
}
/coverage: [0-9.]+% of statements/ {
    pkg = ($1 == "ok") ? $2 : $1
    for (i = 1; i <= NF; i++) {
        if ($i == "coverage:") { pct = $(i + 1) + 0; break }
    }
    seen[pkg] = 1
    if (pkg in floor) {
        if (pct < floor[pkg]) {
            printf "FAIL  %-34s %6.1f%%  (floor %d%%)\n", pkg, pct, floor[pkg]
            fail = 1
        } else {
            printf "ok    %-34s %6.1f%%  (floor %d%%)\n", pkg, pct, floor[pkg]
        }
    } else {
        printf "      %-34s %6.1f%%  (no floor)\n", pkg, pct
    }
}
END {
    missing = 0
    for (pkg in floor) {
        if (!(pkg in seen)) {
            printf "FAIL  %-34s  missing from test output (floor %d%%)\n", pkg, floor[pkg]
            missing = 1
        }
    }
    if (fail || missing) {
        print "coverage check failed"
        exit 1
    }
    print "coverage check passed"
}
'
