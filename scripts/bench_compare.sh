#!/usr/bin/env bash
# bench_compare.sh OLD.json NEW.json [threshold-pct]
#
# Compares allocs/op between two benchmark capture files produced with
#   go test -json -run '^$' -bench ... -benchmem ... > BENCH_prN.json
# and fails (exit 1) if any benchmark present in BOTH files grew its
# allocs/op by more than the threshold (default 20%).
# Benchmarks that exist in only one file are reported and skipped —
# capture files from different PRs cover different packages.
set -euo pipefail

# Reassemble the benchmark output lines from the go-test-json stream: the
# Output payload of one logical line is split across several JSON events,
# so concatenate all payloads first and split on the escaped newlines.
# Prints "name metric value" per (benchmark, metric) pair.
extract() {
    awk '
    {
        line = $0
        while (match(line, /"Output":"/)) {
            s = substr(line, RSTART + RLENGTH)
            # The Output value runs to the next unescaped quote.
            out = ""
            while (match(s, /"/)) {
                chunk = substr(s, 1, RSTART - 1)
                out = out chunk
                if (chunk ~ /\\$/) {      # escaped quote, keep scanning
                    out = out "\""
                    s = substr(s, RSTART + 1)
                    continue
                }
                s = substr(s, RSTART + 1)
                break
            }
            buf = buf out
            line = s
        }
    }
    END {
        gsub(/\\t/, "\t", buf)
        n = split(buf, lines, /\\n/)
        for (i = 1; i <= n; i++) {
            ln = lines[i]
            if (ln !~ /^Benchmark[A-Za-z0-9_]/) continue
            nf = split(ln, f, /[ \t]+/)
            if (nf < 4) continue
            name = f[1]
            sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
            for (j = 3; j < nf; j++) {
                if (f[j + 1] == "allocs/op") {
                    print name, f[j + 1], f[j]
                }
            }
        }
    }' "$1"
}

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 OLD.json NEW.json [threshold-pct]" >&2
    exit 2
fi
old_file=$1
new_file=$2
threshold=${3:-20}

old_data=$(extract "$old_file")
new_data=$(extract "$new_file")

printf '%s\n' "$old_data" "---" "$new_data" | awk -v thr="$threshold" \
    -v old_name="$old_file" -v new_name="$new_file" '
    /^---$/ { section = 1; next }
    section == 0 { old[$1 " " $2] = $3; next }
    { new[$1 " " $2] = $3 }
    END {
        worst = 0
        compared = 0
        for (key in new) {
            if (!(key in old)) continue
            compared++
            split(key, kf, " ")
            metric = kf[2]
            o = old[key] + 0
            n = new[key] + 0
            pct = o > 0 ? (n - o) * 100.0 / o : 0
            marker = ""
            if (pct > thr) { marker = "  REGRESSION"; failed++ }
            printf "%-60s %14.1f -> %14.1f %-10s %+7.1f%%%s\n", kf[1], o, n, metric, pct, marker
            if (pct > worst) worst = pct
        }
        for (key in old) if (!(key in new)) skipped_old++
        for (key in new) if (!(key in old)) skipped_new++
        printf "\ncompared %d benchmark metrics (%s vs %s); %d only in old, %d only in new\n", \
            compared, old_name, new_name, skipped_old + 0, skipped_new + 0
        if (compared == 0) {
            print "error: no common benchmarks to compare" > "/dev/stderr"
            exit 2
        }
        if (failed > 0) {
            printf "FAIL: %d metric(s) regressed beyond the threshold\n", failed > "/dev/stderr"
            exit 1
        }
        printf "OK: no regression beyond the threshold (worst %+.1f%%)\n", worst
    }'
