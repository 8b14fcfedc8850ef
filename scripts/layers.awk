# layers.awk — a CPU profile's flat time by layer, the table a
# performance claim names the layer that moved with (ROADMAP item 23).
#
#   go tool pprof -top -nodefraction=0 <binary> <cpu profile> | awk -f scripts/layers.awk
#
# Input: `pprof -top` text. Every row whose first column is a flat time
# ("1.29s", "10ms", "0") goes into exactly one layer, the first of the
# fixed, ordered table below whose rule matches the function's name, so
# the layers add up to the flat total; the last layer takes whatever no
# other rule claims. Output: one markdown row per layer, in table order,
# with its seconds and its share of the total, then the total itself,
# and "pprof total" when the header names one (with -nodefraction=0 the
# two agree). A layer no sample landed in prints 0.

# seconds converts a pprof duration ("1.29s", "870ms", "12.5mins") to seconds.
function seconds(d,    v, u) {
    v = d + 0
    u = d
    sub(/^[0-9.]+/, "", u)
    if (u == "ns") return v / 1e9
    if (u == "us" || u == "µs") return v / 1e6
    if (u == "ms") return v / 1e3
    if (u == "mins") return v * 60
    if (u == "hrs") return v * 3600
    return v
}

# layer is the row fn's flat time goes into.
function layer(fn,    m) {
    if (fn ~ /^ggpdes\/internal\/tw\./) {
        m = fn
        sub(/.*\./, "", m) # the method or function name
        if (m ~ /^(Send|send|sendAnti|unsend|allocEvent|carveEvent)$/) return 1
        if (m ~ /^(Drain|DrainLocalMin|straggles|rollback|handleAnti)$/) return 2
        if (m ~ /^(FossilCollect|shift)$/) return 3
        if (m ~ /Snapshot$/ || fn ~ /\(\*snapStack\)/) return 4
        return 5
    }
    if (fn ~ /^ggpdes\/internal\/models\..*CopyFrom/) return 4
    if (fn ~ /^ggpdes\/internal\/pq\./) return 6
    if (fn ~ /^(ggpdes\/internal\/machine\.|iter\.Pull|runtime\.coro)/) return 7
    if (fn ~ /^ggpdes\/internal\/gvt\./) return 8
    if (fn ~ /^ggpdes\/internal\/core\./) return 9
    if (fn ~ /^ggpdes\/internal\/(models|rng)\./) return 10
    if (fn ~ /^ggpdes\/internal\/telemetry\./) return 11
    if (fn ~ /^(ggpdes\/internal\/checkpoint\.|encoding\/json\.)/) return 12
    if (fn ~ /^ggpdes\./) return 13
    if (fn ~ /^runtime\.(gc|bgsweep|sweep|markroot|scan|greyobject|findObject|wbBuf|(\(\*(gcWork|gcControllerState|mspan|gcBits|sweepLocked)\)))/) return 14
    if (fn ~ /^(runtime|internal\/runtime)[.\/]/) return 15
    return 16
}

BEGIN {
    n = split("tw: send, anti-messages, event allocation|tw: drain, stragglers, rollback|tw: fossil collection|tw: snapshots and model state copies|tw: everything else|pq (the binary heap)|machine and coroutine switches|gvt|core (schedulers, affinity)|models and rng|telemetry|checkpoint and encoding/json|run glue (ggpdes.*)|runtime: GC|runtime: everything else|other", name, "|")
}

/Total samples = / {
    t = $0
    sub(/.*Total samples = /, "", t)
    sub(/ .*/, "", t)
    reported = seconds(t)
}

$1 ~ /^[0-9.]+(ns|us|µs|ms|s|mins|hrs)?$/ && $2 ~ /%$/ && NF >= 6 {
    fn = $6
    for (i = 7; i <= NF; i++) fn = fn " " $i
    sub(/ \(inline\)$/, "", fn)
    s = seconds($1)
    sum[layer(fn)] += s
    total += s
}

END {
    print "| layer | s | share |"
    print "|---|---|---|"
    for (i = 1; i <= n; i++)
        printf "| %s | %.2f | %.1f %% |\n", name[i], sum[i], (total > 0 ? 100 * sum[i] / total : 0)
    printf "| total | %.2f | 100.0 %% |\n", total
    if (reported != "") printf "pprof total: %.2f s\n", reported
}
