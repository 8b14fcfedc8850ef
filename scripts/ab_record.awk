# ab_record.awk — the reading a paired before/after claim is judged by,
# shared by bench_ab.sh and paper_point_ab.sh.
#
# Input: one line per pair, "<pair> <parent value> <change value>".
# Variables (-v): metric, better ("lower" or "higher"), workload,
# flags, parent (the parent's commit), cpus, procs (GOMAXPROCS) and
# gover (Go version). Prints the pairs side by side, "change ahead in N
# of M pairs", both sides' median and quartiles (or "exact count" when
# neither side spreads), then the same reading as one JSON record.

# quartile q (1, 2 or 3) of the n values of v, sorted in place.
function quartile(v, n, q,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    pos = 1 + (n - 1) * q / 4
    lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
NF != 3 { printf "ab: pair %s has no value for %s\n", $1, metric; bad = 1; exit }
NR == 1 { printf "\n%s (%s is better), parent and change pair by pair:\n", metric, better }
{
    printf "  pair %-3d %14.6g %14.6g\n", $1, $2, $3
    n++; a[n] = $2; b[n] = $3
    if ($2 == $3) ties++
    else if ((better == "lower") == ($3 < $2)) ahead++
}
END {
    if (bad || n == 0) exit 1
    printf "change ahead in %d of %d pairs (%d tied)\n", ahead, n, ties
    a1 = quartile(a, n, 1); am = quartile(a, n, 2); a3 = quartile(a, n, 3)
    b1 = quartile(b, n, 1); bm = quartile(b, n, 2); b3 = quartile(b, n, 3)
    if (sprintf("%.4g", a1) == sprintf("%.4g", a3) && sprintf("%.4g", b1) == sprintf("%.4g", b3))
        printf "exact count: parent %.4g, change %.4g, the same across runs of either side\n", am, bm
    else
        printf "median [quartiles]: parent %.6g [%.6g, %.6g], change %.6g [%.6g, %.6g], %+.2f%%\n",
            am, a1, a3, bm, b1, b3, am == 0 ? 0 : 100 * (bm - am) / am
    gsub(/["\\]/, "", flags)
    printf "{\"workload\":\"%s\",\"metric\":\"%s\",\"better\":\"%s\",\"parent\":\"%s\",\"flags\":\"%s\",", workload, metric, better, parent, flags
    printf "\"cpus\":%s,\"gomaxprocs\":%s,\"go_version\":\"%s\",\"pairs\":%d,", cpus, procs, gover, n
    printf "\"parent_arm\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"change_arm\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},", am, a1, a3, bm, b1, b3
    printf "\"ahead\":\"ahead in %d of %d\",\"ties\":%d}\n", ahead, n, ties
}

