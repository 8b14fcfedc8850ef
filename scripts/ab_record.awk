# ab_record.awk — the reading a paired before/after claim is judged by,
# shared by bench_ab.sh and paper_point_ab.sh.
#
# Input: one line per pair, "<pair> <parent value> <change value>".
# Variables (-v): metric, better ("lower" or "higher"), workload,
# flags, parent (the parent's commit), cpus, procs (GOMAXPROCS) and
# gover (Go version). Prints the pairs side by side, "change ahead in N
# of M pairs", both sides' median and quartiles (or "exact count" when
# neither side spreads), the sign test's p-value and verdict, then the
# same reading as one JSON record.
#
# The sign test is exact and two-sided over the pairs that are not
# tied: under "the change makes no difference" each untied pair is a
# fair coin, so p is twice the binomial tail at the smaller of the two
# counts (at most 1). The verdict at alpha = 0.05 is "claim" when p is
# below it and the change is ahead in more pairs than behind, and
# "unresolved" otherwise — a change significantly behind is unresolved
# as a claim too, and its ahead count says which way it went. Six untied
# pairs are the fewest that can reach p < 0.05 (6 of 6: p = 0.031; 5 of
# 5: p = 0.0625). An exact count keeps its own reading, verdict "exact":
# a count that repeats on every run of a side needs no test.

# quartile q (1, 2 or 3) of the n values of v, sorted in place.
function quartile(v, n, q,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    pos = 1 + (n - 1) * q / 4
    lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
# signp is the exact two-sided sign-test p-value of k pairs ahead and
# j behind.
function signp(k, j,    m, i, c, tail) {
    m = k + j
    if (m == 0) return 1
    if (j < k) k = j
    c = 1; tail = 1
    for (i = 1; i <= k; i++) { c = c * (m - i + 1) / i; tail += c }
    tail = 2 * tail / 2 ^ m
    return tail > 1 ? 1 : tail
}
NF != 3 { printf "ab: pair %s has no value for %s\n", $1, metric; bad = 1; exit }
NR == 1 { printf "\n%s (%s is better), parent and change pair by pair:\n", metric, better }
{
    printf "  pair %-3d %14.6g %14.6g\n", $1, $2, $3
    n++; a[n] = $2; b[n] = $3
    if ($2 == $3) ties++
    else if ((better == "lower") == ($3 < $2)) ahead++
    else behind++
}
END {
    if (bad || n == 0) exit 1
    printf "change ahead in %d of %d pairs (%d tied)\n", ahead, n, ties
    a1 = quartile(a, n, 1); am = quartile(a, n, 2); a3 = quartile(a, n, 3)
    b1 = quartile(b, n, 1); bm = quartile(b, n, 2); b3 = quartile(b, n, 3)
    p = signp(ahead, behind)
    verdict = p < 0.05 && ahead > behind ? "claim" : "unresolved"
    if (sprintf("%.4g", a1) == sprintf("%.4g", a3) && sprintf("%.4g", b1) == sprintf("%.4g", b3)) {
        printf "exact count: parent %.4g, change %.4g, the same across runs of either side\n", am, bm
        verdict = "exact"
    } else
        printf "median [quartiles]: parent %.6g [%.6g, %.6g], change %.6g [%.6g, %.6g], %+.2f%%\n",
            am, a1, a3, bm, b1, b3, am == 0 ? 0 : 100 * (bm - am) / am
    printf "sign test: p = %.4g (exact, two-sided, %d untied pairs); verdict at alpha 0.05: %s\n", p, ahead + behind, verdict
    gsub(/["\\]/, "", flags)
    printf "{\"workload\":\"%s\",\"metric\":\"%s\",\"better\":\"%s\",\"parent\":\"%s\",\"flags\":\"%s\",", workload, metric, better, parent, flags
    printf "\"cpus\":%s,\"gomaxprocs\":%s,\"go_version\":\"%s\",\"pairs\":%d,", cpus, procs, gover, n
    printf "\"parent_arm\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"change_arm\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},", am, a1, a3, bm, b1, b3
    printf "\"ahead\":\"ahead in %d of %d\",\"ties\":%d,\"sign_p\":%.4g,\"verdict\":\"%s\"}\n", ahead, n, ties, p, verdict
}

