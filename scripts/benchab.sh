#!/usr/bin/env bash
# benchab.sh — an interleaved before/after of the repository benchmark.
#
# Usage: scripts/benchab.sh [-n pairs] [-s secs] [-w workload]... [--trace 1] [-o file] <base-rev>
#
# Compares the working tree (the change, uncommitted edits included) with
# <base-rev>, which is checked out with `git worktree add` into a temporary
# directory that is removed on exit. For each seed 1..n and each workload
# (default: every workload in BENCHMARK.json), it runs nasaicbench/run.sh
# once in each tree for -s seconds (default 20), alternating which tree runs
# first, so slow drift of the host hits both sides alike.
#
# For each workload and each end-to-end metric of BENCHMARK.json it prints
# the base and change medians, the change/base ratio with a bootstrap 95%
# interval (2000 resamples of the seed pairs, fixed RNG seed, percentile
# interval of the resampled median ratios), how many of the n pairs the
# change won (by the metric's `better` direction; ties win for neither),
# and the interquartile range of the base runs. With --trace 1,
# each pair also runs the traced benchmark, whose per-layer `count.exact`
# metrics must be equal between the trees. Those metrics are medians over
# the explorations that fit in the window (a traced run's `attempted`), so
# when one tree is much faster the two medians can cover different seeds.
# A (workload, seed) whose two traced runs fit different numbers of
# explorations is reported as one FAIL line that gives both numbers instead
# of as count differences; compare counts with a window (-s) short enough
# that both trees run the same number of explorations.
#
# With -o FILE it also writes the comparison as JSON (a BENCH_<n>.json
# record): the host (uname, CPU model, nproc, Go version), the commits and
# settings compared, every run's result line under "runs", and the printed
# table's rows under "rows" (ratio and ratio_ci95 null where the base median
# is 0). The file is written whatever the exit status.
#
# Exit status: 0 when every run reported correct:true, the change failed no
# larger share of operations than the base on any workload, and (with
# --trace 1) both trees traced equally many explorations and no count.exact
# metric differs; 1 otherwise; 2 on bad usage.
# It needs bash, git, jq and awk.
set -euo pipefail

usage() {
	sed -n '4s/^# //p' "${BASH_SOURCE[0]}"
}

pairs=5
secs=20
trace=0
out=
workloads=()
while (($#)); do
	case $1 in
	-n) pairs=${2:?}; shift 2 ;;
	-s) secs=${2:?}; shift 2 ;;
	-w) workloads+=("${2:?}"); shift 2 ;;
	--trace) trace=${2:?}; shift 2 ;;
	-o) out=${2:?}; shift 2 ;;
	-h | --help) usage; exit 0 ;;
	-*) usage >&2; exit 2 ;;
	*) break ;;
	esac
done
if (($# != 1)) || ! [[ $pairs =~ ^[1-9][0-9]*$ && $secs =~ ^[1-9][0-9]*$ && $trace =~ ^[01]$ ]]; then
	usage >&2
	exit 2
fi
base_rev=$1

root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
if ((${#workloads[@]} == 0)); then
	mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchab.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/base" "$base_rev"
declare -A tree=([change]=$root [base]=$tmp/base)

# bench SIDE WORKLOAD SEED TRACE runs one benchmark and appends its result
# as "side workload seed trace <result json>" to $tmp/results.
bench() {
	local side=$1 wl=$2 seed=$3 tr=$4 log="$tmp/$1.$2.$3.$4.log" line
	echo "benchab: $side $wl seed $seed trace $tr" >&2
	if ! (cd "${tree[$side]}" && bash nasaicbench/run.sh --workload "$wl" --seed "$seed" \
		--seconds "$secs" --trace "$tr") >"$log" 2>&1; then
		echo "benchab: $side $wl seed $seed trace $tr exited non-zero; its output:" >&2
		tail -n 20 "$log" >&2
	fi
	line=$(tail -n 1 "$log")
	if ! jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
		line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
	fi
	printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$wl" "$seed" "$tr" "$(jq -c . <<<"$line")" >>"$tmp/results"
}

: >"$tmp/results"
for ((seed = 1; seed <= pairs; seed++)); do
	order=(change base)
	if ((seed % 2 == 0)); then
		order=(base change)
	fi
	for wl in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			bench "$side" "$wl" "$seed" 0
			if ((trace == 1)); then
				bench "$side" "$wl" "$seed" 1
			fi
		done
	done
done

# One row per (side, workload, seed, trace, metric, value) plus the
# per-run correct/attempted/failed fields, as tab-separated text for awk.
jq -r --slurpfile spec "$spec" '
	$spec[0] as $s
	| split("\t") as [$side, $wl, $seed, $tr, $raw]
	| ($raw | fromjson) as $r
	| ["run", $side, $wl, $seed, $tr, ($r.correct | tostring), $r.attempted, $r.failed],
	  (if $tr == "0" then
	     $s.end_to_end[] | select($r.metrics[.name] != null)
	     | ["metric", $side, $wl, $seed, $tr, .name, $r.metrics[.name].value, .better]
	   else
	     $s.per_layer[] | select(.unit == "count.exact" and $r.metrics[.name] != null)
	     | ["metric", $side, $wl, $seed, $tr, .name, $r.metrics[.name].value, "exact"]
	   end)
	| @tsv' -R "$tmp/results" >"$tmp/rows.tsv"

status=0
awk -F '\t' -v pairs="$pairs" -v rowsout="$tmp/table.tsv" '
	function sort(a, n,    i, j, v) {
		for (i = 2; i <= n; i++) {
			v = a[i]
			for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
			a[j + 1] = v
		}
	}
	# quantile of the sorted a[1..n] by linear interpolation
	function q(a, n, p,    h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	# in-place shell sort of a[1..n], for the bootstrap replicates
	function shellsort(a, n,    gap, i, j, v) {
		for (gap = int(n / 2); gap > 0; gap = int(gap / 2))
			for (i = gap + 1; i <= n; i++) {
				v = a[i]
				for (j = i; j > gap && a[j - gap] > v; j -= gap) a[j] = a[j - gap]
				a[j] = v
			}
	}
	# boot sets ci_lo and ci_hi to the percentile bootstrap 95% interval of
	# median(change)/median(base) over the np seed pairs pb[i], pc[i]:
	# resample the pairs with replacement, skipping replicates whose base
	# median is 0. Both stay "" when no replicate has a ratio.
	function boot(pb, pc, np,    r, i, j, nr, rb, rc, rs) {
		ci_lo = ci_hi = ""
		nr = 0
		for (r = 0; r < 2000; r++) {
			for (i = 1; i <= np; i++) { j = int(rand() * np) + 1; rb[i] = pb[j]; rc[i] = pc[j] }
			sort(rb, np); sort(rc, np)
			if (q(rb, np, 0.5) != 0) rs[++nr] = q(rc, np, 0.5) / q(rb, np, 0.5)
		}
		if (nr == 0) return
		shellsort(rs, nr)
		ci_lo = q(rs, nr, 0.025); ci_hi = q(rs, nr, 0.975)
	}
	BEGIN { srand(1) }
	$1 == "run" {
		if ($6 != "true") { printf "FAIL: %s %s seed %s (trace %s) reported correct:false\n", $2, $3, $4, $5; bad = 1 }
		att[$2, $3] += $7; fl[$2, $3] += $8
		if ($5 == "1") traced[$2, $3, $4] = $7
		wls[$3] = 1
		next
	}
	$1 == "metric" && $5 == "1" {
		ex[$2, $3, $4, $6] = $7; exn[$3, $4, $6] = 1
		next
	}
	$1 == "metric" {
		v[$2, $3, $4, $6] = $7; better[$6] = $8
		if (!(($3, $6) in seen)) { seen[$3, $6] = 1; order[++nm] = $3 SUBSEP $6 }
	}
	END {
		printf "%-18s %-11s %12s %12s %7s %15s %6s %10s\n", "workload", "metric", "base_med", "change_med", "ratio", "ratio_ci95", "wins", "base_iqr"
		for (i = 1; i <= nm; i++) {
			split(order[i], k, SUBSEP); wl = k[1]; m = k[2]
			nb = nc = w = np = 0
			delete b; delete c; delete pb; delete pc
			for (s = 1; s <= pairs; s++) {
				hb = (("base", wl, s, m) in v); hc = (("change", wl, s, m) in v)
				if (hb) b[++nb] = v["base", wl, s, m] + 0
				if (hc) c[++nc] = v["change", wl, s, m] + 0
				if (hb && hc) {
					np++
					x = v["change", wl, s, m] + 0; y = v["base", wl, s, m] + 0
					pb[np] = y; pc[np] = x
					if ((better[m] == "lower" && x < y) || (better[m] == "higher" && x > y)) w++
				}
			}
			if (nb == 0 || nc == 0) { printf "%-18s %-11s %12s\n", wl, m, "n/a"; continue }
			sort(b, nb); sort(c, nc)
			mb = q(b, nb, 0.5); mc = q(c, nc, 0.5)
			ratio = mb != 0 ? sprintf("%.3f", mc / mb) : "n/a"
			ci_lo = ci_hi = ""
			if (mb != 0 && np > 0) boot(pb, pc, np)
			ci = ci_lo != "" ? sprintf("[%.3f,%.3f]", ci_lo, ci_hi) : "n/a"
			printf "%-18s %-11s %12.6g %12.6g %7s %15s %6s %10.4g\n", wl, m, mb, mc, ratio, ci, w "/" np, q(b, nb, 0.75) - q(b, nb, 0.25)
			printf "%s\t%s\t%.9g\t%.9g\t%s\t%d\t%d\t%.9g\t%s\t%s\n", wl, m, mb, mc, ratio, w, np, q(b, nb, 0.75) - q(b, nb, 0.25),
				ci_lo != "" ? sprintf("%.9g", ci_lo) : "n/a", ci_hi != "" ? sprintf("%.9g", ci_hi) : "n/a" >rowsout
		}
		for (wl in wls) {
			sb = att["base", wl] ? fl["base", wl] / att["base", wl] : 0
			sc = att["change", wl] ? fl["change", wl] / att["change", wl] : 0
			if (sc > sb) { printf "FAIL: %s: the change failed %d of %d operations, the base %d of %d\n", wl, fl["change", wl], att["change", wl], fl["base", wl], att["base", wl]; bad = 1 }
		}
		for (key in exn) {
			split(key, k, SUBSEP)
			nb = traced["base", k[1], k[2]]; nc = traced["change", k[1], k[2]]
			if (nb != nc) {
				if (!((k[1], k[2]) in uneven)) {
					uneven[k[1], k[2]] = 1
					printf "FAIL: %s seed %s: the traced medians are not comparable: the base traced %d explorations, the change %d; rerun with a shorter -s\n", k[1], k[2], nb, nc
				}
				bad = 1
				continue
			}
			if (ex["base", k[1], k[2], k[3]] != ex["change", k[1], k[2], k[3]]) {
				printf "FAIL: %s seed %s: count.exact metric %s is %s at the base, %s in the change\n", k[1], k[2], k[3], ex["base", k[1], k[2], k[3]], ex["change", k[1], k[2], k[3]]
				bad = 1
			}
		}
		exit bad
	}' "$tmp/rows.tsv" || status=$?

if [[ -n $out ]]; then
	: >>"$tmp/table.tsv"
	cpu=$(awk -F ': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
	dirty=false
	git -C "$root" diff --quiet HEAD || dirty=true
	jq -n \
		--arg base "$base_rev" \
		--arg base_commit "$(git -C "$tmp/base" rev-parse HEAD)" \
		--arg change_commit "$(git -C "$root" rev-parse HEAD)" \
		--argjson change_dirty "$dirty" \
		--argjson pairs "$pairs" --argjson seconds "$secs" --argjson trace "$trace" \
		--arg uname "$(uname -srm)" --arg cpu "$cpu" --argjson nproc "$(nproc)" \
		--arg go "$(go version)" \
		--rawfile runs "$tmp/results" --rawfile rows "$tmp/table.tsv" '
		def lines: split("\n") | map(select(. != "") | split("\t"));
		{
			host: {uname: $uname, cpu: $cpu, nproc: $nproc, go: $go},
			base: $base, base_commit: $base_commit,
			change_commit: $change_commit, change_dirty: $change_dirty,
			pairs: $pairs, seconds: $seconds, trace: $trace,
			runs: ($runs | lines | map({side: .[0], workload: .[1], seed: (.[2] | tonumber),
				trace: (.[3] | tonumber), result: (.[4] | fromjson)})),
			rows: ($rows | lines | map({workload: .[0], metric: .[1],
				base_median: (.[2] | tonumber), change_median: (.[3] | tonumber),
				ratio: (if .[4] == "n/a" then null else .[4] | tonumber end),
				ratio_ci95: (if .[8] == "n/a" then null else [(.[8] | tonumber), (.[9] | tonumber)] end),
				wins: (.[5] | tonumber), pairs: (.[6] | tonumber), base_iqr: (.[7] | tonumber)}))
		}' >"$out"
	echo "benchab: wrote $out" >&2
fi
exit "$status"
