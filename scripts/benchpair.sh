#!/usr/bin/env bash
# Paired benchmark comparison of a git revision (the parent) against the
# working tree:
#
#   bash scripts/benchpair.sh <rev> <workload> [pairs] [seconds] [seed]
#   make bench-pair PARENT=<rev> WORKLOAD=fleet-stream PAIRS=10 SECONDS=10
#
# The parent's sources are unpacked with `git archive` under
# .bench_build/pair/<commit>/; each side builds perfbench from its own
# sources through its perfbench/run.sh (build caches under that side's
# .bench_build/). Every pair runs both sides once at equal settings,
# alternating which side runs first. The report gives each pair's
# jobs_per_s, each side's median and quartiles of every end-to-end metric
# and its failed calls, and the change's win count: a gain holds when the
# change wins at least nine tenths of the pairs (ties count for neither)
# and its median jobs_per_s beats the parent's by more than the parent's
# interquartile range. Per-run logs stay under .bench_build/pair/logs/.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <rev> <workload> [pairs=10] [seconds=10] [seed=1]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} secs=${4:-10} seed=${5:-1}
metrics="jobs_per_s setup_s peak_rss_mib alloc_bytes_per_job norm_quality energy_j_per_job"

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
commit=$(git rev-parse --verify "$rev^{commit}")
pair="$root/.bench_build/pair"
parent="$pair/$commit"
if [ ! -d "$parent" ]; then
	rm -rf "$parent.tmp"
	mkdir -p "$parent.tmp"
	git archive "$commit" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
logs="$pair/logs"
rm -rf "$logs"
mkdir -p "$logs"

# run <side> <checkout> <pair>: one benchmark run; appends the run's
# metric values and failed/attempted counts to $logs/<side>.tsv.
run() {
	local log="$logs/$1-$3.log" line row m v
	if ! bash "$2/perfbench/run.sh" --workload "$workload" --seed "$seed" \
		--seconds "$secs" --trace 0 >"$log" 2>&1; then
		echo "benchpair: $1 run $3 failed; see $log" >&2
		tail -n 5 "$log" >&2
		exit 1
	fi
	line=$(tail -n 1 "$log")
	row=""
	for m in $metrics; do
		v=$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line")
		row+="${v:-nan}	"
	done
	row+="$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")	"
	row+="$(sed -n 's/.*"attempted":\([0-9]*\).*/\1/p' <<<"$line")"
	echo "$row" >>"$logs/$1.tsv"
}

echo "benchpair: $workload seed $seed, $pairs pairs of ${secs} s runs; parent $commit vs working tree"
printf '%-5s %-7s %14s %14s  %s\n' pair first parent change winner
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		first=parent
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		first=change
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
	p=$(tail -n 1 "$logs/parent.tsv" | cut -f1)
	c=$(tail -n 1 "$logs/change.tsv" | cut -f1)
	printf '%-5s %-7s %14.0f %14.0f  %s\n' "$i" "$first" "$p" "$c" \
		"$(awk -v p="$p" -v c="$c" 'BEGIN { print (c > p) ? "change" : (c < p) ? "parent" : "tie" }')"
done

# quartiles reads numbers on stdin and prints q1, median and q3 by the
# exclusive method perfbench itself uses (Python's statistics.quantiles).
quartiles() {
	sort -g | awk '{ s[NR] = $1 }
	END {
		n = NR
		if (n == 1) { print s[1], s[1], s[1]; exit }
		for (i = 1; i <= 3; i++) {
			j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
			d = i * (n + 1) - j * 4
			q[i] = (s[j] * (4 - d) + s[j + 1] * d) / 4
		}
		printf "%.6g %.6g %.6g\n", q[1], q[2], q[3]
	}'
}

echo
printf '%-20s %-7s %14s %14s %14s\n' metric side median q1 q3
col=1
for m in $metrics; do
	for side in parent change; do
		read -r q1 med q3 < <(cut -f"$col" "$logs/$side.tsv" | quartiles)
		printf '%-20s %-7s %14s %14s %14s\n' "$m" "$side" "$med" "$q1" "$q3"
	done
	col=$((col + 1))
done
for side in parent change; do
	awk -F'\t' -v side="$side" -v f="$col" '{ failed += $f; attempted += $(f + 1) }
		END { printf "%-20s %-7s %14s\n", "failed", side, failed " of " attempted }' "$logs/$side.tsv"
done

read -r pq1 pmed pq3 < <(cut -f1 "$logs/parent.tsv" | quartiles)
read -r _ cmed _ < <(cut -f1 "$logs/change.tsv" | quartiles)
paste "$logs/parent.tsv" "$logs/change.tsv" | awk -F'\t' -v n="$pairs" -v off="$((col + 1))" \
	-v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cmed="$cmed" '
	{ p = $1; c = $(off + 1); if (c > p) wins++; else if (c == p) ties++ }
	END {
		gain = cmed - pmed; iqr = pq3 - pq1
		printf "\nchange wins %d of %d pairs (%d ties); median jobs_per_s %+.1f%%; parent IQR %.1f%%\n",
			wins, n, ties, 100 * gain / pmed, 100 * iqr / pmed
		print (wins * 10 >= 9 * n && gain > iqr) ? "gain holds" : "no gain claim"
	}'
