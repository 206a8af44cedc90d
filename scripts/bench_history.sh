#!/usr/bin/env bash
# The benchmark's committed trajectory, and a paired comparison with
# another commit. Both run BENCHMARK.json's workloads untraced through
# bench/run.sh, each for the run_seconds BENCHMARK.json sets, so that rows
# compare; they need git and jq.
#
#   scripts/bench_history.sh [--seed S] [--workload W]...
#       runs each workload once (every workload unless some are named) and
#       appends the run's result line to BENCH_history.jsonl, stamped with
#       the workload, seed and time, and the run's environment: commit,
#       whether the tree's tracked files other than BENCH_history.jsonl
#       differed from it (dirty), nproc and go.
#
#   scripts/bench_history.sh compare [--base REV] [--pairs N] [--seed S]
#                                    [--workload W]...
#       exports REV (default HEAD) with git archive into a temporary
#       directory, runs N pairs (default 3) per workload, base and this
#       tree in alternating order, removes the directory, and prints per
#       end-to-end metric each side's median [Q1, Q3], the change of the
#       medians and the pairs this tree won.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

mode=history
if [ "${1:-}" = compare ]; then
    mode=compare
    shift
fi
base=HEAD pairs=3 seed=1 workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
    --base) base=$2 ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --workload) workloads+=("$2") ;;
    *) echo "bench_history.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

# run DIR WORKLOAD prints the result line of one untraced run of the
# checkout at DIR, tagged with its environment stamp, or nothing if the
# run printed no result.
run() {
    local dir=$1 w=$2 line dirty=false
    line=$(bash "$dir/bench/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1) || true
    if ! jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
        echo "bench_history.sh: $w at $dir printed no result" >&2
        return
    fi
    # The rows this script appends leave the tree dirty in no other way.
    [ -z "$(git -C "$dir" status --porcelain --untracked-files=no -- . ':(exclude)BENCH_history.jsonl' 2>/dev/null)" ] || dirty=true
    jq -c --arg w "$w" --argjson seed "$seed" --argjson dirty "$dirty" \
        --slurpfile r "$dir/bench/out/$w.e2e.result.json" \
        '{workload: $w, seed: $seed, recorded: (now | todate), commit: $r[0].env.commit, dirty: $dirty,
          nproc: $r[0].env.nproc, go: $r[0].env.go} + .' <<<"$line"
}

if [ "$mode" = history ]; then
    for w in "${workloads[@]}"; do
        row=$(run "$root" "$w")
        [ -n "$row" ] || exit 1
        echo "$row" >>BENCH_history.jsonl
        echo "$row"
    done
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        order=(base change)
        [ $((i % 2)) -eq 0 ] || order=(change base)
        for side in "${order[@]}"; do
            dir=$root
            [ "$side" = change ] || dir=$tmp/base
            row=$(run "$dir" "$w")
            [ -z "$row" ] || jq -c --arg side "$side" --argjson pair "$i" '{side: $side, pair: $pair} + .' <<<"$row" | tee -a "$tmp/runs.jsonl"
        done
    done
done

echo "base $(git rev-parse --short "$base") against this tree, seed $seed, $pairs pairs: median [Q1, Q3]"
jq -rs --slurpfile spec BENCHMARK.json '
    def q($p): sort as $s | ((($s | length) - 1) * $p) as $i
        | $s[$i | floor] + ($s[$i | ceil] - $s[$i | floor]) * ($i - ($i | floor));
    def f: . * 10000 | round / 10000 | tostring;
    def spread: "\(q(0.5) | f) [\(q(0.25) | f), \(q(0.75) | f)]";
    group_by(.workload)[] as $runs
    | ($runs | map(select(.side == "base")) | sort_by(.pair)) as $b
    | ($runs | map(select(.side == "change")) | sort_by(.pair)) as $c
    | "\($runs[0].workload)\t\($b | length) base, \($c | length) change runs\tfailed \([$runs[].failed] | add)\tall correct \([$runs[].correct] | all)",
      ($spec[0].end_to_end[] as $m
       | [$b[] | .metrics[$m.name].value | numbers] as $bv
       | [$c[] | .metrics[$m.name].value | numbers] as $cv
       | select(($bv | length) > 0 and ($cv | length) > 0)
       | [$c[] as $x | $b[] | select(.pair == $x.pair)
          | [.metrics[$m.name].value, $x.metrics[$m.name].value] | select(all(numbers))] as $pairs
       | [$pairs[] | select(if $m.better == "higher" then .[1] > .[0] else .[1] < .[0] end)] as $won
       | "  \($m.name)\tbase \($bv | spread)\tchange \($cv | spread)\t\(if ($bv | q(0.5)) == 0 then "-" else (($cv | q(0.5)) / ($bv | q(0.5)) - 1) * 100 | . * 10 | round / 10 | "\(.)%" end)\twon \($won | length)/\($pairs | length) (\($m.better) is better)")
' "$tmp/runs.jsonl" | awk -F'\t' '
    { n[NR] = NF; for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
    END { for (r = 1; r <= NR; r++) { for (i = 1; i < n[r]; i++) printf "%-" w[i] "s  ", cell[r, i]; print cell[r, n[r]] } }'
