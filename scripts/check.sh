#!/usr/bin/env bash
# CI-style gate: vet, formatting, build, the paper's profile → optimize →
# run workflow through the binaries, the full test suite plain (at the
# default core count and on one core) and under the race detector, the
# determinism gate, the planner properties, the poisoned-pool run, fuzz smoke, the exhaustive tanh /
# sigmoid sweep, alloc budgets, and doc checks.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== gofmt"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go build (the frozen bench/ module too), a replicated run whose windows end off a replica-count boundary, and a conv input stage (which computes no input gradient)"
go build ./...
(cd bench && go vet ./... && go build -o /dev/null ./...)
go run ./cmd/pipedream-train -task spiral -stages 2 -replicas 3 -epochs 3 >/dev/null
go run ./cmd/pipedream-train -task images -stages 2 >/dev/null

echo "== the paper's workflow (Fig. 6) on images: pipedream-profile, pipedream-optimizer on cluster c, one pipedream-train -id -peers process per planned worker on loopback, whose printed epoch losses sum to those of pipedream-train -plan in one process (each within 1e-6 per printing process), then pipedream-train -plan twice with bit-equal losses"
FIG6=$(mktemp -d)
trap 'rm -rf "$FIG6"' EXIT
go build -o "$FIG6" ./cmd/pipedream-profile ./cmd/pipedream-optimizer ./cmd/pipedream-train
"$FIG6/pipedream-profile" -task images -o "$FIG6/prof.json" 2>/dev/null
"$FIG6/pipedream-optimizer" -profile "$FIG6/prof.json" -cluster c -servers 3 -o "$FIG6/plan.json"
WORKERS=$(grep -o '"Replicas": [0-9]*' "$FIG6/plan.json" | awk '{n += $2} END {print n}')
BASE=$((20000 + RANDOM % 20000))
PEERS=$(seq -s, -f "127.0.0.1:%g" "$BASE" $((BASE + WORKERS - 1)))
PIDS=()
for ((id = 0; id < WORKERS; id++)); do
    "$FIG6/pipedream-train" -task images -plan "$FIG6/plan.json" -id "$id" -peers "$PEERS" -epochs 2 >"$FIG6/worker$id.txt" 2>&1 &
    PIDS+=($!)
done
for ((id = 0; id < WORKERS; id++)); do
    wait "${PIDS[$id]}" || { echo "pipedream-train -id $id failed:" >&2; cat "$FIG6/worker$id.txt" >&2; exit 1; }
done
"$FIG6/pipedream-train" -task images -plan "$FIG6/plan.json" -epochs 3 | sed 's/, wall .*//' >"$FIG6/train1.txt"
"$FIG6/pipedream-train" -task images -plan "$FIG6/plan.json" -epochs 3 | sed 's/, wall .*//' >"$FIG6/train2.txt"
diff "$FIG6/train1.txt" "$FIG6/train2.txt" || { echo "two pipedream-train -plan runs printed different losses" >&2; exit 1; }
for ep in 1 2; do
    # "epoch  1: mean loss 0.292437, ...": field 5 is the loss.
    awk -v ep="$ep:" '
        $1 == "epoch" && $2 == ep { sub(/,$/, "", $5); if (FILENAME ~ /train1/) want = $5; else { sum += $5; k++ } }
        END {
            d = sum - want
            if (k == 0 || want == "" || d > k * 1e-6 || -d > k * 1e-6) {
                printf "epoch %s %d -peers processes printed losses summing to %.6f, one process %s\n", ep, k, sum, want
                exit 1
            }
        }' "$FIG6/train1.txt" "$FIG6"/worker*.txt >&2 || { cat "$FIG6"/worker*.txt >&2; exit 1; }
done

echo "== elastic smoke: pipedream-train -elastic on images, a worker leaving at the start, trains both epochs and ends on a 2-worker plan; without -checkpoint-dir it leaves nothing in the temp dir"
"$FIG6/pipedream-train" -task images -stages 3 -epochs 2 -elastic -min-workers 2 -membership-events '0s:leave:2' -checkpoint-dir "$FIG6/elastic" >"$FIG6/elastic.txt"
grep -q '^epoch  2:' "$FIG6/elastic.txt" && grep -q 'final plan 2 worker(s)' "$FIG6/elastic.txt" ||
    { echo "the elastic smoke run did not finish on 2 workers:" >&2; cat "$FIG6/elastic.txt" >&2; exit 1; }
mkdir "$FIG6/tmp"
TMPDIR="$FIG6/tmp" "$FIG6/pipedream-train" -task images -stages 3 -epochs 2 -elastic -min-workers 2 -membership-events '0s:leave:2' >"$FIG6/elastic-tmp.txt"
grep -q 'final plan 2 worker(s)' "$FIG6/elastic-tmp.txt" ||
    { echo "the elastic smoke run without -checkpoint-dir did not finish on 2 workers:" >&2; cat "$FIG6/elastic-tmp.txt" >&2; exit 1; }
[ -z "$(ls -A "$FIG6/tmp")" ] || { echo "pipedream-train -elastic left in its temp dir:" >&2; ls -A "$FIG6/tmp" >&2; exit 1; }

echo "== portable kernels (arm64 cross-vet of tensor + nn; tensor tests on 386, where no assembly is built: the ReLU mask's definition test and bit-equality fuzz seeds among them)"
GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/
GOARCH=386 go test -count=1 ./internal/tensor/

echo "== go test (default GOMAXPROCS, then one core)"
go test ./...
GOMAXPROCS=1 go test -count=1 ./...

echo "== determinism gate (losses are a pure function of seed, plan and depth, and every runtime op log checked — five golden shapes, the in-place train-comm chain, diamond and two-head runs with duplicated deliveries — passes schedule.Validate against the run's event graph: 20 runs each; the validator's mutations, the simulated goldens, GPipe's flush gate and the acyclic event graphs of 2,000 random plans once; the folded graph the planner prices, on 8,000 random plans at their own and a drawn depth, has no cycle whose minibatch offsets sum to zero or less)"
go test -count=20 ./internal/pipeline/ -run 'PureFunction|Recompute|Staleness|TestRuntimeExecutesScheduleTable|TestCommChainTrainsBitEqualInPlace|TestChannelsTensorsAreRecycled'
go test -count=1 ./internal/schedule/ ./internal/cluster/ -run '^(TestValidateCatches.*|TestGolden1F1BTimelines|TestTableIsTotalAndDeadlockFree|TestGPipeRoundWaitsForItsFlush|TestSimulate1F1BInvariants|TestSimulateReplicatedStageRoundRobin)$'
go test -count=1 ./internal/partition/ -run '^TestPriceGraphHasNoZeroOffsetCycle$'

echo "== planner properties (the search matches brute force on flat and two-level topologies and never loses to data parallelism or a straight pipeline on either, evaluate's price of a one-stage plan is the throughput cluster.Simulate measures, and a straight two-stage plan bound by its edge never simulates above that price: 200 runs each, so a failure in a fraction of a percent of draws cannot hide)"
go test -count=200 ./internal/partition/ -run '^(TestOptimizeDominatesBaselines|TestOptimizeMatchesBruteForceOnRandomProfiles|TestEvaluateMatchesSimulateOnOneStagePlans|TestEdgeBoundTwoStagePlansSimulateAtMostTheirPrice)$'

echo "== one price, one depth (the price and the event graph read one arc generator, partition.Plan.Arcs: price folds it, schedule.Graph unrolls it with the table's order, under 1F1B and under GPipe (no windows: rounds of Depth minibatches and their flush arcs), and on the random chains and stage graphs of seeds 0–799, at their own and a drawn depth, Graph's steady period folds to exactly the price's arcs under either; every Table 1 row divides by the planner's one-stage plan, at the throughput cluster.Simulate runs it; outside bench/ and tests only stageTime and the simulator read AllReduceTime; every plan a pipedream-repro row prints the price of (what Table.price, Table.gpipe and Table.memory record, 84 plans: tbl1, ext-transformer, fig10, fig14a/b and their depth-1 columns, sec54 and its GPipe rows, fig5's zero-communication ideal, fig15, fig16, fig18 at depths 1–7, abl-repl, abl-recompute plain and recomputed, abl-memory's constrained depths, abl-topo, claims and its GPipe leg) simulates under the policy its row prints within [0.99, 1.03] of its price, AlexNet 4x4 within 2 %, every 1F1B stage peaks at exactly its memory price (StageMemory, the memory referee), and a run of 320 minibatches reads what one of 640 does; in internal/experiments only the listed functions (stragglers, timelines, fig5's transfers, fig15's referee column) call cluster.Simulate, and there is no simThroughput; every experiment runs once in quick mode; 4,000 random chains and 4,000 random stage graphs, replicated or not, compute- or edge-bound, simulate at no less than 0.99 of their price at their own windows, and at a drawn depth below their own simulate no faster than 1.005 of the price AtDepth gives (Simulate reads completions in time order) (10 runs of 400 each, seeds 0–3,999: about 40 s on two cores); pipedream-sim's plan line prints the price of the depth and policy it runs; outside bench/ and tests no struct but partition.Plan and its file form declares a Depth or NOAM field, no code but evaluate, ReadJSON and Plan.AtDepth assigns to a Depth field, and a memory-constrained plan is checked, simulated, trained and read back from its file at the depth and windows its planner chose; every stage's planned memory is the peak cluster.Simulate holds on every modelzoo model, cluster and depth, under 1F1B and GPipe, and each runtime worker makes the weight arrays that price charges)"
go test -count=1 ./internal/experiments/ ./internal/topology/ ./cmd/pipedream-sim/ -run '^(TestDPBaselineIsTheOneStagePlan|TestAllReduceTimeHasOnePricer|TestPredictedVersusSimulated|TestSimulatedThroughputIndependentOfRunLength|TestSimulateCallersAreListed|TestPrintsThePriceItRuns)$'
go run ./cmd/pipedream-repro -exp all -quick >/dev/null
go test -count=1 . ./internal/partition/ -run '^(TestMemoryConstrainedPlanRunsAtItsDepth|TestDepthHasOneHome|TestSimulatedPeakIsThePlannedPrice|TestPlanJSONKeepsItsDepth|TestPlanJSONKeepsItsWindows|TestGraphFoldsToThePrice)$'
go test -count=10 ./internal/partition/ -run '^TestRandomPlansSimulateAtTheirPrice$'
go test -count=1 ./internal/pipeline/ -run '^TestWeightArraysAreThePlannedPrice$'

echo "== poisoned pool (use-after-release detector on: nn, collective, pipeline, serve, fleet, pipedream-serve, cliconf and profile tests always run with it; these are the suites that compare losses and outputs bit for bit — the inference call among them, random layer chains run in place against the borrowing calls, and the train-comm chain whose ReLU stages write over their deliveries — the transport contract, the pool balance of a recovered training run and of serving, and serving's start-up: a forward-only profile that runs no Backward, returns every pooled tensor, reads no training data and cuts the forward pass, images' cut unchanged. The optimizer writes each weight version over the gradients it reads, so the gradient arena rotates: every arena a step hands back holds a released version's mark, and the bit-equal suites stay clean only while every optimizer reads each gradient element before it writes over it and every backward sets every gradient element; the ring slices its buckets from each round's arena. The pool has four size classes per doubling, 2^k × {1, 1.25, 1.5, 1.75}, so a pooled tensor holds at most a quarter more than was asked for: the class table, recycling only class capacities, and a second release of a 163,840-capacity array; serving gathers a split request's response into a pooled tensor and puts it back when a later batch fails)"
go test -count=1 ./internal/nn/ -run 'TestSequentialReleasesEachTensorOnce|TestSeqContextHeldBytes|TestTwoPassBackwardMatchesLayerByLayer|TestLossesMatchParentCommit|TestRandomChainsKeepTheOwnershipRule|TestStepIntoMatchesStepBitForBit|TestBackwardSetsGrads'
go test -count=1 ./internal/pipeline/ ./internal/collective/ -run 'TestRingBucketsAreViewsOfTheGradientArena|TestUnreadStageInputReleasedAtForwardEnd|TestCommChainTrainsBitEqualInPlace|TestOneReLUStageTakesOnlyItsMask|TestRecomputeShrinksStash|TestUpstreamGradientLeavesBeforeParameterHalves|TestLossesArePureFunctionOfSeedPlanDepth|TestBranchGraphPipelineMatchesReference|TestBreakConnStormTrainsBitEqual|TestLocalWorkerSetsTrainBitEqual|TestElastic|TestChaos|TestRecoveryReturnsDroppedTensorsToPool|TestAdoptFullState|TestTrainMaxRecoveries|TestWeightVersionTableMatchesCopyReference|TestWeightVersionsAreNotCopied|TestTrainingMatchesParentCommit|TestEachReplicaModelBuiltOnce|TestDropoutStagesOfOneModelTrainBitEqual'
go test -count=1 ./internal/tensor/ -run 'TestPoisonOnPutCatchesUseAfterRelease|TestSizeClassesHoldAtMostAQuarterMore|TestPutRecyclesOnlyClassCapacities'
go test -count=1 ./internal/serve/ -run 'TestPoolBalanceAfterTraffic|TestCloseReleasesQueuedDeliveries|TestFailedSplitRequestReturnsItsResponse'
go test -count=1 ./internal/profile/ ./internal/cliconf/ ./cmd/pipedream-serve/ -run 'TestMeasureForwardRunsNoBackward|TestServePlanReadsNoTrainingData|TestServePlanCutsTheForwardPass|TestImagesCutIsUnchanged'
go test -count=1 ./cmd/pipedream-serve/ ./internal/serve/...

echo "== go test -race (every package; serve twice, its batcher and hot-swap races are timing-dependent; the weight-version table, serving's hot-swap soaks — linear, diamond and two-head — and the fleet's hot-swap under load and one-lineage-per-tenant tests ten times, the two-pass backward, the shared-model inference call, the release of what no context reads, random layer chains run in place, the in-place train-comm chain, one factory model per replica and dropout stages of one model three; the checkpoint readers against a concurrent prune — restore, LoadFullState and the serving follower — five; the elastic runtime's tests and the consecutive-recovery bound, which share the one chunk loop, five; the transport's connection storm twenty)"
go test -race ./...
go test -race -count=5 ./internal/pipeline/ -run '^(TestElastic|TestTrainMaxRecoveries)'
go test -race -count=20 ./internal/transport/ -run '^TestBreakConnStormDeliversOnlyWholeFrames$'
go test -race -count=5 ./internal/pipeline/ ./internal/serve/ -run '^(TestRestoreRacesPruneAtGenerationBoundary|TestLoadFullStateRacesPruneAtGenerationBoundary|TestFollowerSkipsMidPruneGeneration)$'
go test -race -count=10 ./internal/pipeline/ -run 'TestWeightVersionTableMatchesCopyReference|TestWeightVersionsAreNotCopied'
go test -race -count=10 ./internal/serve/ ./internal/serve/fleet/ -run '^(TestSwapSoak|TestSwapSoakOnDAGPlans|TestFleetChaosHotSwapUnderLoad|TestAddReplicaJoinsAtTheTenantsGeneration|TestOneLoadPerGenerationForEveryReplica|TestSwapReachesEveryReplicaAndGenerationOnlyAdvances)$'
go test -race -count=3 ./internal/nn/ ./internal/pipeline/ -run 'TestTwoPassBackwardMatchesLayerByLayer|TestUpstreamGradientLeavesBeforeParameterHalves|TestInferenceConcurrent|TestSequentialReleasesEachTensorOnce|TestUnreadStageInputReleasedAtForwardEnd|TestRandomChainsKeepTheOwnershipRule|TestCommChainTrainsBitEqualInPlace|TestEachReplicaModelBuiltOnce|TestDropoutStagesOfOneModelTrainBitEqual'
go test -race -count=2 ./internal/serve/...

echo "== fuzz smoke (each target minimizes a new input for at most 1 s, so the time goes to fuzzing; matmul — 30s: its backward kernels compute several rows per pass — convolution and elementwise kernels — tanh and sigmoid among them — vs portable loops + flat tensor storage + frame round-trips + checkpoint manifest + /infer handler, request scan and response bytes vs encoding/json, 10s each)"
go test -run '^$' -fuzz '^FuzzMatMulKernelsBitEqual$' -fuzztime=30s -fuzzminimizetime=1s ./internal/tensor/
go test -run '^$' -fuzz '^FuzzConvKernelBitEqual$' -fuzztime=10s -fuzzminimizetime=1s ./internal/tensor/
go test -run '^$' -fuzz '^FuzzElementwiseKernelsBitEqual$' -fuzztime=10s -fuzzminimizetime=1s ./internal/tensor/
go test -run '^$' -fuzz '^FuzzPackRoundTrip$' -fuzztime=10s -fuzzminimizetime=1s ./internal/tensor/
go test -run '^$' -fuzz '^FuzzFrameRoundTrip$' -fuzztime=10s -fuzzminimizetime=1s ./internal/transport/
go test -run '^$' -fuzz '^FuzzManifestParse$' -fuzztime=10s -fuzzminimizetime=1s ./internal/checkpoint/
go test -run '^$' -fuzz '^FuzzPlanJSON$' -fuzztime=10s -fuzzminimizetime=1s ./internal/partition/
go test -run '^$' -fuzz '^FuzzInferRequest$' -fuzztime=10s -fuzzminimizetime=1s ./cmd/pipedream-serve/
go test -run '^$' -fuzz '^FuzzDecodeInferRequest$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve/
go test -run '^$' -fuzz '^FuzzInferResponseBytes$' -fuzztime=10s -fuzzminimizetime=1s ./internal/serve/

echo "== vector tanh and sigmoid vs math.Tanh / math.Exp on all 2^32 float32 inputs (about 1 minute on two cores, 1.5 on one)"
go test -count=1 -run '^TestTanhSigmoidBitEqual$' ./internal/tensor/ -tensor.exhaustive

echo "== alloc budgets (allocs/op vs scripts/alloc_budget.txt, on one core like the budgets)"
ALLOC_OUT=$(GOMAXPROCS=1 go test -run '^$' -bench '^(BenchmarkLSTMForwardBackward|BenchmarkPipelineRuntimeEpoch|BenchmarkGradSync|BenchmarkServeDynamic)$' \
    -benchmem -benchtime 10x .)
echo "$ALLOC_OUT"
OVER=$(echo "$ALLOC_OUT" | awk '
    NR == FNR {
        if ($0 !~ /^#/ && NF == 2) budget[$1] = $2
        next
    }
    /^Benchmark/ && / allocs\/op/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
        if (name in budget && allocs + 0 > budget[name] + 0)
            printf "%s: %d allocs/op exceeds budget %d\n", name, allocs, budget[name]
    }
' scripts/alloc_budget.txt -)
if [ -n "$OVER" ]; then
    echo "alloc regression (tighten the code or consciously raise scripts/alloc_budget.txt):" >&2
    echo "$OVER" >&2
    exit 1
fi
# Per request, not per benchmark op, and AllocsPerRun pins itself to one
# core: no GOMAXPROCS here.
go test -count=1 -run '^TestHandleInferAllocs$' -v ./cmd/pipedream-serve/

echo "== no panics on transport send/receive paths or in the membership view (the data path returns errors; liveness code must degrade, not crash)"
go test -count=1 ./internal/transport/ -run '^TestNoPanicOnDataPathOrMembership$'

echo "== doc comments (exported identifiers in pipeline + metrics + serve + fleet + cliconf + tensor + checkpoint + membership, through go/parser)"
go test -count=1 -run '^TestExportedIdentifiersHaveDocComments$' .

echo "== markdown cross-references (links resolve, named packages exist)"
# Relative markdown links in every core document must point at real
# files (anchors stripped; resolved against the document's directory).
for doc in README.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/SERVING.md; do
    [ -f "$doc" ] || { echo "$doc missing" >&2; exit 1; }
    base=$(dirname "$doc")
    for target in $(grep -o '](\.\./[^)#]*\|]([A-Za-z0-9_./-]*\.md' "$doc" | sed 's/^](//'); do
        if [ ! -e "$base/$target" ]; then
            echo "$doc: broken link $target" >&2
            exit 1
        fi
    done
done
# Every internal/<pkg> the package maps name must exist in the tree.
for doc in docs/ARCHITECTURE.md docs/SERVING.md; do
    for pkg in $(grep -o 'internal/[a-z]*' "$doc" | sort -u); do
        if [ ! -d "$pkg" ]; then
            echo "$doc: names missing package $pkg" >&2
            exit 1
        fi
    done
done
# README must link the architecture map and the serving guide; the
# architecture map must link the serving guide.
grep -q 'docs/ARCHITECTURE.md' README.md || { echo "README.md does not link docs/ARCHITECTURE.md" >&2; exit 1; }
grep -q 'docs/SERVING.md' README.md || { echo "README.md does not link docs/SERVING.md" >&2; exit 1; }
grep -q 'SERVING.md' docs/ARCHITECTURE.md || { echo "docs/ARCHITECTURE.md does not link SERVING.md" >&2; exit 1; }

echo "== facade exports (go doc -all . against testdata/facade.golden: every re-exported name, declaration and doc comment)"
go test -count=1 -run '^TestFacadeGolden$' .

echo "== non-test Go lines outside bench/, and the largest runtime file (baselines for the next PR)"
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
wc -l internal/pipeline/pipeline.go

echo "all checks passed"
