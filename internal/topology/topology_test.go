package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClusterPresets(t *testing.T) {
	cases := []struct {
		topo    *Topology
		workers int
	}{
		{ClusterA(4), 16},
		{ClusterA(1), 4},
		{ClusterB(2), 16},
		{ClusterC(4), 4},
		{Fig1Private(4), 32},
		{Dedicated(8), 64},
		{Flat(5, 1e9, V100), 5},
	}
	for _, c := range cases {
		if err := c.topo.Validate(); err != nil {
			t.Fatalf("%s: %v", c.topo.Name, err)
		}
		if got := c.topo.TotalWorkers(); got != c.workers {
			t.Fatalf("%s: workers = %d, want %d", c.topo.Name, got, c.workers)
		}
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	bad := []*Topology{
		{Name: "empty", Device: V100},
		{Name: "zero-width", Device: V100, Levels: []Level{{Width: 0, Bandwidth: 1}}},
		{Name: "no-bw", Device: V100, Levels: []Level{{Width: 2, Bandwidth: 0}}},
		{Name: "no-flops", Device: Device{Name: "x"}, Levels: []Level{{Width: 2, Bandwidth: 1}}},
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", topo.Name)
		}
	}
}

func TestSlowestBandwidth(t *testing.T) {
	topo := ClusterA(4)
	if got := topo.SlowestBandwidth(); got != 10*Gbps*EthernetEff {
		t.Fatalf("slowest = %v, want 10 Gbps at TCP efficiency", got)
	}
	single := ClusterA(1)
	if got := single.SlowestBandwidth(); got != 2*GBps {
		t.Fatalf("single-server slowest = %v, want PCIe", got)
	}
}

func TestLevelSpanned(t *testing.T) {
	topo := ClusterB(4) // 8 GPUs/server, 4 servers
	if k := topo.levelSpanned(8); k != 0 {
		t.Fatalf("8 workers span level %d, want 0", k)
	}
	if k := topo.levelSpanned(9); k != 1 {
		t.Fatalf("9 workers span level %d, want 1", k)
	}
	if k := topo.levelSpanned(1000); k != 1 {
		t.Fatalf("oversize group spans level %d, want outermost", k)
	}
}

func TestAllReduceTimeSingleWorkerIsZero(t *testing.T) {
	if got := ClusterA(2).AllReduceTime(1<<30, 1); got != 0 {
		t.Fatalf("m=1 allreduce = %v, want 0", got)
	}
	if got := ClusterA(2).AllReduceTime(0, 8); got != 0 {
		t.Fatalf("0-byte allreduce = %v, want 0", got)
	}
}

func TestAllReduceNVLinkIntraServer(t *testing.T) {
	topo := ClusterB(1)
	// 8 workers on dedicated NVLink: 2*(7/8)*bytes / 30 GB/s.
	bytes := int64(528 << 20)
	want := 2 * 7.0 / 8.0 * float64(bytes) / (30 * GBps)
	if got := topo.AllReduceTime(bytes, 8); math.Abs(got-want) > 1e-9 {
		t.Fatalf("NVLink allreduce = %v, want %v", got, want)
	}
}

func TestAllReducePCIeSharing(t *testing.T) {
	topo := ClusterA(1)
	bytes := int64(100 << 20)
	// PCIe is a shared tree: 4 workers contend, so effective bandwidth is
	// 2 GB/s ÷ 4.
	want := 2 * 3.0 / 4.0 * float64(bytes) / (2 * GBps / 4)
	if got := topo.AllReduceTime(bytes, 4); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PCIe allreduce = %v, want %v", got, want)
	}
}

func TestAllReduceHierarchicalPhases(t *testing.T) {
	topo := ClusterB(4) // 8/server NVLink, 25 Gbps (x TCP efficiency) NICs
	bytes := int64(100 << 20)
	// 32 workers: an NVLink ring phase inside each server plus an
	// Ethernet ring phase across the 4 servers.
	intra := 2 * 7.0 / 8.0 * float64(bytes) / (30 * GBps)
	inter := 2 * 3.0 / 4.0 * float64(bytes) / (25 * Gbps * EthernetEff)
	want := intra + inter
	if got := topo.AllReduceTime(bytes, 32); math.Abs(got-want) > 1e-6 {
		t.Fatalf("cross-server allreduce = %v, want %v", got, want)
	}
}

// Property: all-reduce time is monotonically non-decreasing in group size
// and in payload.
func TestAllReduceMonotonicity(t *testing.T) {
	topo := ClusterB(8)
	f := func(rawBytes uint32, rawM uint8) bool {
		bytes := int64(rawBytes%(1<<28)) + 1
		m := int(rawM%63) + 1
		t1 := topo.AllReduceTime(bytes, m)
		t2 := topo.AllReduceTime(bytes, m+1)
		t3 := topo.AllReduceTime(2*bytes, m)
		return t2 >= t1 && t3 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestP2PTimeUsesSpannedLink(t *testing.T) {
	topo := ClusterA(2)
	bytes := int64(1 << 20)
	// Within a server: PCIe.
	if got, want := topo.P2PTime(bytes, 2), float64(bytes)/(2*GBps); math.Abs(got-want) > 1e-12 {
		t.Fatalf("intra-server p2p = %v, want %v", got, want)
	}
	// Across servers: 10 Gbps at TCP efficiency.
	if got, want := topo.P2PTime(bytes, 8), float64(bytes)/(10*Gbps*EthernetEff); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cross-server p2p = %v, want %v", got, want)
	}
}

// The group prices are built from the level prices, bit for bit:
// AllReduceTime is one ringTime phase per level spanned, with that level's
// participant count, and P2PTime is linkTime at the spanned level.
func TestGroupPricesAreLevelPrices(t *testing.T) {
	topo := ClusterA(4) // 4 GPUs on a shared bus per server, 4 servers
	bytes := int64(123456789)
	for _, c := range []struct{ m, inner, outer int }{
		{2, 2, 1}, {3, 3, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {12, 4, 3}, {16, 4, 4},
	} {
		want := topo.ringTime(0, bytes, c.inner) + topo.ringTime(1, bytes, c.outer)
		if got := topo.AllReduceTime(bytes, c.m); got != want {
			t.Fatalf("AllReduceTime(%d workers) = %v, want ringTime sum %v", c.m, got, want)
		}
	}
	for _, c := range []struct{ m, level int }{{2, 0}, {4, 0}, {5, 1}, {16, 1}, {100, 1}} {
		if got, want := topo.P2PTime(bytes, c.m), topo.linkTime(c.level, bytes); got != want {
			t.Fatalf("P2PTime(span %d) = %v, want linkTime(level %d) = %v", c.m, got, c.level, want)
		}
	}
}

// Figure-1 shape at the topology level: cross-server DP sync for a
// weight-heavy model dwarfs the same sync within one server.
func TestCrossServerSyncMuchSlowerThanIntra(t *testing.T) {
	intra := ClusterB(1).AllReduceTime(528<<20, 8)
	cross := ClusterB(4).AllReduceTime(528<<20, 32)
	if cross < 10*intra {
		t.Fatalf("cross/intra = %v, want ≥10×", cross/intra)
	}
}
