package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of values by linear interpolation
// between order statistics (0 when empty). The caller's slice is not
// reordered.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux configuration Go supports.
const clockTick = 100

// procCPUSeconds returns the user+system CPU time pid has consumed so
// far, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after comm", pid, len(rest))
	}
	utime, err := strconv.ParseFloat(rest[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(rest[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSSMB returns pid's peak resident set size (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// procSelfCPUSeconds returns the user+system CPU time this process has
// consumed so far. Unlike /proc/<pid>/stat it is not rounded to clock
// ticks, so it resolves the CPU time of a single Train call.
func procSelfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// undisturbed is the quantile of per-slice times a run reports as its
// time: the fastest twentieth. The machine is shared, and a neighbour on it
// makes the benchmark half again slower for a second or a minute at a
// time and for anything from a tenth to nine tenths of a run. That only
// ever adds time, so the fast end of a run's slices is the program's own
// speed, and it repeats from run to run where the median lands in
// whichever state the neighbours held for longer.
const undisturbed = 0.05

// meter cuts the measured parts of a run into slices of whole operations
// and keeps, for each slice, the wall and CPU time one operation took in
// it.
type meter struct {
	cpu   func() (float64, error) // CPU seconds the measured process has used so far
	err   error                   // the first error cpu returned
	every time.Duration           // least length of a slice; 0 makes every operation a slice

	at      time.Time // start of the current slice
	cpuAt   float64
	pending int // operations completed in the current slice

	wallPerOp, cpuPerOp []float64 // seconds, one entry per slice
}

func (m *meter) readCPU() float64 {
	v, err := m.cpu()
	if m.err == nil {
		m.err = err
	}
	return v
}

// start begins a slice now. Time and CPU spent before it, such as a
// set-up between two measured parts, belong to no slice.
func (m *meter) start() { m.at, m.cpuAt, m.pending = time.Now(), m.readCPU(), 0 }

// done counts n more completed operations and ends the slice if it is
// long enough. Callers call it right after an operation completes, so a
// slice holds whole operations only. A nil meter measures nothing.
func (m *meter) done(n int) {
	if m == nil {
		return
	}
	if m.pending += n; time.Since(m.at) >= m.every {
		m.cut()
	}
}

// cut ends the current slice, if it holds an operation, and begins the
// next.
func (m *meter) cut() {
	if m.pending == 0 {
		return
	}
	now, cpu, n := time.Now(), m.readCPU(), float64(m.pending)
	m.wallPerOp = append(m.wallPerOp, now.Sub(m.at).Seconds()/n)
	m.cpuPerOp = append(m.cpuPerOp, (cpu-m.cpuAt)/n)
	m.at, m.cpuAt, m.pending = now, cpu, 0
}

// finish ends the measurement. Operations completed since the last slice
// ended are too few to time and are dropped, unless no slice has ended
// yet (a run shorter than a slice): then they are the one slice.
func (m *meter) finish() {
	if len(m.wallPerOp) == 0 {
		m.cut()
	}
}

// opsPerSecond is the run's throughput in its undisturbed slices.
func (m *meter) opsPerSecond() float64 { return 1 / quantile(m.wallPerOp, undisturbed) }

// cpuMsPerOp is the CPU time of one operation in the slices that used
// least: a busy neighbour inflates CPU time as well as wall time.
func (m *meter) cpuMsPerOp() float64 { return quantile(m.cpuPerOp, undisturbed) * 1e3 }

// sliceRates is every slice's operations per second, for the result file.
func (m *meter) sliceRates() []float64 {
	out := make([]float64, len(m.wallPerOp))
	for i, w := range m.wallPerOp {
		out[i] = 1 / w
	}
	return out
}
