package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// warmShare is the part of a measurement's time budget spent on untimed
// warm-up operations (connections, lazy initialisation, first GC cycles).
const warmShare = 0.05

// sample is the timed part of one measurement.
type sample struct {
	durs   []time.Duration // granted time of each timed operation
	raw    []time.Duration // wall time of each
	wall   time.Duration   // granted; serial: sum of durs (checks excluded); closed loop: elapsed
	cpu    time.Duration   // process CPU (user+system) over the timed operations
	mem    memDelta        // allocation and GC activity over the timed phase
	stolen float64         // share of the timed phase's wall time that was not granted
}

// tally counts checked operations; a failed check is a failed operation.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     error
}

func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

// expect notes one check that is not an operation of its own kind: it adds
// a failure without inflating the operation count when cond is false.
func (t *tally) expect(cond bool, format string, args ...any) {
	if cond {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.first == nil {
		t.first = fmt.Errorf(format, args...)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The reference box is a small virtual machine whose hypervisor takes the
// CPUs away for a tenth of the time on average and for a third of it in bad
// minutes, which moved the wall time of an unchanged operation by 30 %
// between runs. The kernel accounts for that time (steal in /proc/stat), so
// the benchmark reports granted time: wall time scaled by the share of the
// CPU time the machine's processes asked for that they got. On a machine
// nobody steals from, granted time is wall time.

// cpuReading is the machine's cumulative busy and stolen CPU time, in clock
// ticks summed over the CPUs, at an instant.
type cpuReading struct {
	at          time.Time
	busy, steal int64
}

// readCPU reads /proc/stat; where there is none every reading is zero and
// all time counts as granted.
func readCPU() cpuReading {
	r := cpuReading{at: time.Now()}
	f, err := os.Open("/proc/stat")
	if err != nil {
		return r
	}
	defer f.Close()
	// The first line sums the CPUs: user nice system idle iowait irq softirq
	// steal (guest time is already in user).
	var user, nice, system, idle, iowait, irq, softirq int64
	if _, err := fmt.Fscanf(f, "cpu %d %d %d %d %d %d %d %d", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &r.steal); err != nil {
		return cpuReading{at: r.at}
	}
	r.busy = user + nice + system + irq + softirq
	return r
}

// grantedSince is the share of the CPU time asked for since an earlier
// reading that was granted: busy ÷ (busy + stolen).
func (r cpuReading) grantedSince(earlier cpuReading) float64 {
	busy, steal := r.busy-earlier.busy, r.steal-earlier.steal
	if busy+steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

func scale(d time.Duration, by float64) time.Duration { return time.Duration(float64(d) * by) }

// grantEvery is how long an interval of the granted clock lasts: long enough
// that /proc/stat's 10 ms ticks resolve a share to a hundredth, short enough
// that a burst of steal is charged to the operations it hit.
const grantEvery = time.Second

// grantedClock cuts a timed phase into intervals and keeps each one's
// granted share. Operations are filed under the interval they end in.
type grantedClock struct {
	mu     sync.Mutex
	open   cpuReading      // where the open interval starts
	length []time.Duration // of each closed interval
	share  []float64       // of each closed interval
}

func newGrantedClock() *grantedClock { return &grantedClock{open: readCPU()} }

// slot returns the interval an operation ending now belongs to, and closes
// that interval once it has lasted grantEvery.
func (c *grantedClock) slot(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.share)
	if now.Sub(c.open.at) >= grantEvery {
		c.close(readCPU())
	}
	return n
}

func (c *grantedClock) close(r cpuReading) {
	c.length = append(c.length, r.at.Sub(c.open.at))
	c.share = append(c.share, r.grantedSince(c.open))
	c.open = r
}

// settle closes the last interval and fills in s from the operations' wall
// times and slots: their granted times, and the granted length of the phase.
func (c *grantedClock) settle(s *sample, slots []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.close(readCPU())
	s.durs = make([]time.Duration, len(s.raw))
	for i, d := range s.raw {
		s.durs[i] = scale(d, c.share[slots[i]])
	}
	var wall, granted time.Duration
	for i, d := range c.length {
		wall += d
		granted += scale(d, c.share[i])
	}
	s.wall = granted
	s.stolen = 1 - float64(granted)/float64(wall)
}

// memDelta is what runtime.MemStats moved by between two reads.
type memDelta struct {
	mallocs uint64
	bytes   uint64
	pause   time.Duration
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, time.Duration(m.PauseTotalNs)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pause - b.pause}
}

// serialLoop runs op(i) back to back for budget: the first warmShare of it
// untimed, the rest timed one call at a time. check(i), when non-nil, runs
// after each call outside the timing and its verdict goes to t.
func serialLoop(budget time.Duration, t *tally, op func(i int), check func(i int) error) *sample {
	start := time.Now()
	warmEnd := start.Add(time.Duration(float64(budget) * warmShare))
	end := start.Add(budget)
	i := 0
	for ; i == 0 || time.Now().Before(warmEnd); i++ {
		op(i)
		if check != nil {
			t.note(check(i))
		}
	}
	runtime.GC()
	s := &sample{}
	var slots []int
	mem0, clock := readMem(), newGrantedClock()
	for ; len(s.raw) == 0 || time.Now().Before(end); i++ {
		c0, t0 := cpuTime(), time.Now()
		op(i)
		t1 := time.Now()
		s.cpu += cpuTime() - c0
		s.raw = append(s.raw, t1.Sub(t0))
		slots = append(slots, clock.slot(t1))
		if check != nil {
			t.note(check(i))
		}
	}
	s.mem = readMem().since(mem0)
	clock.settle(s, slots)
	// The operations ran back to back but for the checks, which are not
	// theirs: the phase is as long as its operations.
	s.wall = 0
	for _, d := range s.durs {
		s.wall += d
	}
	return s
}

// closedLoop runs clients goroutines for budget, each calling op(client, i)
// back to back — a closed loop: a client sends its next operation only when
// the previous one has completed. Operations that start in the first
// warmShare of the budget are untimed; every client times at least one.
func closedLoop(budget time.Duration, clients int, op func(client, i int)) *sample {
	start := time.Now()
	warmEnd := start.Add(time.Duration(float64(budget) * warmShare))
	end := start.Add(budget)
	raw, slots := make([][]time.Duration, clients), make([][]int, clients)
	var wg sync.WaitGroup
	var c0 time.Duration
	var mem0 memDelta
	var clock *grantedClock
	var once sync.Once
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(end) && len(raw[c]) > 0 {
					return
				}
				timed := !t0.Before(warmEnd)
				if timed {
					once.Do(func() { c0, mem0, clock = cpuTime(), readMem(), newGrantedClock() })
				}
				op(c, i)
				if timed {
					t1 := time.Now()
					raw[c] = append(raw[c], t1.Sub(t0))
					slots[c] = append(slots[c], clock.slot(t1))
				}
			}
		}(c)
	}
	wg.Wait()
	s := &sample{cpu: cpuTime() - c0, mem: readMem().since(mem0)}
	var all []int
	for c := range raw {
		s.raw = append(s.raw, raw[c]...)
		all = append(all, slots[c]...)
	}
	clock.settle(s, all)
	return s
}

// quantile returns the q-quantile of durs (nearest rank on a sorted copy).
func quantile(durs []time.Duration, q float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianOf times f for budget (at least one call) and returns the median.
func medianOf(budget time.Duration, f func()) time.Duration {
	var durs []time.Duration
	for end := time.Now().Add(budget); len(durs) == 0 || time.Now().Before(end); {
		t0 := time.Now()
		f()
		durs = append(durs, time.Since(t0))
	}
	return quantile(durs, 0.5)
}

// nsPerCall times batches of f for budget and returns the median batch's
// nanoseconds per call — for calls too short to time one at a time.
func nsPerCall(budget time.Duration, batch int, f func()) float64 {
	d := medianOf(budget, func() {
		for i := 0; i < batch; i++ {
			f()
		}
	})
	return float64(d) / float64(batch)
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// endToEnd assembles the metrics every workload reports from its untraced
// sample.
func (s *sample) endToEnd(setup time.Duration, objective float64) map[string]float64 {
	n := float64(len(s.durs))
	return map[string]float64{
		"setup_s":       setup.Seconds(),
		"op_p50_ms":     ms(quantile(s.durs, 0.50)),
		"ops_per_s":     n / s.wall.Seconds(),
		"objective_rel": objective,
		"peak_rss_mb":   peakRSSMB(),
	}
}

// runtimeLayer reports the Go runtime's share of a sample.
func (s *sample) runtimeLayer(out map[string]float64) {
	n := float64(len(s.durs))
	out["runtime.allocs_per_op"] = float64(s.mem.mallocs) / n
	out["runtime.alloc_mb_per_op"] = float64(s.mem.bytes) / n / 1e6
	out["runtime.gc_pause_ms_total"] = ms(s.mem.pause)
	out["runtime.cpu_ms_per_op"] = ms(s.cpu) / n
	out["runtime.peak_rss_mb"] = peakRSSMB()
}
