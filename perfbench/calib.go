package main

import (
	"encoding/json"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine.
// Its speed drifts by a factor of up to two or three over minutes as
// neighbours load the physical cores, with no steal time to show for it
// (the vCPUs keep running, only slower), so a repetition's raw rate says
// as much about the neighbours as about the program. To take the drift
// out, every repetition is bracketed by runs of a fixed calibration
// kernel, and the end-to-end rates and times are scaled by how much
// slower or faster than calibRefS the kernel ran around that repetition.
//
// The kernel is ordinary Go work from the standard library only: map
// updates, JSON encoding and decoding, sorting, and the allocation and
// garbage collection they cause. Measured against all three workloads
// through a stretch of heavy contention, its slowdown tracked theirs
// one for one (log-log slopes 0.86 to 1.05), where branchy integer or
// cache-bound array kernels tracked some workloads and not others. It
// uses none of the program's code, so a change to the program moves the
// scaled figures as much as the raw ones.
//
// Set-up is serial, so it is scaled by the kernel's time on one
// goroutine. The run phase is scaled by the geometric mean of that time
// and the kernel's time on one goroutine per executor (drawing rounds
// from one shared pool, as the campaign's executors draw jobs): when the
// neighbours load one vCPU more than the other, the one-goroutine time
// misses part of the slowdown and the pooled time, whose collections
// wait for the slower vCPU, overstates it. Over ten seeds per workload
// in heavy contention, the IQR/median of the runs' median run-phase
// rates was 0.07-0.30 raw, 0.03-0.13 scaled by the one-goroutine time,
// 0.07-0.18 by the pooled time and 0.03-0.09 by their geometric mean.

// calibRefS is the calibration kernel's nominal wall time: scaled rates
// and times read as rates and times on a host where the kernel takes
// this long.
const calibRefS = 0.05

// calibRounds is the kernel's fixed amount of work per goroutine.
const calibRounds = 12

// calib is one calibration: the kernel's wall time, in seconds, on one
// goroutine (the speed a serial phase such as set-up sees) and on one
// goroutine per executor (the speed the parallel run phase sees).
type calib struct{ one, all float64 }

// calibrateHost runs the kernel on one goroutine, then on workers.
func calibrateHost(workers int) calib {
	return calib{one: calibrate(1), all: calibrate(workers)}
}

// runPhase is the kernel time the run phase's rates are scaled by.
func (c calib) runPhase() float64 { return math.Sqrt(c.one * c.all) }

// mean is the calibration halfway between c and d.
func (c calib) mean(d calib) calib {
	return calib{one: (c.one + d.one) / 2, all: (c.all + d.all) / 2}
}

// calibrate runs the calibration kernel once on workers goroutines and
// returns its wall time in seconds. A collection before the clock starts
// keeps the previous repetition's garbage off the clock; returning the
// kernel's heap to the OS afterwards keeps it out of the next
// repetition's peak resident set.
func calibrate(workers int) float64 {
	runtime.GC()
	var wg, start sync.WaitGroup
	var next atomic.Int64
	rounds := int64(workers * calibRounds)
	start.Add(1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			start.Wait()
			for r := next.Add(1); r <= rounds; r = next.Add(1) {
				calibRound(uint64(r)*0x9e3779b97f4a7c15 + 1)
			}
		}()
	}
	t0 := time.Now()
	start.Done()
	wg.Wait()
	d := time.Since(t0).Seconds()
	debug.FreeOSMemory()
	return d
}

// calibRecord is what the kernel encodes and decodes.
type calibRecord struct {
	A int64
	B string
	C []int32
}

// calibRound is one round of the kernel: map counting, a JSON round
// trip of a thousand records and a sort of 30k integers, all drawn from
// a xorshift stream seeded with x.
func calibRound(x uint64) {
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	counts := make(map[uint64]uint32)
	for i := 0; i < 20000; i++ {
		counts[next()%30000]++
	}
	recs := make([]calibRecord, 1000)
	for i := range recs {
		recs[i] = calibRecord{A: int64(next()), B: "record", C: []int32{int32(next()), int32(len(counts))}}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	var back []calibRecord
	if err := json.Unmarshal(data, &back); err != nil || len(back) != len(recs) {
		panic("perfbench: calibration JSON round trip failed")
	}
	xs := make([]int, 30000)
	for i := range xs {
		xs[i] = int(next() >> 1)
	}
	sort.Ints(xs)
}
