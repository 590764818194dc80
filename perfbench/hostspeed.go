package main

import (
	"container/heap"
	"hash/crc32"
	"math/rand"
	"runtime"
	"time"
)

// On a shared host the speed at which the same code runs drifts by tens of
// percent over minutes, with the load the host's other tenants put on its
// cores, caches and memory. A run cannot outlast that drift, so it measures
// it instead: before and after every unit, and between the rigs of a long
// one, the benchmark times a fixed reference kernel, and each host-time
// figure of a unit is scaled by how long the kernel took around it. The kernel is the benchmark's own code,
// frozen: a change to the program moves the units' times, never the
// kernel's.
//
// The kernel does in miniature what the workloads spend their time on:
// allocating payload-sized buffers, copying them and taking their CRC32,
// pushing timer events (a pointer and a closure each) through a binary
// heap and a map, and the collections all that allocation triggers. It runs
// right after a forced collection at a point where no rig is reachable, so
// those collections find only the kernel's own objects and the little the
// benchmark keeps (0.1-0.25 MB live in every workload).

// refNominal is the time the scaled figures assume one kernel repetition
// takes: about its time on an Intel Xeon 2-vCPU KVM guest with go1.24, so
// that scaled figures there read close to raw ones. Elsewhere they are in
// that host's units and, like every figure, never compared across hosts.
const refNominal = 10 * time.Millisecond

// refShare is the kernel's share of host time: a burst repeats the kernel
// until it has run for this share of the time since the previous burst.
const refShare = 0.06

// refEvery is the shortest time between bursts inside a unit. A burst runs
// before the first unit, after every unit, and after any rig that ends at
// least refEvery after the previous burst, so a unit of several seconds is
// sampled along its length and not only at its ends.
const refEvery = 500 * time.Millisecond

// refRounds is how many buffers one repetition allocates.
const refRounds = 1600

// refKernel is the reference kernel.
type refKernel struct {
	src []byte // the bytes every buffer is copied from
	sum uint32 // checksum of the last repetition's work
}

func newRefKernel() *refKernel {
	k := &refKernel{src: make([]byte, 16<<10)}
	rand.New(rand.NewSource(1)).Read(k.src)
	return k
}

// refEvent is a timer event as the simulator keeps them: a due time and a
// closure.
type refEvent struct {
	at int64
	fn func()
}

type refEvents []*refEvent

func (h refEvents) Len() int           { return len(h) }
func (h refEvents) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refEvents) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEvents) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refEvents) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

var refSizes = [...]int{512, 4 << 10, 16 << 10}

// rep runs one repetition and returns its wall time. Every repetition
// draws the same sizes and due times, so it does the same work.
func (k *refKernel) rep() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(7))
	var events refEvents
	due := map[int64]int{}
	var live [][]byte
	var sum uint32
	fired := 0
	for i := 0; i < refRounds; i++ {
		b := make([]byte, refSizes[rng.Intn(len(refSizes))])
		copy(b, k.src)
		sum = crc32.Update(sum, crc32.IEEETable, b)
		if live = append(live, b); len(live) > 64 {
			live = live[1:]
		}
		for j := 0; j < 8; j++ {
			at := rng.Int63n(1 << 30)
			heap.Push(&events, &refEvent{at: at, fn: func() { fired++ }})
			due[at] = j
		}
		for j := 0; j < 7; j++ {
			e := heap.Pop(&events).(*refEvent)
			e.fn()
			delete(due, e.at)
		}
	}
	k.sum = sum + uint32(fired) + uint32(len(due)) + uint32(events.Len())
	return time.Since(t0)
}

// hostClock samples the host's speed with the reference kernel.
type hostClock struct {
	k    *refKernel
	last time.Time // when the previous burst ended
}

func newHostClock() *hostClock { return &hostClock{k: newRefKernel(), last: time.Now()} }

// sample runs a burst sized to the time since the previous one.
func (h *hostClock) sample() time.Duration {
	t := h.k.burst(time.Duration(refShare * float64(time.Since(h.last))))
	h.last = time.Now()
	return t
}

// burst collects the heap, runs one untimed repetition to warm the caches
// the preceding unit evicted, then repeats the kernel until it has spent at
// least d (at least once), and returns the median repetition time.
func (k *refKernel) burst(d time.Duration) time.Duration {
	runtime.GC()
	k.rep()
	var reps []float64
	var spent time.Duration
	for len(reps) == 0 || spent < d {
		t := k.rep()
		spent += t
		reps = append(reps, float64(t))
	}
	return time.Duration(median(reps))
}
