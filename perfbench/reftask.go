package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The reference task is a fixed piece of CPU work that the generator
// times on its own side while the fixed phase runs. On a shared host
// the same code runs faster or slower from one minute to the next
// (neighbours contend for caches and memory, the hypervisor steals
// time), and the server's CPU per op moves with it. The gated CPU
// metric divides the server's CPU per op by the reference task's CPU
// time, measured over the same seconds on the same cores, which takes
// out most of that drift (README.md, "CPU per op").
//
// The task does what the server does most: a PROV-JSON document is
// decoded and re-encoded, and a map of node ids is built and its keys
// sorted. Its input is generated from fixed constants, not from
// --seed, so every run and every commit times the same work.

// refEvery is how often the sampler runs the reference task and reads
// the server's RSS during the fixed phase. One run of the task takes
// about 1.5 ms of CPU, under 2% of one core.
const refEvery = 100 * time.Millisecond

var refDoc, refKeys = func() ([]byte, []string) {
	doc := runDoc(subRand(-1, 999, 0), "run-ref", "ref", "v0", 16000).encode()
	keys := make([]string, 1500)
	for i := range keys {
		keys[i] = "ex:node_" + strconv.Itoa(i*7919%100003)
	}
	return doc, keys
}()

// refTask runs the reference task once and returns the CPU time of
// the thread that ran it.
func refTask() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var v interface{}
	if err := json.Unmarshal(refDoc, &v); err != nil {
		panic(err)
	}
	if _, err := json.Marshal(v); err != nil {
		panic(err)
	}
	m := make(map[string]int)
	for i, k := range refKeys {
		m[k] = i
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return threadCPU() - t0
}

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// phaseSampler runs beside the fixed phase: every refEvery it runs the
// reference task once and reads the server's resident set size.
type phaseSampler struct {
	pid   int
	stop  chan struct{}
	done  chan struct{}
	refMs []float64 // reference-task CPU times
	rssMB []float64 // server VmRSS
	err   error
}

func startSampler(pid int) *phaseSampler {
	r := &phaseSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tk := time.NewTicker(refEvery)
		defer tk.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tk.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *phaseSampler) sample() {
	r.refMs = append(r.refMs, ms(refTask()))
	rss, err := procMem(r.pid, "VmRSS")
	if err != nil && r.err == nil {
		r.err = err
	}
	r.rssMB = append(r.rssMB, float64(rss)/(1<<20))
}

// finish stops the sampler, which has then taken at least one sample.
func (r *phaseSampler) finish() error {
	close(r.stop)
	<-r.done
	if len(r.refMs) == 0 {
		r.sample()
	}
	return r.err
}
