package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe scales the SUT's CPU time to a reference speed of
// the host. On a shared 2-vCPU VM the same instructions take from
// 5.4 to 9.9 ms per probe slice, in regimes that last from seconds to
// minutes as the neighbours' load comes and goes, and the SUT's CPU
// time per event follows: its ten-seed spread was 0.17 to 0.29 of the
// median. The probe is a fixed task of the benchmark's own: it parses
// an NDJSON-like buffer, looks its labels up in a map and hashes its
// bytes, like the decode and routing the SUT does, but no code of the
// repository runs in it, so no change to the SUT can move it.
//
// During the closed loop the prober stops the SUT (SIGSTOP) every
// probePeriod, times one slice on an otherwise idle machine and lets
// the SUT continue (SIGCONT), so probe and SUT alternate on the same
// host regime without sharing a CPU. Run back to back on one thread,
// the engine's block decoder and the probe keep their ratio within ±3%
// while each moves ±18%. cpu_us_per_event is the SUT's CPU time per
// event times probeRef ÷ the probe's slice time: CPU time counted in
// units of the probe's work. The whole SUT does not follow the probe
// exactly: over runs of ingest and engine, log-log fits of its CPU
// time per event on the slice time had slopes from 0.7 to 1.4 in
// different hours, so the ratio removes most of the host's drift, not
// all of it.

const (
	// probeLines is the size of the probe's buffer, about 1 MiB.
	probeLines = 16384
	// probePasses is how often one probe slice walks the buffer, about
	// 6 ms of CPU on a 2-vCPU Xeon VM.
	probePasses = 2
	// probeRef is a typical slice in a quiet period on that VM; it
	// only sets the scale of cpu_us_per_event.
	probeRef = 6 * time.Millisecond
	// probePeriod is how often the prober pauses the SUT for a slice.
	probePeriod = 50 * time.Millisecond
)

// probeBuf holds the probe's fixed input and its label map.
var probeBuf struct {
	lines  [][]byte
	labels map[string]int32
	counts []int64
}

func init() {
	labels := []string{"C", "P", "D", "B", "N0", "N1", "N2", "N3", "N4", "N5", "N6", "N7"}
	probeBuf.labels = make(map[string]int32, len(labels))
	for i, l := range labels {
		probeBuf.labels[l] = int32(i)
	}
	probeBuf.counts = make([]int64, len(labels)*64)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	probeBuf.lines = make([][]byte, probeLines)
	for i := range probeBuf.lines {
		b := []byte(`{"T":`)
		b = appendUint(b, 1_270_000_000+next()%10_000_000)
		b = append(b, `,"ID":`...)
		b = appendUint(b, next()%4096)
		b = append(b, `,"L":"`...)
		b = append(b, labels[next()%uint64(len(labels))]...)
		b = append(b, `","V":`...)
		b = appendUint(b, next()%100000)
		b = append(b, `,"U":"mg"}`...)
		probeBuf.lines[i] = b
	}
}

func appendUint(b []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// probeSink keeps the probe's result alive.
var probeSink uint64

// probeSlice runs one slice of the probe task.
func probeSlice() {
	var h uint64 = 14695981039346656037
	counts := probeBuf.counts
	for pass := 0; pass < probePasses; pass++ {
		for _, line := range probeBuf.lines {
			var id, num uint64
			field := 0
			inStr := false
			start := 0
			for i, c := range line {
				h = (h ^ uint64(c)) * 1099511628211
				switch {
				case c == '"':
					if inStr && field == 3 {
						if l, ok := probeBuf.labels[string(line[start:i])]; ok {
							counts[int(l)*64+int(id%64)]++
						}
					}
					inStr = !inStr
					start = i + 1
				case c == ':' && !inStr:
					field++
					num = 0
				case c >= '0' && c <= '9' && !inStr:
					num = num*10 + uint64(c-'0')
					if field == 2 {
						id = num
					}
				}
			}
			h ^= num
		}
	}
	probeSink += h
}

// threadCPU returns the calling thread's CPU time from the scheduler's
// own clock; getrusage and /proc tick counts have a 4 ms grain.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// prober times probe slices on a locked OS thread, one at once and
// then one every period, each with the SUT paused, until ended.
type prober struct {
	stop   chan struct{}
	done   chan struct{}
	times  []time.Duration // CPU time of each slice
	paused [][2]time.Time  // wall-clock intervals the SUT was paused
}

// startProber starts probing; pause stops (true) or continues (false)
// the SUT.
func startProber(period time.Duration, pause func(stopped bool)) *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			w0 := time.Now()
			pause(true)
			t0 := threadCPU()
			probeSlice()
			p.times = append(p.times, threadCPU()-t0)
			pause(false)
			p.paused = append(p.paused, [2]time.Time{w0, time.Now()})
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end stops the prober, leaving the SUT running, and returns the mean
// slice time, without the fastest and the slowest tenth, and the
// number of slices. A mean, since the SUT's CPU time adds up over
// every regime the run passed through.
func (p *prober) end() (time.Duration, int) {
	close(p.stop)
	<-p.done
	sort.Slice(p.times, func(i, j int) bool { return p.times[i] < p.times[j] })
	cut := len(p.times) / 10
	kept := p.times[cut : len(p.times)-cut]
	var sum time.Duration
	for _, t := range kept {
		sum += t
	}
	return sum / time.Duration(len(kept)), len(p.times)
}

// pausedWithin is how long the SUT was paused between a and b; call it
// after end.
func (p *prober) pausedWithin(a, b time.Time) time.Duration {
	var d time.Duration
	for _, iv := range p.paused {
		lo, hi := iv[0], iv[1]
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if hi.After(lo) {
			d += hi.Sub(lo)
		}
	}
	return d
}
