package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// machine is the stanza every run prints about the host it ran on. Host
// timings are comparable only between runs with equal stanzas.
type machine struct {
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	CalibMs    float64 `json:"env.calib_ms"`
}

func probeMachine() machine {
	return machine{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		CalibMs:    calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a frozen CPU+memory loop that shares no code with the
// repository: xorshift-driven read-modify-writes over a 2 MiB table. It
// returns the median of five passes in ms. The number identifies the
// machine for comparisons across hosts. It normalizes nothing: taken
// once at the start of a run, it cannot follow host slowdowns that come
// and go during the run. Do not edit the loop: that would break
// comparison with recorded values.
func calibrate() float64 {
	table := make([]uint64, 1<<18)
	passes := make([]float64, 5)
	for i := range passes {
		t := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for n := 0; n < 1<<22; n++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(1<<18-1)] += x
		}
		calibSink += table[x&(1<<18-1)]
		passes[i] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	return median(passes)
}

// rssPeriod is how often a rssWatch samples the resident set. The Go
// runtime returns memory to the OS over seconds, so a peak lasts far
// longer than this.
const rssPeriod = 10 * time.Millisecond

// rssWatch samples the resident set (VmRSS in /proc/self/status) on its
// own goroutine until stopped. The kernel's own high-water mark, VmHWM,
// covers the whole process life, and getrusage's ru_maxrss even carries
// over from the process that forked this one across exec.
type rssWatch struct {
	stop chan struct{}
	peak chan float64
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), peak: make(chan float64)}
	go func() {
		f, err := os.Open("/proc/self/status")
		if err != nil {
			<-w.stop
			w.peak <- math.NaN()
			return
		}
		defer f.Close()
		buf := make([]byte, 8192)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		peak := rssMB(f, buf)
		for {
			select {
			case <-w.stop:
				w.peak <- math.Max(peak, rssMB(f, buf))
				return
			case <-t.C:
				peak = math.Max(peak, rssMB(f, buf))
			}
		}
	}()
	return w
}

// rssMB reads VmRSS from an open /proc/<pid>/status, in MB, without
// allocating; NaN when it cannot.
func rssMB(f *os.File, buf []byte) float64 {
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return math.NaN()
	}
	b := buf[:n]
	i := bytes.Index(b, []byte("VmRSS:"))
	if i < 0 {
		return math.NaN()
	}
	kb, digits := 0, false
	for _, c := range b[i+len("VmRSS:"):] {
		if c >= '0' && c <= '9' {
			kb = kb*10 + int(c-'0')
			digits = true
		} else if digits {
			break
		}
	}
	if !digits {
		return math.NaN()
	}
	return float64(kb) / 1024
}

// Stop ends the sampling and returns the largest sample, in MB.
func (w *rssWatch) Stop() float64 {
	close(w.stop)
	return <-w.peak
}

// median is the middle value (mean of the middle two for an even count),
// as Python's statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"), so
// spreads read the same here as in tools built on it.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
