package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo describes the machine a result was measured on. Host times
// only compare between documents whose hostInfo agrees.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	// RefStartS and RefEndS are the drift sentinel over the first and
	// the second half of the invocation.
	RefStartS float64 `json:"ref_start_s"`
	RefEndS   float64 `json:"ref_end_s"`
}

// driftLimit is the sentinel change beyond which a measurement is
// flagged as taken on a host whose speed moved.
const driftLimit = 0.05

func newHostInfo() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// drift is the relative change of the sentinel across the invocation.
func (h hostInfo) drift() float64 {
	if h.RefStartS <= 0 {
		return 0
	}
	return h.RefEndS/h.RefStartS - 1
}

func (h hostInfo) drifted() bool { return h.drift() > driftLimit || h.drift() < -driftLimit }

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
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

// refBuf is the drift sentinel's fixed input.
var refBuf = func() []byte {
	b := make([]byte, 1<<20)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// refPiece times one piece of the drift sentinel, a SHA-256 over 1 MiB.
// The sentinel exercises nothing of the simulator, so when it moves
// between two measurements the host changed, not the code.
func refPiece() float64 {
	start := time.Now()
	sha256.Sum256(refBuf)
	return time.Since(start).Seconds()
}

// setSentinel turns the pieces sampled through a run into the time of a
// SHA-256 over 64 MiB at the fastest piece, for the run's first half and
// its second half. Sampling across the run, and taking the fastest
// repetition as the metrics do, makes the sentinel see the host speed
// the metrics saw.
func (h *hostInfo) setSentinel(pieces []float64) {
	half := len(pieces) / 2
	h.RefStartS = 64 * fastest(pieces[:half])
	h.RefEndS = 64 * fastest(pieces[half:])
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
