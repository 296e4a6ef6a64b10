package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// host is the machine record printed with every run.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	// AVX reports whether internal/nn's AVX kernels are in use; it applies
	// the same CPUID and XCR0 test.
	AVX     bool    `json:"avx"`
	Go      string  `json:"go"`
	FsyncUS float64 `json:"tmp_fsync_us"`
}

func probeHost(tmp string) (host, error) {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		AVX:        hasAVX(),
		Go:         runtime.Version(),
	}
	var err error
	h.FsyncUS, err = fsyncLatency(tmp)
	return h, err
}

// fsyncLatency is the mean time to append a small record to a file in dir
// and fsync it — what the serve-short-jobs journal does per group commit.
func fsyncLatency(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const n = 32
	rec := make([]byte, 128)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := f.Write(rec); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
	}
	return us(time.Since(start)) / n, nil
}
