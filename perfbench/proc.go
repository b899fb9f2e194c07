package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"syscall"
	"time"
)

// childRun is the outcome of one child process run to completion.
type childRun struct {
	Stdout []byte
	// Wall is spawn to exit; Start is spawn until the child is running
	// (fork plus exec), the exhibits' analogue of a submit round trip.
	Wall, Start time.Duration
	// CPU is user plus system time of the child; PeakRSSMiB its
	// maximum resident set.
	CPU        time.Duration
	PeakRSSMiB float64
}

// runChild runs bin with args to completion under ctx and measures it.
// A non-zero exit, a kill by ctx, or a spawn failure is an error that
// carries the tail of the child's stderr.
func runChild(ctx context.Context, bin string, args ...string) (childRun, error) {
	var out childRun
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return out, fmt.Errorf("start %s: %w", bin, err)
	}
	out.Start = time.Since(t0)
	err := cmd.Wait()
	out.Wall = time.Since(t0)
	out.Stdout = stdout.Bytes()
	if ps := cmd.ProcessState; ps != nil {
		out.CPU = ps.UserTime() + ps.SystemTime()
		out.PeakRSSMiB = peakRSSMiB(ps.SysUsage())
	}
	if err != nil {
		return out, fmt.Errorf("%s %v: %w: %s", bin, args, err, tail(stderr.Bytes(), 400))
	}
	return out, nil
}

// peakRSSMiB reads Maxrss (KiB on Linux) from a child's rusage.
func peakRSSMiB(u any) float64 {
	if ru, ok := u.(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}
