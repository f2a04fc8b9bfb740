package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The throughput metrics are normalised by a reference kernel. On a shared
// host the speed of a core drifts by a quarter or more over minutes, so two
// runs of the same program read very different wall-clock rates. The
// kernel below is fixed code that does not depend on the program, so
// timing it between a run's units measures how fast the host is at that
// moment, and a throughput multiplied by its time is a throughput per
// reference time: it moves when the program changes, much less when the
// host does. The kernel runs in a child process, so its heap counts in
// neither the program's garbage-collector pacing nor peak_rss_mb.

// refShare is the part of each unit's wall time spent on reference samples
// after it.
const refShare = 10

// refSortLen is how many ints the kernel sorts, three times a sample:
// branchy compute over 512 KiB, which stays in a core's cache.
const refSortLen = 1 << 16

// refInput is the unsorted input the kernels copy from, built on first
// use, in the child.
var refInput = sync.OnceValue(func() []int {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]int, refSortLen)
	for i := range xs {
		xs[i] = rng.IntN(1 << 30)
	}
	return xs
})

type refNode struct {
	next *refNode
	v    [3]uint64
}

// refKernel runs a fixed mix of the kinds of work the simulator's time
// goes to — data-dependent branches, and small allocations that the
// collector traces on the other core — and returns its wall time (about
// 30 ms on a 2-vCPU Xeon guest). Of the kernels tried against the
// program's own drift (a 16 MiB and a 1 MiB pointer chase, sorting, map
// churn and allocation), sorting and allocation followed it best.
func refKernel() time.Duration {
	in := refInput()
	t0 := time.Now()
	buf := make([]int, refSortLen)
	for k := 0; k < 3; k++ {
		copy(buf, in)
		slices.Sort(buf)
	}
	// Every 64th list stays live in keep, so the collector, like the
	// program's, marks a live heap of a few MiB.
	keep := make([]*refNode, 4096)
	var head *refNode
	for i := 0; i < 200_000; i++ {
		head = &refNode{next: head, v: [3]uint64{uint64(i)}}
		if i%64 == 63 {
			keep[(i/64)%len(keep)] = head
			head = nil
		}
	}
	d := time.Since(t0)
	runtime.KeepAlive(keep)
	return d
}

// refSamples times the reference kernel repeatedly for d, at least once.
// With n > 1 a sample is n kernels run at once, timed until the last
// ends, as a workload whose timed phase runs on n cores uses them.
func refSamples(d time.Duration, n int) []float64 {
	var out []float64
	for t0 := time.Now(); len(out) == 0 || time.Since(t0) < d; {
		ts := time.Now()
		var wg sync.WaitGroup
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refKernel()
			}()
		}
		wg.Wait()
		out = append(out, time.Since(ts).Seconds())
	}
	return out
}

// serveReference is the child process: for each line "<duration> <n>"
// read from stdin it prints one line of refSamples times in seconds. It
// returns when stdin closes, which it also does when the parent dies.
func serveReference(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var ds string
		var n int
		if _, err := fmt.Sscan(sc.Text(), &ds, &n); err != nil {
			return fmt.Errorf("reference request %q: %w", sc.Text(), err)
		}
		d, err := time.ParseDuration(ds)
		if err != nil {
			return err
		}
		var line []string
		for _, s := range refSamples(d, n) {
			line = append(line, strconv.FormatFloat(s, 'g', -1, 64))
		}
		if _, err := fmt.Fprintln(out, strings.Join(line, " ")); err != nil {
			return err
		}
	}
	return sc.Err()
}

// reference is the parent's handle on the child process.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startReference starts this program again as the reference child, on
// as many cores as the parent runs on.
func startReference() (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// samples collects the unit's garbage, so no background collection runs
// beside the kernel, and has the child time n kernels at once for d.
func (r *reference) samples(d time.Duration, n int) ([]float64, error) {
	runtime.GC()
	if _, err := fmt.Fprintln(r.in, d, n); err != nil {
		return nil, err
	}
	if !r.out.Scan() {
		return nil, fmt.Errorf("reference process: %v", r.out.Err())
	}
	var xs []float64
	for _, f := range strings.Fields(r.out.Text()) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
	}
	return xs, nil
}

// stop ends the child and waits for it.
func (r *reference) stop() error {
	r.in.Close()
	return r.cmd.Wait()
}
