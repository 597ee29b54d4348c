// Command perfbench is the end-to-end DCWS benchmark. It starts real dcwsd
// processes on fresh store.Dir roots, drives them over loopback TCP with
// the paper's Algorithm-2 walk from one load-generator process, checks
// every body it receives, and prints one JSON result line:
//
//	perfbench -dcwsd ./dcwsd -workload home-lod -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 the
// servers run with -pprof and the result holds the per-layer metrics. See
// NOTES.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// slots is how many request slots the generator runs: two, so the one CPU
// always has a request to work on.
const slots = 2

// setups is how many times a run launches its cluster; setup_s is the
// median, and the last cluster is the one measured.
const setups = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed for the site placement, the walk and the arrival schedule")
		seconds = flag.Float64("seconds", 10, "measured seconds, split over the closed and low-rate phases on DCWS and on the reference server")
		trace   = flag.Int("trace", 0, "1: run traced and print the per-layer metrics instead of the end-to-end ones")
		dcwsd   = flag.String("dcwsd", ".bench_build/bin/dcwsd", "dcwsd binary to launch")
		work    = flag.String("work", ".bench_build", "directory for run roots, logs and raw results")
		refAddr = flag.String("serve-reference", "", "run as the reference server on this address (started by perfbench itself)")
		refRoot = flag.String("root", "", "site root of the reference server")
	)
	flag.Parse()
	if *refAddr != "" {
		if err := serveReference(*refAddr, *refRoot); err != nil {
			fatalf("reference server: %v", err)
		}
		return
	}
	if err := pinAndReexec(); err != nil {
		fatalf("pin to one CPU: %v", err)
	}
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	bin, err := filepath.Abs(*dcwsd)
	if err != nil {
		fatalf("%v", err)
	}
	if _, err := os.Stat(bin); err != nil {
		fatalf("dcwsd binary: %v", err)
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		fatalf("%v", err)
	}
	runDir := filepath.Join(workDir, "runs", fmt.Sprintf("%s-s%d-t%d-%d", w.name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	b := &bench{
		w:       w,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		bin:     bin,
		dir:     runDir,
		slots:   slots,
	}
	// Stop the servers however the run ends: a signal to this process
	// must not leave dcwsd children behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.stopCluster()
		os.RemoveAll(runDir)
		os.Exit(2)
	}()

	res, err := b.run()
	b.stopCluster()
	if err != nil {
		os.RemoveAll(runDir)
		fatalf("%s: %v", w.name, err)
	}
	res.Env = envelope()
	if err := writeRaw(workDir, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: raw results: %v\n", err)
	}
	os.RemoveAll(runDir)
	res.printReport(os.Stdout)
	line, err := json.Marshal(res.Line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Line.Correct {
		os.Exit(1)
	}
}

// writeRaw keeps the run's raw samples beside its medians, one JSON file
// per run under <work>/results.
func writeRaw(workDir string, res *result) error {
	dir := filepath.Join(workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, btoi(res.Traced), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
