package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names and units with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"view_rate_vs_ref", "ratio"},
	{"page_p50_vs_ref", "ratio"},
	{"server_cpu_vs_ref", "ratio"},
	{"server_rss_MB", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".cpu_share", "share"})
	}
	return append(defs, []metricDef{
		{"runtime.gc_cpu_share", "share"},
		{"runtime.other_cpu_share", "share"},
		{"proc.ctx_switches_per_req", "count"},
		{"dcws.render_hit_ratio", "ratio"},
		{"dcws.render_lookups", "count"},
		{"httpx.request_us", "us"},
		{"httpx.head_bytes_per_resp", "B"},
		{"httpx.conns_queued", "count"},
		{"httpx.conns_shed", "count"},
		{"dcws.serve_home_us", "us"},
		{"dcws.serve_coop_us", "us"},
		{"dcws.serve_fetch_us", "us"},
		{"dcws.regen_count", "count"},
		{"dcws.regen_us", "us"},
		{"dcws.home_fetches", "count"},
		{"dcws.redirects_per_kfetch", "count"},
		{"dcws.migrations", "count"},
		{"dcws.revokes", "count"},
		{"dcws.chain_pushes", "count"},
		{"glt.header_bytes", "B"},
		{"glt.emits", "count"},
		{"pool.reuse_ratio", "ratio"},
		{"resilience.retries", "count"},
		{"hedge.wasted_ratio", "ratio"},
		{"wal.appends_per_update", "count"},
		{"wal.bytes_per_update", "B"},
		{"wal.syncs", "count"},
		{"inval.pushes", "count"},
		{"inval.docs_per_batch", "count"},
		{"inval.gaps", "count"},
		{"inval.reconnects", "count"},
		{"telemetry.spans_per_req", "count"},
		{"client.hops_per_fetch", "count"},
		{"client.dials_per_fetch", "count"},
		{"client.connect_us_p50", "us"},
		{"client.ttfb_us_p50", "us"},
		{"client.ttfb_us_p99", "us"},
		{"client.body_us_p50", "us"},
		{"trace.server_share_p50", "share"},
		{"trace.fetch_home_us_p50", "us"},
		{"trace.overhead_frac", "share"},
		{"gen.low_late_p99_ms", "ms"},
		{"gen.low_backlog_max", "count"},
		{"update.ack_ms_p50", "ms"},
		{"update.ack_vs_ref", "ratio"},
		{"update.stale_ms_p50", "ms"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phaseReport is one phase's counts and raw samples, kept in the raw file.
type phaseReport struct {
	Name      string           `json:"name"`
	ElapsedS  float64          `json:"elapsed_s"`
	Attempted int64            `json:"attempted"`
	Failed    map[string]int64 `json:"failed"`
	Views     int64            `json:"views"`
	Fetches   int64            `json:"fetches"`
	Bytes     int64            `json:"bytes"`
	Hops      int64            `json:"hops"`
	Dials     int64            `json:"dials"`
	ViewUs    []int64          `json:"view_latency_us,omitempty"`
	LateUs    []int64          `json:"late_us,omitempty"`
	BacklogMx int              `json:"backlog_max"`
	// ServerCPUms is the servers' CPU time during a closed phase.
	ServerCPUms float64 `json:"server_cpu_ms,omitempty"`
	Growing     bool    `json:"backlog_growing"`
}

// result is everything a run reports; the raw file holds all of it.
type result struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Traced   bool              `json:"traced"`
	Seconds  float64           `json:"seconds"`
	Env      map[string]string `json:"env"`
	SetupS   []float64         `json:"setup_s_samples"`
	// Probes are hostProbe times taken after the warm-up and after each
	// round; they show whether the host itself slowed down during the run.
	Probes      []probe       `json:"host_probes"`
	Phases      []phaseReport `json:"phases"`
	UpdateUs    []int64       `json:"update_ack_us"`
	RefUpdateUs []int64       `json:"ref_update_ack_us"`
	StaleUs     []int64       `json:"stale_us"`
	// Raw are the untraced run's figures in their own units (rates,
	// latencies, CPU time), the reference's beside DCWS's. They are printed
	// but not gated: they follow the shared host's speed (see NOTES.md).
	Raw   map[string]float64 `json:"raw,omitempty"`
	Flags []string           `json:"flags,omitempty"`
	Line  resultLine         `json:"result"`
}

func toUs(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.Microseconds()
	}
	return out
}

// report turns a phase into its raw record, flagging a backlog that grows
// through an open-loop phase: the generator (or the server) could not keep
// up with the offered rate.
func report(p *phase) phaseReport {
	r := phaseReport{
		Name: p.name, ElapsedS: p.elapsed.Seconds(), Attempted: p.st.attempted,
		Failed: make(map[string]int64), Views: p.st.views, Fetches: p.st.fetches,
		Bytes: p.st.bytes, Hops: p.st.hops, Dials: p.st.dials,
		ViewUs: toUs(p.st.viewLat), LateUs: toUs(p.st.late),
	}
	for c, n := range p.st.failed {
		r.Failed[classNames[c]] = n
	}
	r.BacklogMx = maxInt(p.st.backlog)
	if n := len(p.st.backlog); n >= 8 {
		first, last := meanInts(p.st.backlog[:n/4]), meanInts(p.st.backlog[n-n/4:])
		r.Growing = last > 2 && last > 2*first
	}
	return r
}

func meanInts(xs []int) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// finish checks the computed metrics against the definitions: every
// defined metric present, nothing undefined.
func finish(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		return nil, fmt.Errorf("undefined metrics computed: %v", extra)
	}
	return out, nil
}

// printReport writes the human-readable part of the output: environment,
// per-phase operation counts by failure class, and flags.
func (r *result) printReport(w io.Writer) {
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v seconds=%g\n", r.Workload, r.Seed, r.Traced, r.Seconds)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %s: %s\n", k, r.Env[k])
	}
	fmt.Fprintf(w, "  setup_s samples: %v\n", r.SetupS)
	fmt.Fprintf(w, "  host probes (cpu ms/fsync ms): %v\n", r.Probes)
	for _, p := range r.Phases {
		var fails []string
		for _, c := range classNames {
			fails = append(fails, fmt.Sprintf("%s=%d", c, p.Failed[c]))
		}
		fmt.Fprintf(w, "  phase %-15s %6.2fs views=%d fetches=%d attempted=%d %s backlog_max=%d\n",
			p.Name, p.ElapsedS, p.Views, p.Fetches, p.Attempted, strings.Join(fails, " "), p.BacklogMx)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  FLAG: %s\n", f)
	}
	raw := make([]string, 0, len(r.Raw))
	for k := range r.Raw {
		raw = append(raw, k)
	}
	sort.Strings(raw)
	for _, k := range raw {
		fmt.Fprintf(w, "  %-28s %14.4f (not gated)\n", k, r.Raw[k])
	}
	names := make([]string, 0, len(r.Line.Metrics))
	for k := range r.Line.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Line.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", r.Line.Correct, r.Line.Attempted, r.Line.Failed)
}

// A run is flagged as taken while the host's speed moved when its slowest
// CPU probe took over slowCPU times its fastest, or its slowest fsync probe
// over slowSync times its fastest.
const (
	slowCPU  = 1.5
	slowSync = 4
)

// probe is one hostProbe: milliseconds for a fixed amount of
// single-threaded CPU work and for one small write and fsync.
type probe struct {
	CPUms  float64 `json:"cpu_ms"`
	SyncMs float64 `json:"fsync_ms"`
}

func (p probe) String() string { return fmt.Sprintf("%.2f/%.2f", p.CPUms, p.SyncMs) }

// hostProbe measures the host, not DCWS: hashing 4 MiB, then writing and
// syncing 4 KiB in dir, on the disk that updates and the WAL sync to. Runs
// whose probes differ widely were taken while other load on the machine
// changed.
func hostProbe(dir string) probe {
	buf := make([]byte, 256<<10)
	t0 := time.Now()
	for i := 0; i < 16; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	p := probe{CPUms: ms(time.Since(t0)), SyncMs: -1}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return p
	}
	defer os.Remove(f.Name())
	defer f.Close()
	t0 = time.Now()
	if _, err := f.Write(buf[:4096]); err == nil && f.Sync() == nil {
		p.SyncMs = ms(time.Since(t0))
	}
	return p
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		hi = max(hi, x)
	}
	return lo, hi
}

// envelope records where the numbers were measured.
func envelope() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"transport":  "loopback TCP, warm page cache",
		"commit":     "unknown (not a git checkout)",
		"pinned":     os.Getenv(pinnedEnv),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(data))
	}
	nproc := 0
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(k) {
			case "processor":
				nproc++
			case "model name":
				env["cpu"] = strings.TrimSpace(v)
			}
		}
	}
	env["nproc"] = fmt.Sprint(nproc)
	env["source_digest"] = sourceDigest(".")
	return env
}
