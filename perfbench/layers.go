package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/telemetry"
)

// scrape is one /~dcws/metrics exposition: series ("name{labels}") to value.
type scrape map[string]float64

func fetchMetrics(cl *httpx.Client, addr string) (scrape, error) {
	resp, err := cl.GetTimeout(addr, "/~dcws/metrics", nil, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("metrics %s: status %d", addr, resp.Status)
	}
	return parseExposition(resp.Body), nil
}

// parseExposition reads the Prometheus text format dcwsd writes.
func parseExposition(body []byte) scrape {
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the named family whose labels contain label
// ("" matches all).
func (s scrape) sum(name, label string) float64 {
	var t float64
	for k, v := range s {
		fam, labels, _ := strings.Cut(k, "{")
		if fam == name && strings.Contains(labels, label) {
			t += v
		}
	}
	return t
}

// clusterScrape is one scrape of every server.
type clusterScrape struct{ byNode []scrape }

func (c *cluster) scrapeAll() (*clusterScrape, error) {
	cl := httpx.NewClient(memnet.TCP{})
	cs := &clusterScrape{}
	for _, n := range c.nodes {
		s, err := fetchMetrics(cl, n.addr)
		if err != nil {
			return nil, err
		}
		cs.byNode = append(cs.byNode, s)
	}
	return cs, nil
}

// delta is the cluster-wide change of a counter family between scrapes.
func delta(a, b *clusterScrape, name, label string) float64 {
	var d float64
	for i := range b.byNode {
		d += b.byNode[i].sum(name, label) - a.byNode[i].sum(name, label)
	}
	return d
}

// gaugeMax is the largest value of a gauge family across servers.
func gaugeMax(s *clusterScrape, name string) float64 {
	var m float64
	for _, n := range s.byNode {
		if v := n.sum(name, ""); v > m {
			m = v
		}
	}
	return m
}

// collectProfiles takes one CPU profile of d from every server at once
// through its -pprof listener and returns the files written.
func (c *cluster) collectProfiles(dir string, d time.Duration) ([]string, error) {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	files := make([]string, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		files[i] = filepath.Join(dir, fmt.Sprintf("cpu-%s%d.pb.gz", n.role, i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fetchProfile(n.pprof, secs, files[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func fetchProfile(addr string, secs int, file string) error {
	cl := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	resp, err := cl.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs))
	if err != nil {
		return fmt.Errorf("cpu profile %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("cpu profile %s: %s", addr, resp.Status)
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pprofTraces runs `go tool pprof -traces` on a profile.
func pprofTraces(file string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", file).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -traces %s: %w", file, err)
	}
	return string(out), nil
}

// modules are the dcws/internal packages a sample can be charged to; a
// sample whose innermost dcws/internal frame is in another package counts
// as runtime.other.
var modules = []string{"clock", "dcws", "glt", "graph", "httpx", "hypertext", "memnet", "metrics", "naming", "policy", "resilience", "store", "telemetry", "wal"}

// gcFrames mark a sample with no dcws/internal frame as garbage
// collection work.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// cpuShares is CPU time by layer: each module, "runtime.gc" and
// "runtime.other".
type cpuShares map[string]time.Duration

// attribute charges each sample of `go tool pprof -traces` output to the
// innermost dcws/internal/<mod> frame on its stack, or to the runtime. The
// output is a header, then one block per stack after a separator line: the
// first line holds the sample value and the innermost frame, each further
// line one caller.
func attribute(traces string, into cpuShares) error {
	var (
		val   time.Duration
		stack []string
		first bool
	)
	flush := func() {
		if len(stack) > 0 {
			into[layerOf(stack)] += val
		}
		stack, val = stack[:0], 0
	}
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			first = true
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || (!first && len(stack) == 0) {
			continue // header lines before the first block
		}
		if first {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			val, f, first = d, f[1:], false
		}
		stack = append(stack, f[0])
	}
	flush()
	return nil
}

// layerOf names the layer a stack (innermost frame first) is charged to.
func layerOf(stack []string) string {
	const prefix = "dcws/internal/"
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			if slices.Contains(modules, mod) {
				return mod
			}
			return "runtime.other"
		}
	}
	for _, fn := range stack {
		if slices.Contains(gcFrames, fn) {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// serverSpans fetches the spans one server retained for a trace ID.
func serverSpans(cl *httpx.Client, addr, id string) ([]telemetry.Span, error) {
	resp, err := cl.GetTimeout(addr, "/~dcws/trace?id="+id, nil, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("trace %s: status %d", addr, resp.Status)
	}
	var spans []telemetry.Span
	if err := json.Unmarshal(resp.Body, &spans); err != nil {
		return nil, err
	}
	return spans, nil
}

// joinResult is what the span join found.
type joinResult struct {
	serverShare []float64       // server serve-span duration / client exchange time
	fetchHome   []time.Duration // co-op fetch-home RPC spans
	asked       int
	found       int
}

// joinSpans answers join requests until the channel closes: each sampled
// exchange's server spans are read back at once, before the server's span
// ring overwrites them.
func joinSpans(reqs <-chan joinReq, out *joinResult) {
	cl := httpx.NewPooledClient(memnet.TCP{}, httpx.PoolConfig{MaxIdlePerHost: 1})
	defer cl.CloseIdle()
	for r := range reqs {
		out.asked++
		spans, err := serverSpans(cl, r.addr, r.id)
		if err != nil {
			continue
		}
		for _, sp := range spans {
			switch {
			case strings.HasPrefix(sp.Op, "serve-") && sp.Server == r.addr && sp.ParentID == "":
				if r.client > 0 {
					out.serverShare = append(out.serverShare, float64(sp.Duration)/float64(r.client))
					out.found++
				}
			case sp.Op == "fetch-home":
				out.fetchHome = append(out.fetchHome, sp.Duration)
			}
		}
	}
}
