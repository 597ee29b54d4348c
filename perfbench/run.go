package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/store"
)

// Every round runs a closed and a low-rate phase on the DCWS servers, each
// followed by the same phase on the reference server, so each phase gets a
// quarter of a round. Short rounds let a burst of other load on the host
// fall on both sides of a comparison alike.
const rounds = 40

// round is one closed and one low-rate phase on the DCWS servers and the
// same two on the reference, with each side's server CPU time during its
// closed phase.
type round struct {
	closed, low       *phase
	refClosed, refLow *phase
	cpu, refCPU       time.Duration
}

// overRounds is the median over rounds of f.
func overRounds(rs []round, f func(round) float64) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// pooled merges one phase kind's stats over rounds.
func pooled(rs []round, pick func(round) *phase) *phaseStats {
	var st phaseStats
	for _, r := range rs {
		st.merge(&pick(r).st)
	}
	return &st
}

// viewRate is a phase's page views per second. Views, not fetches, are
// the unit of work both sides share: DCWS and the reference run the same
// walk, but rewritten links can name one image by several URLs, which the
// per-sequence cache then fetches once per URL.
func viewRate(p *phase) float64 { return float64(p.st.views) / p.elapsed.Seconds() }

// run sets the cluster up, warms it, runs the measured phases and computes
// the metrics of the run's mode.
func (b *bench) run() (*result, error) {
	site := dataset.ByName(b.w.dataset)()
	res := &result{Workload: b.w.name, Seed: b.seed, Traced: b.traced, Seconds: b.measure.Seconds()}
	for k := 0; k < setups; k++ {
		d, err := b.setup(k, site)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		res.SetupS = append(res.SetupS, d.Seconds())
		if k < setups-1 {
			b.stopCluster()
			os.RemoveAll(filepath.Join(b.dir, fmt.Sprintf("setup%d", k)))
		}
	}
	c := b.c
	b.exp.home = c.home.addr
	// The reference serves a pristine copy of the site: the DCWS home
	// writes regenerated pages back into its own root.
	refRoot := filepath.Join(b.dir, "reference")
	st, err := store.NewDir(refRoot)
	if err != nil {
		return nil, err
	}
	if err := site.Materialize(st, 1); err != nil {
		return nil, err
	}
	ref, err := startReference(b.dir, refRoot)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.ref = ref
	b.mu.Unlock()
	// The reference's pages are never updated, so its checker has a
	// version book of its own that stays empty.
	refExp := *b.exp
	refExp.home = ref.home.addr
	refExp.versions = newVersionBook(lease)

	var join chan joinReq
	var joined joinResult
	joinDone := make(chan struct{})
	if b.traced {
		// Sized so a short stall of the collector drops samples rather
		// than blocking a slot.
		join = make(chan joinReq, 256)
		go func() {
			joinSpans(join, &joined)
			close(joinDone)
		}()
	} else {
		close(joinDone)
	}
	entry := "http://" + c.home.addr + "/index.html"
	slots := make([]*slot, b.slots)
	refSlots := make([]*slot, b.slots)
	for i := range slots {
		slots[i] = newSlot(i, entry, b.exp, b.traced, join)
		defer slots[i].close()
		refSlots[i] = newSlot(i, "http://"+ref.home.addr+"/index.html", &refExp, false, nil)
		defer refSlots[i].close()
	}

	phases := []*phase{b.crawl(slots[0], site), b.closed(slots, "warmup", b.w.warmup), b.closed(refSlots, refPrefix+"warmup", refWarmup)}
	res.Probes = append(res.Probes, hostProbe(b.dir))

	d := b.measure / (4 * rounds)

	up := newUpdater(b)
	defer up.close()

	before, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	procBefore := c.procTotals()
	var profiles []string
	profErr := make(chan error, 1)
	if b.traced {
		go func() {
			var err error
			profiles, err = c.collectProfiles(b.dir, b.measure)
			profErr <- err
		}()
	}

	// The measured time is cut into rounds, each a closed and a low-rate
	// phase on DCWS and on the reference, then a share of the updates.
	// The gated ratios are medians over rounds: a burst of interference on
	// the shared host spoils one round, not the run.
	var rs []round
	for r := 0; r < rounds; r++ {
		var rd round
		// Traced runs record client spans in odd rounds only, so the
		// even rounds give the untraced rate the overhead is taken against.
		for _, s := range slots {
			s.traced = b.traced && r%2 == 1
		}
		p0 := c.procTotals()
		rd.closed = b.closed(slots, fmt.Sprintf("closed/%d", r), d)
		p1, r1 := c.procTotals(), ref.procTotals()
		rd.refClosed = b.closed(refSlots, fmt.Sprintf(refPrefix+"closed/%d", r), d)
		rd.cpu, rd.refCPU = p1.cpu-p0.cpu, ref.procTotals().cpu-r1.cpu
		rd.low = b.open(slots, fmt.Sprintf("low/%d", r), b.w.lowRate, d)
		rd.refLow = b.open(refSlots, fmt.Sprintf(refPrefix+"low/%d", r), b.w.lowRate, d)
		for i := 0; i < updates/rounds; i++ {
			up.one()
		}
		res.Probes = append(res.Probes, hostProbe(b.dir))
		rs = append(rs, rd)
		phases = append(phases, rd.closed, rd.refClosed, rd.low, rd.refLow)
	}
	if b.traced {
		if err := <-profErr; err != nil {
			return nil, err
		}
	}
	if join != nil {
		close(join)
	}
	<-joinDone

	after, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	procAfter := c.procTotals()

	// Operation accounting over every phase, the updates included.
	var all phaseStats
	for _, p := range phases {
		all.merge(&p.st)
		res.Phases = append(res.Phases, report(p))
	}
	for i, r := range rs {
		// phases[0:3] are the crawl and the warm-ups, then four phases
		// per round.
		res.Phases[3+4*i].ServerCPUms = ms(r.cpu)
		res.Phases[4+4*i].ServerCPUms = ms(r.refCPU)
	}
	upPhase := &phase{name: "updates", st: up.st}
	upPhase.st.attempted += int64(len(up.done)+len(up.refAcks)) + up.st.failed[fTransport] + up.st.failed[fStatus]
	res.Phases = append(res.Phases, report(upPhase))
	all.merge(&upPhase.st)
	ack, stale := up.times()
	res.UpdateUs, res.StaleUs, res.RefUpdateUs = toUs(ack), toUs(stale), toUs(up.refAcks)
	var cpuMs, syncMs []float64
	for _, p := range res.Probes {
		cpuMs, syncMs = append(cpuMs, p.CPUms), append(syncMs, p.SyncMs)
	}
	if lo, hi := minMax(cpuMs); hi > slowCPU*lo {
		res.Flags = append(res.Flags, fmt.Sprintf("host CPU speed varied during the run: probe %.2f-%.2f ms", lo, hi))
	}
	if lo, hi := minMax(syncMs); lo < 0 || hi > slowSync*lo {
		res.Flags = append(res.Flags, fmt.Sprintf("host fsync time varied during the run: probe %.2f-%.2f ms", lo, hi))
	}
	for _, p := range res.Phases {
		if p.Growing {
			res.Flags = append(res.Flags, fmt.Sprintf("backlog grows through phase %s (max %d)", p.Name, p.BacklogMx))
		}
	}
	res.Line.Attempted = all.attempted
	res.Line.Failed = all.failures()
	res.Line.Correct = all.failed[fStatus]+all.failed[fRedirect]+all.failed[fMismatch]+all.failed[fStale] == 0

	vals := make(map[string]float64)
	if b.traced {
		shares := make(cpuShares)
		for _, f := range profiles {
			out, err := pprofTraces(f)
			if err != nil {
				return nil, err
			}
			if err := attribute(out, shares); err != nil {
				return nil, err
			}
		}
		layerMetrics(vals, shares, before, after, procBefore, procAfter, rs, &joined, up)
	} else {
		res.Raw = make(map[string]float64)
		endToEndMetrics(vals, res.Raw, res.SetupS, rs, up, procAfter)
	}
	res.Line.Metrics, err = finish(b.defs(), vals)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (b *bench) defs() []metricDef {
	if b.traced {
		return perLayer
	}
	return endToEnd
}

func pct(ds []time.Duration, q float64) time.Duration { return quantile(sortedDurations(ds), q) }

// endToEndMetrics computes the gated metrics into vals and the figures
// they are derived from, which are printed but not gated, into raw.
func endToEndMetrics(vals, raw map[string]float64, setupS []float64, rs []round, up *updater, end procStat) {
	vals["setup_s"] = median(setupS)
	// The rate ratio pairs each DCWS closed phase with the reference phase
	// that ran right after it on the same walk and takes the median over
	// rounds; the latency ratio compares the medians over every round.
	vals["view_rate_vs_ref"] = overRounds(rs, func(r round) float64 { return viewRate(r.closed) / viewRate(r.refClosed) })
	low := pooled(rs, func(r round) *phase { return r.low }).viewLat
	refLow := pooled(rs, func(r round) *phase { return r.refLow }).viewLat
	vals["page_p50_vs_ref"] = ms(pct(low, 0.5)) / ms(pct(refLow, 0.5))
	closed := pooled(rs, func(r round) *phase { return r.closed })
	refClosed := pooled(rs, func(r round) *phase { return r.refClosed })
	var cpu, refCPU time.Duration
	var secs, refSecs float64
	for _, r := range rs {
		cpu += r.cpu
		refCPU += r.refCPU
		secs += r.closed.elapsed.Seconds()
		refSecs += r.refClosed.elapsed.Seconds()
	}
	perView := ms(cpu) / float64(closed.views)
	refPerView := ms(refCPU) / float64(refClosed.views)
	vals["server_cpu_vs_ref"] = overRounds(rs, func(r round) float64 {
		return float64(r.cpu) / float64(r.closed.st.views) / (float64(r.refCPU) / float64(r.refClosed.st.views))
	})
	vals["server_rss_MB"] = float64(end.rssPeakB) / 1e6

	raw["throughput_rps"] = float64(closed.fetches) / secs
	raw["goodput_MBps"] = float64(closed.bytes) / secs / 1e6
	raw["views_per_s"] = float64(closed.views) / secs
	raw["ref_views_per_s"] = float64(refClosed.views) / refSecs
	raw["fetches_per_view"] = float64(closed.fetches) / float64(closed.views)
	raw["ref_fetches_per_view"] = float64(refClosed.fetches) / float64(refClosed.views)
	raw["page_low_p50_ms"] = ms(pct(low, 0.5))
	raw["ref_page_low_p50_ms"] = ms(pct(refLow, 0.5))
	raw["page_low_p99_ms"] = ms(pct(low, 0.99))
	raw["server_cpu_ms_per_kreq"] = 1000 * ms(cpu) / float64(closed.fetches)
	raw["server_cpu_ms_per_view"] = perView
	raw["ref_cpu_ms_per_view"] = refPerView
	ack, stale := up.times()
	raw["update_ack_vs_ref"] = up.ackVsRef()
	raw["ref_update_p50_ms"] = ms(pct(up.refAcks, 0.5))
	raw["update_p50_ms"] = ms(pct(ack, 0.50))
	raw["update_p99_ms"] = ms(pct(ack, 0.99))
	raw["stale_p50_ms"] = ms(pct(stale, 0.50))
	raw["stale_p99_ms"] = ms(pct(stale, 0.99))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(vals map[string]float64, shares cpuShares, a, b *clusterScrape, p0, p1 procStat,
	rs []round, j *joinResult, up *updater) {
	acked := len(up.done)
	var total time.Duration
	for _, d := range shares {
		total += d
	}
	share := func(k string) float64 { return ratio(float64(shares[k]), float64(total)) }
	for _, m := range modules {
		vals[m+".cpu_share"] = share(m)
	}
	vals["runtime.gc_cpu_share"] = share("runtime.gc")
	vals["runtime.other_cpu_share"] = share("runtime.other")

	d := func(name, label string) float64 { return delta(a, b, name, label) }
	reqs := d("dcws_requests_total", "")
	vals["proc.ctx_switches_per_req"] = ratio(float64(p1.ctxSw-p0.ctxSw), reqs)
	hits, misses := d("dcws_render_cache_hits_total", ""), d("dcws_render_cache_misses_total", "")
	vals["dcws.render_lookups"] = hits + misses
	vals["dcws.render_hit_ratio"] = ratio(hits, hits+misses)
	vals["httpx.request_us"] = 1e6 * ratio(d("dcws_httpx_request_seconds_sum", ""), d("dcws_httpx_request_seconds_count", ""))
	resps := d("dcws_httpx_responses_total", "")
	vals["httpx.head_bytes_per_resp"] = ratio(d("dcws_httpx_bytes_out_total", "")-d("dcws_response_body_bytes_total", ""), resps)
	vals["httpx.conns_queued"] = d("dcws_httpx_connections_queued_total", "")
	vals["httpx.conns_shed"] = d("dcws_httpx_connections_shed_total", "")
	for _, kind := range []string{"home", "coop", "fetch"} {
		label := `kind="` + kind + `"`
		vals["dcws.serve_"+kind+"_us"] = 1e6 * ratio(d("dcws_serve_seconds_sum", label), d("dcws_serve_seconds_count", label))
	}
	vals["dcws.regen_count"] = d("dcws_regenerate_seconds_count", "")
	vals["dcws.regen_us"] = 1e6 * ratio(d("dcws_regenerate_seconds_sum", ""), vals["dcws.regen_count"])
	vals["dcws.home_fetches"] = d("dcws_fetches_total", "")
	var fetches float64
	for _, r := range rs {
		fetches += float64(r.closed.st.fetches + r.low.st.fetches)
	}
	vals["dcws.redirects_per_kfetch"] = 1000 * ratio(d("dcws_redirects_total", ""), fetches)
	vals["dcws.migrations"] = d("dcws_migrations_total", "")
	vals["dcws.revokes"] = d("dcws_revokes_total", "")
	vals["dcws.chain_pushes"] = d("dcws_replicate_pushes_total", "")
	vals["glt.header_bytes"] = gaugeMax(b, "dcws_glt_header_bytes")
	vals["glt.emits"] = d("dcws_glt_emits_total", "")
	reuses, dials := d("dcws_pool_reuses_total", ""), d("dcws_pool_dials_total", "")
	vals["pool.reuse_ratio"] = ratio(reuses, reuses+dials)
	vals["resilience.retries"] = d("dcws_resilience_retries_total", "")
	vals["hedge.wasted_ratio"] = ratio(d("dcws_hedge_wasted_total", ""), d("dcws_hedge_launched_total", ""))
	vals["wal.appends_per_update"] = ratio(d("dcws_wal_appends_total", ""), float64(acked))
	vals["wal.bytes_per_update"] = ratio(d("dcws_wal_appended_bytes_total", ""), float64(acked))
	vals["wal.syncs"] = d("dcws_wal_syncs_total", "")
	vals["inval.pushes"] = d("dcws_invalidate_pushes_total", "")
	vals["inval.docs_per_batch"] = ratio(d("dcws_invalidate_batch_docs_total", ""), d("dcws_invalidate_batches_total", ""))
	vals["inval.gaps"] = d("dcws_invalidate_gaps_total", "")
	vals["inval.reconnects"] = d("dcws_invalidate_reconnects_total", "")
	vals["telemetry.spans_per_req"] = ratio(d("dcws_trace_spans_total", ""), reqs)

	st := pooled(rs, func(r round) *phase { return r.closed })
	vals["client.hops_per_fetch"] = ratio(float64(st.hops), float64(st.fetches))
	vals["client.dials_per_fetch"] = ratio(float64(st.dials), float64(st.fetches))
	var connect, ttfb, body []time.Duration
	for _, sp := range st.spans {
		if sp.connect > 0 {
			connect = append(connect, sp.connect)
		}
		ttfb = append(ttfb, sp.ttfb)
		body = append(body, sp.body)
	}
	vals["client.connect_us_p50"] = us(pct(connect, 0.5))
	vals["client.ttfb_us_p50"] = us(pct(ttfb, 0.5))
	vals["client.ttfb_us_p99"] = us(pct(ttfb, 0.99))
	vals["client.body_us_p50"] = us(pct(body, 0.5))
	vals["trace.server_share_p50"] = median(j.serverShare)
	vals["trace.fetch_home_us_p50"] = us(pct(j.fetchHome, 0.5))
	var tracedRate, plainRate []float64
	for i, r := range rs {
		rate := float64(r.closed.st.fetches) / r.closed.elapsed.Seconds()
		if i%2 == 1 {
			tracedRate = append(tracedRate, rate)
		} else {
			plainRate = append(plainRate, rate)
		}
	}
	vals["trace.overhead_frac"] = 1 - ratio(median(tracedRate), median(plainRate))
	low := pooled(rs, func(r round) *phase { return r.low })
	vals["gen.low_late_p99_ms"] = ms(pct(low.late, 0.99))
	vals["gen.low_backlog_max"] = float64(maxInt(low.backlog))
	ack, stale := up.times()
	vals["update.ack_ms_p50"] = ms(pct(ack, 0.5))
	vals["update.ack_vs_ref"] = up.ackVsRef()
	vals["update.stale_ms_p50"] = ms(pct(stale, 0.5))
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
