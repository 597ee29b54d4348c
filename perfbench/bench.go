package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/store"
)

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	measure time.Duration
	traced  bool
	bin     string
	dir     string
	slots   int

	mu  sync.Mutex
	c   *cluster
	ref *cluster // the reference server (see reference.go)
	exp *expected
	// placed maps each document migrated at set-up to its co-op.
	placed map[string]string
}

func (b *bench) stopCluster() {
	b.mu.Lock()
	c, ref := b.c, b.ref
	b.c, b.ref = nil, nil
	b.mu.Unlock()
	c.stop()
	ref.stop()
}

// refPrefix names the reference's phases. A reference phase runs the
// walk and arrival schedule of the DCWS phase of the same name without it.
const refPrefix = "ref/"

// refWarmup is the reference's untimed closed-loop warm-up.
const refWarmup = time.Second

// setup generates fresh roots (untimed), then times the launch of every
// dcwsd until all answer and the seeded placement is acked.
func (b *bench) setup(k int, site *dataset.Site) (time.Duration, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	// dcwsd writes regenerated pages back into -root, so a root that has
	// served co-ops is never reused: each set-up of a multi-node workload
	// gets a freshly generated site. A lone home never regenerates, so its
	// set-ups share the run's one fresh root.
	siteRoot := filepath.Join(b.dir, "site")
	if b.w.coops > 0 {
		siteRoot = filepath.Join(dir, "site")
	}
	if k == 0 || b.w.coops > 0 {
		st, err := store.NewDir(siteRoot)
		if err != nil {
			return 0, err
		}
		if err := site.Materialize(st, 1); err != nil {
			return 0, err
		}
	}
	if k == 0 {
		exp, err := loadExpected(site, siteRoot)
		if err != nil {
			return 0, err
		}
		b.exp = exp
	}

	t0 := time.Now()
	c, err := launch(b.bin, dir, siteRoot, b.w.coops, b.w.wal, b.traced)
	b.mu.Lock()
	b.c = c
	b.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := c.waitReady(20 * time.Second); err != nil {
		return 0, err
	}
	if err := b.place(site); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// place migrates the seeded placement through /~dcws/migrate: every hot
// image of the site plus w.placed seed-chosen message pages, each to a
// seed-chosen co-op.
func (b *bench) place(site *dataset.Site) error {
	b.placed = make(map[string]string)
	if b.w.coops == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(mix(b.seed, "placement", 0)))
	var docs, msgs []string
	for _, d := range site.Docs {
		switch {
		case strings.HasPrefix(d.Name, "/buttons/"):
			docs = append(docs, d.Name)
		case strings.HasPrefix(d.Name, "/msg/"):
			msgs = append(msgs, d.Name)
		}
	}
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	docs = append(docs, msgs[:b.w.placed]...)
	cl := httpx.NewPooledClient(memnet.TCP{}, httpx.PoolConfig{MaxIdlePerHost: 1})
	defer cl.CloseIdle()
	for _, doc := range docs {
		coop := b.c.nodes[1+rng.Intn(b.w.coops)].addr
		req := httpx.NewRequest("POST", "/~dcws/migrate")
		req.Header.Set("X-DCWS-Doc", doc)
		req.Header.Set("X-DCWS-Fetch", coop)
		resp, err := cl.Do(b.c.home.addr, req)
		if err != nil {
			return fmt.Errorf("migrate %s: %w", doc, err)
		}
		if resp.Status != 200 {
			return fmt.Errorf("migrate %s: status %d: %s", doc, resp.Status, resp.Body)
		}
		b.placed[doc] = coop
	}
	return nil
}

// phase is one named stretch of a run with the stats of all its slots.
type phase struct {
	name    string
	elapsed time.Duration
	st      phaseStats
}

// runSlots runs fn on every slot concurrently and merges their stats.
func (b *bench) runSlots(slots []*slot, name string, fn func(s *slot, st *phaseStats)) *phase {
	stats := make([]phaseStats, len(slots))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range slots {
		s.reseed(b.seed, strings.TrimPrefix(name, refPrefix))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s, &stats[i])
		}()
	}
	wg.Wait()
	p := &phase{name: name, elapsed: time.Since(start)}
	for i := range stats {
		p.st.merge(&stats[i])
	}
	return p
}

// crawl fetches every document of the site once through the home,
// following redirects. Each migration at set-up marks every page that
// links the moved document for regeneration on its next request, and the
// walk's warm-up may leave some of them to the timed rounds; the crawl has
// them all regenerated first (see NOTES.md).
func (b *bench) crawl(s *slot, site *dataset.Site) *phase {
	p := &phase{name: "crawl"}
	start := time.Now()
	for _, d := range site.Docs {
		s.fetch("http://"+b.c.home.addr+d.Name, &p.st, nil)
	}
	p.elapsed = time.Since(start)
	return p
}

func (b *bench) closed(slots []*slot, name string, d time.Duration) *phase {
	until := time.Now().Add(d)
	return b.runSlots(slots, name, func(s *slot, st *phaseStats) { s.runClosed(until, st) })
}

func (b *bench) open(slots []*slot, name string, rate float64, d time.Duration) *phase {
	start := time.Now().Add(5 * time.Millisecond)
	per := rate / float64(len(slots))
	return b.runSlots(slots, name, func(s *slot, st *phaseStats) {
		s.runOpen(start, schedule(b.seed, strings.TrimPrefix(name, refPrefix), s.id, per, d), st)
	})
}

// sortedDurations returns a sorted copy.
func sortedDurations(in []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of sorted samples (0 if none).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
