package main

import (
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dcws/internal/graph"
	"dcws/internal/httpx"
	"dcws/internal/hypertext"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/telemetry"
)

const (
	maxSteps = 25 // Algorithm 2: random(1..25) steps per sequence
	maxHops  = 5  // redirects one fetch may follow before it fails
	// failedLatency stands in for the latency of a failed page view: a
	// failure misses every latency limit.
	failedLatency = time.Hour
	// joinEvery samples one fetch in this many for the server-span join
	// of a traced run.
	joinEvery = 64
)

// phaseStats is what one slot observed in one phase.
type phaseStats struct {
	attempted int64 // fetches started, redirects included
	failed    [nClasses]int64
	fetches   int64 // verified 200 bodies
	bytes     int64
	hops      int64 // redirects followed
	dials     int64
	views     int64
	viewLat   []time.Duration // open loop: completion minus due time
	late      []time.Duration // open loop: start minus due time
	backlog   []int           // open loop: views due but not started, at each start
	spans     []clientSpan    // traced runs only
}

func (p *phaseStats) fail(c failClass) { p.failed[c]++ }

func (p *phaseStats) failures() int64 {
	var n int64
	for _, f := range p.failed {
		n += f
	}
	return n
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	for i := range p.failed {
		p.failed[i] += o.failed[i]
	}
	p.fetches += o.fetches
	p.bytes += o.bytes
	p.hops += o.hops
	p.dials += o.dials
	p.views += o.views
	p.viewLat = append(p.viewLat, o.viewLat...)
	p.late = append(p.late, o.late...)
	p.backlog = append(p.backlog, o.backlog...)
	p.spans = append(p.spans, o.spans...)
}

// clientSpan is the client's view of one request/response exchange.
type clientSpan struct {
	connect time.Duration // dial, when this exchange dialed
	ttfb    time.Duration // request written to first response byte
	body    time.Duration // first byte to parsed response
}

// joinReq asks the span collector for the server spans of one sampled
// exchange.
type joinReq struct {
	id     string
	addr   string
	client time.Duration
}

// page is what the per-sequence cache keeps of a fetched page.
type page struct {
	anchors []string // absolute URLs of anchors and frames
	images  []string // absolute URLs of embedded images
}

// slot is one request slot: one keep-alive connection per server, one page
// view at a time, its own seeded walk.
type slot struct {
	id    int
	entry string // absolute entry-point URL
	exp   *expected
	cl    *httpx.Client
	rng   *rand.Rand
	// Per-sequence state (Algorithm 2).
	cache     map[string]*page // fetched URLs; nil page for images
	next      string
	stepsLeft int
	// lastVersion is the version stamp of the last verified HTML body.
	lastVersion int

	traced    bool
	dialTime  time.Duration
	firstByte time.Time
	nTrace    int
	join      chan<- joinReq
}

var traceSeq atomic.Int64

// newSlot makes a slot; with timed set its connections stamp first bytes,
// and setting s.traced then records a client span per exchange.
func newSlot(id int, entry string, exp *expected, timed bool, join chan<- joinReq) *slot {
	s := &slot{id: id, entry: entry, exp: exp, join: join}
	dial := func(addr string) (net.Conn, error) {
		t0 := time.Now()
		c, err := memnet.TCP{}.Dial(addr)
		s.dialTime = time.Since(t0)
		if err != nil || !timed {
			return c, err
		}
		return &timedConn{Conn: c, s: s}, nil
	}
	s.cl = httpx.NewPooledClient(httpx.DialerFunc(dial), httpx.PoolConfig{MaxIdlePerHost: 1})
	s.cl.Timeout = 10 * time.Second
	return s
}

// timedConn stamps the first response byte of each exchange.
type timedConn struct {
	net.Conn
	s *slot
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.s.firstByte.IsZero() {
		c.s.firstByte = time.Now()
	}
	return n, err
}

func (s *slot) close() { s.cl.CloseIdle() }

// reseed restarts the walk from a seed-derived stream and a fresh
// sequence, so each phase's walk depends only on the seed.
func (s *slot) reseed(seed int64, phase string) {
	s.rng = rand.New(rand.NewSource(mix(seed, phase, s.id)))
	s.stepsLeft = 0
}

// mix derives a sub-seed for one (phase, slot) stream.
func mix(seed int64, phase string, id int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id+1)*0xbf58476d1ce4e5b9
	for i := 0; i < len(phase); i++ {
		h = (h ^ uint64(phase[i])) * 0x100000001b3
	}
	return int64(h >> 1)
}

// view performs one page view: start a sequence when the last one ended,
// fetch the current page unless cached, fetch its uncached images, then
// choose the next link. It reports whether every fetch succeeded.
func (s *slot) view(st *phaseStats) bool {
	if s.stepsLeft == 0 {
		s.cache = make(map[string]*page)
		s.next = s.entry
		s.stepsLeft = 1 + s.rng.Intn(maxSteps)
	}
	s.stepsLeft--
	st.views++
	pg, ok := s.cache[s.next]
	if !ok {
		pg, ok = s.fetchPage(s.next, st)
		if !ok {
			s.stepsLeft = 0
			return false
		}
	}
	if pg == nil { // a non-HTML link target (a raster) ends the walk
		s.stepsLeft = 0
		return true
	}
	for _, img := range pg.images {
		if _, hit := s.cache[img]; hit {
			continue
		}
		if _, ok := s.fetch(img, st, nil); !ok {
			s.stepsLeft = 0
			return false
		}
		s.cache[img] = nil
	}
	if len(pg.anchors) == 0 {
		s.stepsLeft = 0
		return true
	}
	s.next = pg.anchors[s.rng.Intn(len(pg.anchors))]
	return true
}

// fetchPage fetches a link target; HTML is parsed into the cache.
func (s *slot) fetchPage(url string, st *phaseStats) (*page, bool) {
	var pg *page
	final, ok := s.fetch(url, st, &pg)
	if !ok {
		return nil, false
	}
	s.cache[url] = pg
	s.cache[final] = pg
	return pg, true
}

// fetch retrieves one URL, following up to maxHops redirects, and verifies
// the body. When into is non-nil and the body is HTML, the parsed links
// are stored there. It returns the final URL.
func (s *slot) fetch(url string, st *phaseStats, into **page) (string, bool) {
	st.attempted++
	cur := url
	for hop := 0; ; hop++ {
		addr, path, err := naming.SplitURL(cur)
		if err != nil || addr == "" {
			st.fail(fStatus)
			return "", false
		}
		var hdr httpx.Header
		var traceID string
		if s.traced {
			s.nTrace++
			if s.nTrace%joinEvery == 0 {
				traceID = "pb-" + strconv.FormatInt(traceSeq.Add(1), 10)
				hdr = httpx.Header{telemetry.TraceHeader: {traceID}}
			}
		}
		dialsBefore := s.cl.Pool.Dials()
		s.firstByte = time.Time{}
		sent := time.Now()
		resp, err := s.cl.Get(addr, path, hdr)
		done := time.Now()
		dialed := s.cl.Pool.Dials() - dialsBefore
		st.dials += dialed
		if err != nil {
			st.fail(fTransport)
			return "", false
		}
		if s.traced {
			sp := clientSpan{body: done.Sub(s.firstByte)}
			start := sent
			if dialed > 0 {
				sp.connect = s.dialTime
				start = start.Add(s.dialTime)
			}
			sp.ttfb = s.firstByte.Sub(start)
			st.spans = append(st.spans, sp)
			if traceID != "" {
				select {
				case s.join <- joinReq{id: traceID, addr: addr, client: done.Sub(sent)}:
				default:
				}
			}
		}
		switch resp.Status {
		case 200:
			doc := docPath(path)
			var parsed *hypertext.Document
			if graph.IsHTML(doc) {
				parsed = hypertext.Parse(string(resp.Body))
				if into != nil {
					*into = links(cur, parsed)
				}
			}
			if ok, class := s.exp.check(doc, resp.Body, parsed, sent); !ok {
				st.fail(class)
				return "", false
			}
			if parsed != nil {
				s.lastVersion = parseVersion(resp.Body)
			}
			st.fetches++
			st.bytes += int64(len(resp.Body))
			return cur, true
		case 301, 302:
			loc := resp.Header.Get("Location")
			if loc == "" {
				st.fail(fStatus)
				return "", false
			}
			if hop >= maxHops {
				st.fail(fRedirect)
				return "", false
			}
			st.hops++
			cur = absolutize(addr, loc)
		default:
			st.fail(fStatus)
			return "", false
		}
	}
}

// links extracts a parsed page's navigable anchors and images as absolute
// URLs resolved against the page's own URL.
func links(base string, d *hypertext.Document) *page {
	pg := &page{}
	for _, raw := range d.LinkURLs(hypertext.LinkAnchor, hypertext.LinkFrame) {
		if u := resolve(base, raw); u != "" {
			pg.anchors = append(pg.anchors, u)
		}
	}
	for _, raw := range d.LinkURLs(hypertext.LinkImage) {
		if u := resolve(base, raw); u != "" {
			pg.images = append(pg.images, u)
		}
	}
	return pg
}

// resolve turns a link found in the page at base into an absolute URL, or
// "" for links a browser of the site would not follow.
func resolve(base, raw string) string {
	if strings.HasPrefix(raw, "http://") {
		return raw
	}
	if !strings.HasPrefix(raw, "/") {
		return ""
	}
	addr, _, err := naming.SplitURL(base)
	if err != nil || addr == "" {
		return ""
	}
	return "http://" + addr + raw
}

// absolutize resolves a Location header against the responding server.
func absolutize(addr, loc string) string {
	if strings.HasPrefix(loc, "http://") {
		return loc
	}
	if !strings.HasPrefix(loc, "/") {
		loc = "/" + loc
	}
	return "http://" + addr + loc
}

// runClosed runs page views back to back until the deadline.
func (s *slot) runClosed(until time.Time, st *phaseStats) {
	for time.Now().Before(until) {
		s.view(st)
	}
}

// runOpen runs page views at their due times (offsets from start). A view
// that cannot start on time waits for the slot; its latency is measured
// from when it was due, so a stall is charged to every view behind it.
func (s *slot) runOpen(start time.Time, due []time.Duration, st *phaseStats) {
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		st.late = append(st.late, now.Sub(at))
		// Views already due and not yet started, this one excluded.
		since := now.Sub(start)
		k := sort.Search(len(due), func(j int) bool { return due[j] > since })
		st.backlog = append(st.backlog, k-i-1)
		if s.view(st) {
			st.viewLat = append(st.viewLat, time.Since(at))
		} else {
			st.viewLat = append(st.viewLat, failedLatency)
		}
	}
}

// schedule draws Poisson arrival offsets at rate per second over dur for
// one slot; the same seed, phase and slot give the same schedule.
func schedule(seed int64, phase string, id int, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(mix(seed, "arrivals/"+phase, id)))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
