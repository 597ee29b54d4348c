package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/memnet"
)

// updater sends version-stamped, link-preserving page updates to the home
// through POST /~dcws/update and times how long each takes to reach the
// server the page is served from.
type updater struct {
	b       *bench
	cl      *httpx.Client
	poll    *slot // fetches and verifies the page after each ack
	targets []string
	n       int // updates sent
	version map[string]int
	st      phaseStats // the poll fetches, plus failed updates as status failures
	done    []updateSample
	refAcks []time.Duration // ack times of the same updates on the reference
}

// updateSample is one acked update.
type updateSample struct {
	ack   time.Duration // POST to ack
	ref   time.Duration // the same on the reference; 0 if that failed
	stale time.Duration // ack until the new version was served; -1 if the poll failed
}

// newUpdater picks the seeded target set: up to 4 pages migrated at
// set-up, the workload's hub page, and 4 leaf pages left at home.
func newUpdater(b *bench) *updater {
	u := &updater{
		b:       b,
		cl:      httpx.NewPooledClient(memnet.TCP{}, httpx.PoolConfig{MaxIdlePerHost: 1}),
		poll:    newSlot(-1, "", b.exp, false, nil),
		version: make(map[string]int),
	}
	rng := rand.New(rand.NewSource(mix(b.seed, "updates", 0)))
	var migrated, leaves []string
	for doc := range b.placed {
		if strings.HasSuffix(doc, ".html") {
			migrated = append(migrated, doc)
		}
	}
	for doc := range b.exp.html {
		if _, moved := b.placed[doc]; !moved && strings.HasPrefix(doc, b.w.leafPrefix) {
			leaves = append(leaves, doc)
		}
	}
	pick := func(docs []string, n int) []string {
		sort.Strings(docs)
		rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		return docs[:min(n, len(docs))]
	}
	u.targets = append(u.targets, pick(migrated, 4)...)
	u.targets = append(u.targets, b.w.hub)
	u.targets = append(u.targets, pick(leaves, 4)...)
	return u
}

// times returns the ack and staleness times of every acked update.
func (u *updater) times() (ack, stale []time.Duration) {
	for _, d := range u.done {
		ack = append(ack, d.ack)
		if d.stale >= 0 {
			stale = append(stale, d.stale)
		}
	}
	return ack, stale
}

// ackVsRef is the median over updates of the DCWS ack time over the
// reference's for the same update.
func (u *updater) ackVsRef() float64 {
	var pairs []float64
	for _, d := range u.done {
		if d.ref > 0 {
			pairs = append(pairs, float64(d.ack)/float64(d.ref))
		}
	}
	return median(pairs)
}

func (u *updater) close() {
	u.cl.CloseIdle()
	u.poll.close()
}

// one updates the next target to its next version, then polls the
// page through the home URL (following its 301 to a co-op) until the new
// version is served. A poll that still reads an older version once the
// lease has run out since the ack fails the lease check as
// stale_beyond_lease; the run is then incorrect, and one sends no more
// updates, so a stuck copy costs one lease and not one per update.
func (u *updater) one() {
	if u.st.failed[fStale] > 0 {
		return
	}
	doc := u.targets[u.n%len(u.targets)]
	u.n++
	v := u.version[doc] + 1
	u.version[doc] = v
	book := u.b.exp.versions
	book.begin(doc)
	body := stampBody(u.b.exp.html[doc], v)
	// The same update to the reference server first, timed the same way,
	// for ackVsRef.
	ref, ok := u.post(u.b.ref.home.addr, doc, body)
	if ok {
		u.refAcks = append(u.refAcks, ref)
	}
	home := u.b.c.home.addr
	t0 := time.Now()
	ack, ok := u.post(home, doc, body)
	if !ok {
		return
	}
	acked := t0.Add(ack)
	book.acked(doc, v, acked)
	u.done = append(u.done, updateSample{ack: ack, ref: ref, stale: -1})
	sample := &u.done[len(u.done)-1]

	url := "http://" + home + doc
	for {
		final, ok := u.poll.fetch(url, &u.st, nil)
		if !ok {
			return
		}
		url = final
		if u.poll.lastVersion >= v {
			sample.stale = time.Since(acked)
			return
		}
	}
}

// post sends one POST /~dcws/update of doc to addr and returns the time to
// its ack. A failed update counts against u.st.
func (u *updater) post(addr, doc string, body []byte) (time.Duration, bool) {
	req := httpx.NewRequest("POST", "/~dcws/update")
	req.Header.Set("X-DCWS-Doc", doc)
	req.Body = body
	t0 := time.Now()
	resp, err := u.cl.Do(addr, req)
	d := time.Since(t0)
	switch {
	case err != nil:
		u.st.fail(fTransport)
		return 0, false
	case resp.Status != 200:
		u.st.fail(fStatus)
		return 0, false
	}
	return d, true
}
