package main

import (
	"encoding/json"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dcws/internal/hypertext"
	"dcws/internal/naming"
)

func TestScheduleIsSeedDeterministic(t *testing.T) {
	a := schedule(7, "low/3", 1, 500, 2*time.Second)
	b := schedule(7, "low/3", 1, 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, schedule(8, "low/3", 1, 500, 2*time.Second)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 2 s at 500/s", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("arrivals out of order")
	}

	// The walk's decisions (entry, sequence lengths, link choices) come
	// from the same per-phase stream.
	draws := func() []int {
		s := &slot{id: 1}
		s.reseed(7, "low/0")
		out := make([]int, 50)
		for i := range out {
			out[i] = s.rng.Intn(maxSteps)
		}
		return out
	}
	if !reflect.DeepEqual(draws(), draws()) {
		t.Fatal("same seed gave different walk decisions")
	}
}

const home = "127.0.0.1:8000"

func testExpected() *expected {
	e := &expected{
		home:     home,
		html:     map[string][]byte{"/a.html": []byte("<html><head><title>/a.html</title></head><body>\n<a href=\"/b.html\">b</a>\n<img src=\"/i.gif\">\n<a href=\"/c.html\">c</a>\n</body></html>\n")},
		binLen:   map[string]int{},
		binSum:   map[string]uint64{},
		hashSeed: maphash.MakeSeed(),
		versions: newVersionBook(lease),
	}
	return e
}

// rewritten is /a.html as a co-op serves it: /b.html migrated to a co-op,
// the other links absolutized back to the home.
func rewritten(t *testing.T, e *expected, body []byte) []byte {
	t.Helper()
	coop, _ := naming.ParseOrigin("127.0.0.1:8001")
	origin, _ := naming.ParseOrigin(home)
	moved, err := naming.MigratedURL(coop, origin, "/b.html")
	if err != nil {
		t.Fatal(err)
	}
	out, n := hypertext.RewriteHTML(string(body), map[string]string{
		"/b.html": moved,
		"/i.gif":  naming.HomeURL(origin, "/i.gif"),
		"/c.html": naming.HomeURL(origin, "/c.html"),
	})
	if n != 3 {
		t.Fatalf("rewrote %d links, want 3", n)
	}
	return []byte(out)
}

func TestComparatorAcceptsRewrittenPage(t *testing.T) {
	e := testExpected()
	now := time.Now()
	if ok, class := e.check("/a.html", e.html["/a.html"], nil, now); !ok {
		t.Fatalf("generated page rejected as %s", classNames[class])
	}
	served := rewritten(t, e, e.html["/a.html"])
	if ok, class := e.check("/a.html", served, nil, now); !ok {
		t.Fatalf("rewritten page rejected as %s:\n%s", classNames[class], served)
	}
	// An updated page is checked against its own version's bytes.
	e.versions.begin("/a.html")
	e.versions.acked("/a.html", 2, now)
	v2 := rewritten(t, e, stampBody(e.html["/a.html"], 2))
	if ok, class := e.check("/a.html", v2, nil, now); !ok {
		t.Fatalf("version 2 rejected as %s", classNames[class])
	}
	if parseVersion(v2) != 2 {
		t.Fatalf("parseVersion = %d, want 2", parseVersion(v2))
	}
}

func TestComparatorRejectsCorruptedPage(t *testing.T) {
	e := testExpected()
	now := time.Now()
	served := rewritten(t, e, e.html["/a.html"])
	corrupt := append([]byte(nil), served...)
	corrupt[len(corrupt)-12] ^= 0x20
	if ok, class := e.check("/a.html", corrupt, nil, now); ok || class != fMismatch {
		t.Fatalf("corrupted page: ok=%v class=%s", ok, classNames[class])
	}
	// A link pointing at the wrong document is a mismatch too.
	wrong, _ := hypertext.RewriteHTML(string(e.html["/a.html"]), map[string]string{"/c.html": "/d.html"})
	if ok, _ := e.check("/a.html", []byte(wrong), nil, now); ok {
		t.Fatal("page with a wrong link accepted")
	}

	// Binaries match byte for byte.
	img := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(img)
	e.binLen["/i.gif"] = len(img)
	e.binSum["/i.gif"] = maphash.Bytes(e.hashSeed, img)
	if ok, _ := e.check("/i.gif", img, nil, now); !ok {
		t.Fatal("exact image rejected")
	}
	bad := append([]byte(nil), img...)
	bad[4000] ^= 1
	if ok, class := e.check("/i.gif", bad, nil, now); ok || class != fMismatch {
		t.Fatal("corrupted image accepted")
	}

	// Version 1 acked more than a lease before the read: version 0 is stale.
	e.versions.begin("/a.html")
	e.versions.acked("/a.html", 1, now.Add(-lease-time.Second))
	if ok, class := e.check("/a.html", served, nil, now); ok || class != fStale {
		t.Fatalf("stale page: ok=%v class=%s", ok, classNames[class])
	}
	// Within the lease the old version is still allowed.
	e.versions.acked("/a.html", 2, now)
	if ok, _ := e.check("/a.html", rewritten(t, e, stampBody(e.html["/a.html"], 1)), nil, now); !ok {
		t.Fatal("version 1 rejected inside version 2's lease")
	}
}

// cannedTraces is `go tool pprof -traces` output in the layout the
// toolchain prints: 10ms of fstatat under store.(*Dir).Has, 20ms of header
// parsing in httpx, 5ms of background GC and 5ms of scheduler time.
const cannedTraces = `File: dcwsd
Build ID: 5375b8b3c07c6fb2b7237801f2c8d64fd9cba66b
Type: cpu
Time: 2026-10-17 06:05:51 UTC
Duration: 2.10s, Total samples = 40ms ( 1.90%)
-----------+-------------------------------------------------------
      10ms   syscall.Syscall6
             syscall.fstatat
             os.Stat
             dcws/internal/store.(*Dir).Has
             dcws/internal/dcws.(*Server).serveAsHome
             dcws/internal/dcws.(*Server).handle
             dcws/internal/httpx.(*Server).worker
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess2_faststr
             dcws/internal/httpx.canonicalizeKey
             dcws/internal/httpx.Header.Get (inline)
             dcws/internal/dcws.(*Server).serveAsHome
-----------+-------------------------------------------------------
       5ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
       5ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
             runtime.mcall
-----------+-------------------------------------------------------
`

func TestAttributeCannedTraces(t *testing.T) {
	shares := make(cpuShares)
	if err := attribute(cannedTraces, shares); err != nil {
		t.Fatal(err)
	}
	want := cpuShares{
		"store":         10 * time.Millisecond,
		"httpx":         20 * time.Millisecond,
		"runtime.gc":    5 * time.Millisecond,
		"runtime.other": 5 * time.Millisecond,
	}
	if !reflect.DeepEqual(shares, want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	if err := attribute("-----------+---\n   bogus frame\n", make(cpuShares)); err == nil {
		t.Fatal("malformed sample line accepted")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: printed %s [%s], BENCHMARK.json has %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	listed := make(map[string]bool)
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is not listed in BENCHMARK.json", name)
		}
	}

	// finish refuses a result that misses or adds a metric.
	vals := make(map[string]float64)
	for _, d := range endToEnd {
		vals[d.name] = 1
	}
	if _, err := finish(endToEnd, vals); err != nil {
		t.Fatal(err)
	}
	vals["extra"] = 1
	if _, err := finish(endToEnd, vals); err == nil {
		t.Fatal("extra metric accepted")
	}
	delete(vals, "extra")
	delete(vals, "setup_s")
	if _, err := finish(endToEnd, vals); err == nil {
		t.Fatal("missing metric accepted")
	}
}

// fakeHome acks every POST /~dcws/update and serves /a.html at the version
// it is told to, whatever was posted.
type fakeHome struct {
	mu      sync.Mutex
	serve   int // version served; -1 serves the latest posted
	latest  int
	updates int
	page    []byte
}

func (f *fakeHome) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r.Method == "POST" {
		f.updates++
		body, _ := io.ReadAll(r.Body)
		f.latest = parseVersion(body)
		w.Header().Set("Content-Length", "0")
		return
	}
	v := f.serve
	if v < 0 {
		v = f.latest
	}
	body := stampBody(f.page, v)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func TestUpdaterFailsAPollThatNeverSeesTheNewVersion(t *testing.T) {
	e := testExpected()
	e.versions = newVersionBook(300 * time.Millisecond)
	f := &fakeHome{serve: -1, page: e.html["/a.html"]}
	srv := httptest.NewServer(f)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	e.home = addr
	ref := httptest.NewServer(&fakeHome{page: e.html["/a.html"]})
	defer ref.Close()
	b := &bench{
		w:   &workload{hub: "/a.html", leafPrefix: "/items/"},
		exp: e,
		c:   &cluster{home: &node{addr: addr}},
		ref: &cluster{home: &node{addr: strings.TrimPrefix(ref.URL, "http://")}},
	}
	u := newUpdater(b)
	defer u.close()

	// A home that serves what it was sent: the new version is seen.
	u.one()
	if u.st.failures() != 0 || len(u.done) != 1 || u.done[0].stale < 0 {
		t.Fatalf("fresh update: failed=%v samples=%+v", u.st.failed, u.done)
	}

	// A home stuck on version 1: the poll runs out the lease and fails.
	f.mu.Lock()
	f.serve = 1
	f.mu.Unlock()
	t0 := time.Now()
	u.one()
	if u.st.failed[fStale] != 1 {
		t.Fatalf("stuck update: failed=%v, want one stale_beyond_lease", u.st.failed)
	}
	if d := time.Since(t0); d < 300*time.Millisecond {
		t.Fatalf("poll gave up after %v, before the lease ran out", d)
	}
	if u.done[1].stale >= 0 {
		t.Fatalf("stuck update recorded a staleness of %v", u.done[1].stale)
	}
	// The run is incorrect now; no further update is sent.
	u.one()
	if f.updates != 2 || len(u.refAcks) != 2 {
		t.Fatalf("%d updates posted and %d to the reference, want 2 each", f.updates, len(u.refAcks))
	}
}

func TestReferenceServesTheSiteAndStoresUpdates(t *testing.T) {
	root, updates := t.TempDir(), t.TempDir()
	page := []byte("<html><head><title>/d/a.html</title></head></html>\n")
	if err := os.MkdirAll(root+"/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root+"/d/a.html", page, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := referenceHandler(root, updates)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/d/a.html"); code != 200 || body != string(page) {
		t.Fatalf("GET /d/a.html = %d %q", code, body)
	}
	if code, _ := get("/~dcws/ping"); code != 200 {
		t.Fatalf("ping = %d", code)
	}
	if code, _ := get("/missing.html"); code != 404 {
		t.Fatalf("missing page = %d", code)
	}

	// An update is stored under updates and acked; the page served stays
	// the generated one.
	req, _ := http.NewRequest("POST", srv.URL+"/~dcws/update", strings.NewReader("v1"))
	req.Header.Set("X-DCWS-Doc", "/d/a.html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("update = %d", resp.StatusCode)
	}
	if got, err := os.ReadFile(updates + "/_d_a.html"); err != nil || string(got) != "v1" {
		t.Fatalf("stored update = %q, %v", got, err)
	}
	if _, body := get("/d/a.html"); body != string(page) {
		t.Fatalf("page changed by an update: %q", body)
	}
}
