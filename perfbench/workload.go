package main

import "time"

// workload is one traffic mix. The open-loop rate is a fixed number of page
// views per second, under a seventh of the workload's closed-loop view rate
// on one CPU, so a later change is measured at the same offered load, and a
// host running at half speed is still not overloaded.
type workload struct {
	name    string
	dataset string // dcwsgen data set
	coops   int    // co-op dcwsd processes beside the home
	wal     bool   // run every dcwsd with -wal
	// placed is how many seed-chosen message pages are migrated at set-up
	// besides the hot images; with coops == 0 nothing is migrated.
	placed int
	// warmup runs the closed loop untimed before the measured phases.
	warmup  time.Duration
	lowRate float64 // open-loop page views per second
	// Updates go round-robin to a fixed mix of pages: up to 4 migrated at
	// set-up, the hub, and 4 seed-chosen leaves (pages under leafPrefix).
	hub        string
	leafPrefix string
}

// updates is how many updates a run sends, updates/rounds back to back
// after each round's reads.
const updates = 480

var workloads = map[string]*workload{
	// One home, no peers: the per-request path (httpx, store stat, LDG,
	// render-cache hit) is nearly all the work. With a 1.5 s warm-up the
	// first round's update acks ran 26% above the run's median.
	"home-lod": {
		name: "home-lod", dataset: "lod",
		warmup:  4 * time.Second,
		lowRate: 300,
		hub:     "/tables/t0.html", leafPrefix: "/items/",
	},
	// A home and one co-op on MAPUG, -wal on both, with a seeded placement
	// (the hot buttons and 24 seed-chosen message pages) and the live
	// control plane: link rewriting, 301s, lazy home fetches over the
	// pool, GLT piggyback, load-driven migration, and the chain
	// replication of the hub page at the first stats tick, inside the
	// two-tick warm-up. With two co-ops the home chain-replicated the
	// buttons to the second one at a tick that varied by seed from 10 s to
	// past 90 s after the placement, and re-rendered every page with
	// replica URLs; a run's figures then depended on which side of that
	// tick its rounds fell. The updates between rounds run the write path:
	// reparse, dirty propagation, WAL group commit, invalidation push and
	// co-op refetch.
	"coop-mapug": {
		name: "coop-mapug", dataset: "mapug", coops: 1, placed: 24, wal: true,
		warmup:  20 * time.Second,
		lowRate: 400,
		hub:     "/threads.html", leafPrefix: "/msg/",
	},
}
