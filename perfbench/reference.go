package main

import (
	"fmt"
	"io"
	"io/fs"
	"mime"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The reference server is a bare static server for the same generated
// site: Go's net/http and an in-memory map, no DCWS code. Every round
// drives it with the same walk right after the DCWS servers, and the gated
// metrics are DCWS's figures divided by the reference's from the same
// round. Other load on a shared host mostly slows both alike, so the ratio
// keeps what the DCWS code costs and drops most of what the host's speed
// does. A change to DCWS moves only the numerator.

// serveReference serves referenceHandler(root) on addr until the process
// is killed.
func serveReference(addr, root string) error {
	h, err := referenceHandler(root, root+"-updates")
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return http.Serve(ln, h)
}

// referenceHandler loads every file under root and serves it at its rooted
// path. POST /~dcws/update stores the posted body durably in updates, the
// least a durable update takes (a new file, fsync, rename, fsync of the
// directory), and acks it; the pages served never change. /~dcws/ping
// answers 200, so the reference is readied like a dcwsd.
func referenceHandler(root, updates string) (http.Handler, error) {
	docs := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		docs["/"+filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(updates, 0o755); err != nil {
		return nil, err
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		switch {
		case path == "/~dcws/ping":
			return
		case path == "/~dcws/update" && r.Method == "POST":
			doc := r.Header.Get("X-DCWS-Doc")
			body, err := io.ReadAll(r.Body)
			if err == nil {
				err = writeDurably(updates, strings.ReplaceAll(doc, "/", "_"), body)
			}
			if err != nil {
				http.Error(w, err.Error(), 500)
			}
			return
		}
		body, ok := docs[path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		h := w.Header()
		h.Set("Content-Type", mime.TypeByExtension(filepath.Ext(path)))
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}), nil
}

// writeDurably replaces dir/name with data so that it survives a crash.
func writeDurably(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// startReference launches this program as the reference server for the
// site at root, logging to dir, and waits until it answers.
func startReference(dir, root string) (*cluster, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	n := &node{role: "reference", addr: addr, root: root, done: make(chan struct{})}
	c := &cluster{home: n}
	if err := n.start(self, []string{"-serve-reference", addr, "-root", root}, filepath.Join(dir, "reference.log")); err != nil {
		return nil, fmt.Errorf("start reference: %w", err)
	}
	c.nodes = append(c.nodes, n)
	if err := c.waitReady(20 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}
