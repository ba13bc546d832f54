package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run: a call into one layer.
// Spans of one request share Req; Parent is the span that caused it (0
// for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Block  string `json:"block,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"` // response body size, for HTTP handler spans
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// link makes every child-named span without a parent the child of the
// parent-named span that carries the same block and encloses it in
// time. HTTP handlers cannot see the caller's span, but a block is in
// flight at most once at a time in every workload, so block and time
// identify the caller. It returns how many spans found no parent.
func (t *tracer) link(child, parent string) int {
	byBlock := map[string][]*span{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == parent {
			byBlock[s.Block] = append(byBlock[s.Block], s)
		}
	}
	for _, ps := range byBlock {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	}
	orphans := 0
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		ps := byBlock[c.Block]
		k := sort.Search(len(ps), func(k int) bool { return ps[k].Start > c.Start }) - 1
		if k < 0 || ps[k].End < c.End {
			orphans++
			continue
		}
		c.Parent, c.Req = ps[k].ID, ps[k].Req
	}
	return orphans
}

// self returns each span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) self() []int64 {
	kids := map[int][]*span{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerTimes aggregates spans by name.
type layerTimes struct {
	count     int
	total     int64 // ns
	selfTotal int64 // ns
	bytes     int64
}

func (l layerTimes) meanMS() float64 { return l.mean(l.total) / 1e6 }
func (l layerTimes) selfMS() float64 { return l.mean(l.selfTotal) / 1e6 }
func (l layerTimes) meanUS() float64 { return l.mean(l.total) / 1e3 }

func (l layerTimes) mean(ns int64) float64 {
	if l.count == 0 {
		return 0
	}
	return float64(ns) / float64(l.count)
}

// summary aggregates spans by name and logs the per-layer table: calls,
// mean duration, mean self time and the share of all self time.
func (t *tracer) summary(o *outcome) map[string]layerTimes {
	self := t.self()
	byName := map[string]layerTimes{}
	var all int64
	for i := range t.spans {
		s := &t.spans[i]
		l := byName[s.Name]
		l.count++
		l.total += s.dur()
		l.selfTotal += self[i]
		l.bytes += int64(s.Bytes)
		byName[s.Name] = l
		all += self[i]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	o.logf("span summary (%d spans):", len(t.spans))
	o.logf("  %-16s %9s %12s %12s %7s", "span", "calls", "mean_us", "self_us", "self%")
	for _, n := range names {
		l := byName[n]
		share := 0.0
		if all > 0 {
			share = 100 * float64(l.selfTotal) / float64(all)
		}
		o.logf("  %-16s %9d %12.1f %12.1f %6.1f%%", n, l.count, l.mean(l.total)/1e3, l.mean(l.selfTotal)/1e3, share)
	}
	return byName
}

// write stores the spans as JSON lines under .bench_build in the
// checkout the benchmark runs from.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finish writes the spans and logs where they went.
func (t *tracer) finish(o *outcome, cfg runConfig) error {
	path, err := t.write(cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	o.logf("spans written to %s", path)
	return nil
}

// tracedHandler records one span per /v1/schedule exchange while a
// tracer is installed, named after the layer the handler serves and keyed by the
// block the request carries. With no tracer installed it costs one
// atomic load.
type tracedHandler struct {
	name string
	next http.Handler
	tr   *atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil || r.URL.Path != "/v1/schedule" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := tr.now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	tr.add(span{Name: h.name, Block: blockName(body), Start: start, End: tr.now(), Bytes: cw.n})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// blockName pulls the first superblock name out of a JSON /v1/schedule
// body: the name follows "superblock " and ends at the escaped newline.
func blockName(body []byte) string {
	const key = "superblock "
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	if j := bytes.IndexAny(rest, `\" `); j >= 0 {
		rest = rest[:j]
	}
	return string(rest)
}
