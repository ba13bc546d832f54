package loadsim

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vcsched/internal/httpapi"
	"vcsched/internal/machine"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestWireBatchUnits is vcload's accounting, through the wire adapter
// and the collector. A 4-block batch answered with 2 ok (one a cache
// hit), 1 shed and 1 hard failure, plus a 4-block batch lost to a
// transport error, count as 8 blocks: the lost batch is 4 "unreachable"
// hard failures, and every rate is taken over the 8 blocks sent.
func TestWireBatchUnits(t *testing.T) {
	m, err := machine.ByKey("4c1l")
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Name: "wire", Seed: 3, Gen: 4, MaxInstrs: 12, Machine: "4c1l", PinSeed: 5}
	pool, err := buildPool(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*service.Request, len(pool))
	for i, src := range pool {
		reqs[i] = sc.request(m, src, 250*time.Millisecond)
		reqs[i].MaxSteps = 900
	}

	var sent []service.WireRequest
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		var wreq service.WireRequest
		if err := json.NewDecoder(req.Body).Decode(&wreq); err != nil {
			t.Errorf("decoding the wire request: %v", err)
		}
		sent = append(sent, wreq)
		results := []service.WireResult{
			{Taxonomy: "ok", CacheHit: true},
			{Taxonomy: "ok"},
			{Taxonomy: "shed", Shed: true},
			{Taxonomy: "contradiction", HardFailure: true},
		}
		switch len(sent) {
		case 2:
			return nil, io.ErrUnexpectedEOF
		case 3:
			results = results[:1] // a daemon breaking the one-result-per-block contract
		}
		rec := httptest.NewRecorder()
		httpapi.WriteJSON(rec, http.StatusOK, service.WireResponse{Results: results})
		return rec.Result(), nil
	})
	client, err := vcclient.New(vcclient.Config{BaseURL: "http://daemon", HTTPClient: &http.Client{Transport: transport}})
	if err != nil {
		t.Fatal(err)
	}
	w := &remote{client: client}
	col := newCollector("wire")
	col.record(time.Millisecond, w.SubmitBatch(reqs)...)
	col.record(time.Millisecond, w.SubmitBatch(reqs)...)
	col.rep.finalize()
	rep := &col.rep

	// The wire request carries the blocks in canonical form plus the
	// machine key, pin seed, deadline and step budget.
	if len(sent) != 2 {
		t.Fatalf("sent %d wire requests, want 2", len(sent))
	}
	got := sent[0]
	if len(got.Blocks) != 4 || got.Blocks[1] != string(pool[1].sb.AppendCanonical(nil)) {
		t.Errorf("blocks not the canonical sources: %q", got.Blocks)
	}
	if got.Machine != "4c1l" || got.PinSeed != 5 || got.TimeoutMS != 250 || got.MaxSteps != 900 {
		t.Errorf("wire request fields = %+v", got)
	}

	if rep.Requests != 2 || rep.Blocks != 8 {
		t.Fatalf("requests/blocks = %d/%d, want 2/8", rep.Requests, rep.Blocks)
	}
	if rep.OK != 2 || rep.Shed != 1 || rep.HardFailures != 5 || rep.CacheHits != 1 {
		t.Fatalf("ok/shed/hard/hits = %d/%d/%d/%d, want 2/1/5/1", rep.OK, rep.Shed, rep.HardFailures, rep.CacheHits)
	}
	if rep.Taxonomy["unreachable"] != 4 {
		t.Fatalf("taxonomy %v, want 4 unreachable", rep.Taxonomy)
	}
	if rep.HitRate != 1.0/8 || rep.ShedRate != 1.0/8 {
		t.Fatalf("hit/shed rate = %v/%v, want 1/8 each", rep.HitRate, rep.ShedRate)
	}
	var b strings.Builder
	rep.WriteSummary(&b)
	for _, want := range []string{
		"2 requests, 8 blocks",
		"ok 2 (25.0%)  hard-failures 5  shed 1 (12.5%)",
		"cache-hits 1 (12.5%)",
		"taxonomy unreachable    4",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, b.String())
		}
	}

	// An answer with fewer results than blocks is the daemon's fault,
	// not the network's.
	for _, r := range w.SubmitBatch(reqs) {
		if !r.HardFailure || r.Taxonomy != "internal" {
			t.Errorf("short answer mapped to %+v, want an internal hard failure per block", r)
		}
	}
}
