package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/service"
)

var testDefaults = Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: 20000}

// nanExitBlock names a NaN exit probability, which ir rejects.
const nanExitBlock = "superblock x\ninst 0 a int 1\ninst 1 b branch 1 exit NaN\ninst 2 c branch 1 exit 0.3\ndep ctrl 1 2 lat 1\n"

func wireBody(tb testing.TB, wreq service.WireRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(wreq)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzBuildRequests feeds arbitrary /v1/schedule bodies through the
// daemon's and the router's request expansion. It must never panic,
// every request it returns must be valid, and each block's canonical
// bytes — what the router forwards — must re-parse to a block with the
// same fingerprint.
func FuzzBuildRequests(f *testing.F) {
	for _, wreq := range []service.WireRequest{
		{Blocks: []string{ir.PaperFigure1().String()}},
		{Blocks: []string{"superblock x\ninst 0 a int 1\ninst 1 b branch 1 exit 1\ndep data 0 1 lat 1\n"}, Machine: "4c2l", PinSeed: 3, MaxSteps: 500},
		{Blocks: []string{ir.Diamond().String() + ir.Straight(4).String(), ir.Wide(3).String()}, Machine: "sec5", TimeoutMS: 50},
		{Blocks: []string{"superblock u\ninst 0 a int 1\ninst 1 b branch 1 exit 0.5\ninst 2 c branch 1 exit 0.5\ndep ctrl 1 2 lat 1\ndep data 0 2 lat 1\ndep data 0 1 lat 1\nlivein v 0 2\nliveout 0\n"}},
		{Blocks: []string{nanExitBlock}},
		{Blocks: []string{ir.PaperFigure1().String()}, Machine: "no-such-machine"},
		{},
	} {
		f.Add(wireBody(f, wreq))
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{"blocks": "superblock x"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		wreq, ok := DecodeWireRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400", rec.Code)
			}
			return
		}
		reqs, err := BuildRequests(wreq, testDefaults)
		if err != nil {
			return
		}
		for _, req := range reqs {
			if err := req.Validate(); err != nil {
				t.Fatalf("BuildRequests returned an invalid request: %v", err)
			}
			fp, text := service.FingerprintText(req)
			sb, err := ir.Parse(string(text))
			if err != nil {
				t.Fatalf("canonical text of %q does not parse: %v\n%s", req.SB.Name, err, text)
			}
			again := *req
			again.SB = sb
			if got := service.Fingerprint(&again); got != fp {
				t.Fatalf("re-parsed canonical text fingerprints %s, want %s\n%s", got, fp, text)
			}
		}
	})
}

// TestNaNExitProbabilityIsBadRequest: a block ir rejects is refused
// with 400 before it reaches the service.
func TestNaNExitProbabilityIsBadRequest(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	rec := httptest.NewRecorder()
	body := wireBody(t, service.WireRequest{Blocks: []string{nanExitBlock}})
	SchedulerMux(svc, testDefaults).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("NaN exit probability answered %d (%s), want 400", rec.Code, rec.Body.String())
	}
	if st := svc.Stats(); st.Requests != 0 {
		t.Fatalf("the service saw %d requests, want 0", st.Requests)
	}
}
