package coord

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deesim/internal/client"
	"deesim/internal/obs"
	"deesim/internal/server"
)

// timelineDoc mirrors the Chrome-trace document /v1/trace serves, just
// enough of it for assertions.
type timelineDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestMergedFleetTimeline is the tracing e2e: a coordinator and two
// real deesimd workers, all recording span fragments, run one traced
// sweep; GET /v1/trace/<id> must return a single merged timeline in
// which every cell is attributed to a worker lane and the coordinator
// lane holds the sweep root, the lease dispatches, and the merge.
func TestMergedFleetTimeline(t *testing.T) {
	newWorker := func(name string) (*server.Server, *httptest.Server) {
		frags, err := obs.OpenFragmentLog(filepath.Join(t.TempDir(), "fragments.jsonl"), name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { frags.Close() })
		s, err := server.New(server.Config{
			StateDir:  t.TempDir(),
			CellJobs:  2,
			CellSlots: 2,
			Retries:   1,
			Frags:     frags,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(func() { hs.Close(); s.Close() })
		return s, hs
	}
	_, wsA := newWorker("worker-a")
	_, wsB := newWorker("worker-b")

	coordFrags, err := obs.OpenFragmentLog(filepath.Join(t.TempDir(), "fragments.jsonl"), "coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coordFrags.Close() })
	c := newTestCoord(t, nil, func(cfg *Config) {
		cfg.Frags = coordFrags
		cfg.NewWorkerClient = func(url string) WorkerClient { return client.New(url) }
	})
	idA := registerWorker(t, c, wsA.URL, 2)
	idB := registerWorker(t, c, wsB.URL, 2)
	beatForever(t, c, idA)
	beatForever(t, c, idB)
	c.Start()

	hs := httptest.NewServer(c.Handler())
	defer hs.Close()
	cc := client.New(hs.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The traced submission: the client injects the traceparent, the
	// coordinator persists it into the sweep spec.
	tc := obs.NewTrace()
	st, err := cc.Submit(obs.WithTraceContext(ctx, tc), smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Wait(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// The root span's fragment is appended when runSweep returns, which
	// races the status flipping to done by a hair — poll briefly.
	var doc timelineDoc
	var body []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/trace/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/trace/%s: HTTP %d: %s", st.ID, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("decode timeline: %v", err)
		}
		if hasSpan(doc, "sweep "+st.ID) || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Nonnegative durations, per-lane monotone timestamps, and nesting
	// per track: concurrent leases (coordinator) and cell RPCs (two-slot
	// workers) must sit on separate tracks.
	if _, err := obs.CheckTimeline(body); err != nil {
		t.Errorf("merged timeline: %v", err)
	}

	// Lanes: the coordinator plus every worker that ran cells.
	lanes := map[int]string{}
	coordPID := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			lanes[ev.PID] = name
			if name == "coord" {
				coordPID = ev.PID
			}
		}
	}
	if coordPID == -1 {
		t.Fatalf("no coordinator lane in timeline: %v", lanes)
	}
	if len(lanes) < 2 {
		t.Fatalf("timeline has %d lanes, want coordinator plus at least one worker: %v", len(lanes), lanes)
	}

	cells := map[string]int{} // cell key -> lane pid
	leases := 0
	var haveRoot, haveMerge bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if tr, _ := ev.Args["trace"].(string); tr != tc.TraceID {
			t.Fatalf("span %q carries trace %q, want %s", ev.Name, tr, tc.TraceID)
		}
		switch {
		case ev.Name == "sweep "+st.ID:
			haveRoot = true
			if ev.PID != coordPID {
				t.Errorf("sweep root span in lane %d, want coordinator lane %d", ev.PID, coordPID)
			}
		case ev.Name == "merge "+st.ID:
			haveMerge = true
		case strings.HasPrefix(ev.Name, "lease ") && ev.PID == coordPID:
			leases++
		case strings.HasPrefix(ev.Name, "cell ") && ev.Ph == "X":
			key := strings.TrimPrefix(ev.Name, "cell ")
			cells[key] = ev.PID
			if ev.PID == coordPID {
				t.Errorf("cell %s attributed to the coordinator lane, want a worker lane", key)
			}
		}
	}
	if !haveRoot {
		t.Error("timeline is missing the sweep root span")
	}
	if !haveMerge {
		t.Error("timeline is missing the merge span")
	}
	if len(cells) != 4 {
		t.Errorf("timeline attributes %d distinct cells, want 4: %v", len(cells), cells)
	}
	if leases < 4 {
		t.Errorf("coordinator lane has %d lease spans, want at least 4", leases)
	}

	// Unknown sweeps are typed invalid input, not empty timelines.
	resp, err := http.Get(hs.URL + "/v1/trace/s999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /v1/trace/s999999: HTTP %d, want 400", resp.StatusCode)
	}
}

func hasSpan(doc timelineDoc, name string) bool {
	for _, ev := range doc.TraceEvents {
		if ev.Name == name {
			return true
		}
	}
	return false
}
