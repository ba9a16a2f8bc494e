package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestHeartbeatCadenceFollowsReregistration: a worker left to obey the
// coordinator's cadence must adopt the cadence of the coordinator it
// re-registers with. The fake coordinator assigns 1s, forgets the
// worker at its first beat (400, as after a restart), and assigns 50ms
// on re-registration; the beats that follow must come every ~50ms, not
// every second.
func TestHeartbeatCadenceFollowsReregistration(t *testing.T) {
	var (
		mu    sync.Mutex
		regs  int
		beats []time.Time // beats from the re-registered id
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		regs++
		resp := RegisterResponse{ID: "w0001", HeartbeatEvery: "1s"}
		if regs > 1 {
			resp = RegisterResponse{ID: "w0002", HeartbeatEvery: "50ms"}
		}
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "w0001" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		beats = append(beats, time.Now())
		mu.Unlock()
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&Heartbeater{CoordURL: hs.URL, SelfURL: "http://worker", Slots: 1}).Run(ctx)
	}()
	defer func() { cancel(); <-done }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(beats)
		got := append([]time.Time(nil), beats...)
		mu.Unlock()
		if n >= 5 {
			for i := 1; i < len(got); i++ {
				if gap := got[i].Sub(got[i-1]); gap > 500*time.Millisecond {
					t.Fatalf("beat %d came %s after the previous one; the re-registered cadence is 50ms", i, gap)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d beats after re-registration within 5s; cadence not re-read", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
