//go:build !race

package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lifelog"
)

// TestReadAllocCeilings gates the read path's allocation count: each read
// endpoint through Server.ServeHTTP, recorder included. The ceilings are
// the measured counts (go1.24, amd64), so a change that brings back
// encoding/json, a DTO map or r.URL.Query() fails here. The race detector
// changes allocation counts, so the file builds only without it.
func TestReadAllocCeilings(t *testing.T) {
	spa, err := core.New(core.Options{Shards: 2, Clock: clock.NewSimulated(t0.Add(24 * time.Hour))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spa.Close() })
	var events []lifelog.Event
	for id := uint64(1); id <= 8; id++ {
		if err := spa.Register(id, []float64{float64(id), 1}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 12; j++ {
			events = append(events, lifelog.Event{UserID: id, Time: t0.Add(time.Duration(j) * time.Minute),
				Type: lifelog.EventClick, Action: uint32((int(id)*3 + j) % 20)})
		}
	}
	if _, _, err := spa.BatchIngest(events); err != nil {
		t.Fatal(err)
	}
	trainServer(t, spa, 1, 2, 3, 4, 5, 6, 7, 8)
	s := New(spa, Options{})
	t.Cleanup(s.Close)

	for _, c := range []struct {
		path    string
		ceiling float64
	}{
		{"/v1/users/3/recommendations?n=10", 11},
		{"/v1/users/3/advice?domain=training", 11},
		{"/v1/users/3/sensibilities", 11},
		{"/v1/users/3/propensity", 14},
		{"/v1/select-top?k=10", 10},
	} {
		req := httptest.NewRequest("GET", c.path, nil)
		serve := func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", c.path, rec.Code, rec.Body.Bytes())
			}
		}
		if got := testing.AllocsPerRun(200, serve); got > c.ceiling {
			t.Errorf("GET %s: %.1f allocs, ceiling %.0f", c.path, got, c.ceiling)
		} else {
			t.Logf("GET %s: %.1f allocs, ceiling %.0f", c.path, got, c.ceiling)
		}
	}
}
