package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers every request at once, except that request number
// stallAt (1-based; 0 = never) sleeps for stall first.
func fakeServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// driveFake runs an open loop of n slots, 10 ms apart, through one lane
// against srv and returns the records.
func driveFake(t *testing.T, srv *httptest.Server, n int) []opRecord {
	t.Helper()
	c := newClient(srv.URL, 1)
	defer c.close()
	loop := openLoop{due: schedule(n, 100, 1), lanes: 1, grace: 5 * time.Second}
	return loop.run(context.Background(), func(ctx context.Context, i int) outcome {
		status, _, err := c.do(ctx, http.MethodGet, "/", nil)
		return classifyHTTP(status, err)
	})
}

// TestStallRaisesLaterTails: a server that stalls one request must show
// up in the latency of the requests due while it stalled, because an open
// loop times each request from when it was due, not from when it was
// sent.
func TestStallRaisesLaterTails(t *testing.T) {
	const n, stall = 60, 400 * time.Millisecond
	calm := summarize(driveFake(t, fakeServer(t, 0, 0), n), time.Second)
	recs := driveFake(t, fakeServer(t, 5, stall), n)
	stalled := summarize(recs, time.Second)

	late := 0
	for i := 5; i < len(recs); i++ {
		if recs[i].latency() >= stall/4 {
			late++
		}
	}
	if late < 10 {
		t.Errorf("only %d requests after the stall waited ≥ %v; the stall did not reach later requests", late, stall/4)
	}
	if stalled.tailV < 2*calm.tailV || stalled.tailV < ms(stall/4) {
		t.Errorf("tail_ms %.2f with a stall vs %.2f without; want a clear rise", stalled.tailV, calm.tailV)
	}
	// The stalled request itself was sent on time: the generator did not
	// fall behind, the server did.
	if stalled.lagMaxMS > ms(stall/4) {
		t.Errorf("generator lag %.2f ms; the stall was charged to the generator", stalled.lagMaxMS)
	}
}

// TestClassifyHTTP is the failure table for single HTTP exchanges.
func TestClassifyHTTP(t *testing.T) {
	for _, tc := range []struct {
		status int
		err    error
		want   outcome
	}{
		{200, nil, outcomeOK},
		{202, nil, outcomeOK},
		{429, nil, outcomeShed},
		{504, nil, outcomePartial},
		{500, nil, outcomeServerError},
		{502, nil, outcomeServerError},
		{503, nil, outcomeServerError},
		{400, nil, outcomeClientError},
		{404, nil, outcomeClientError},
		{413, nil, outcomeClientError},
		{0, errors.New("connection refused"), outcomeTransport},
		{200, errors.New("body read failed"), outcomeTransport},
	} {
		if got := classifyHTTP(tc.status, tc.err); got != tc.want {
			t.Errorf("classifyHTTP(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.want)
		}
	}
}

// TestJobOutcomes classifies the jobs path: the terminal job state and
// the partial flag decide the outcome.
func TestJobOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name, state, result string
		want                outcome
	}{
		{"done", "done", `{"rule":"tvof","feasible":true}`, outcomeOK},
		{"degraded but whole", "degraded", `{"rule":"tvof","degraded":true}`, outcomeOK},
		{"partial", "degraded", `{"rule":"tvof","partial":true}`, outcomePartial},
		{"failed job", "failed", ``, outcomeServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					w.WriteHeader(http.StatusAccepted)
					_, _ = w.Write([]byte(`{"id":"j-1","state":"queued"}`))
					return
				}
				body := `{"id":"j-1","state":"` + tc.state + `"`
				if tc.result != "" {
					body += `,"result":` + tc.result
				}
				_, _ = w.Write([]byte(body + "}"))
			}))
			defer srv.Close()
			c := newClient(srv.URL, 1)
			defer c.close()
			if got, _ := sendJob(context.Background(), c, []byte(`{}`)); got != tc.want {
				t.Errorf("sendJob outcome %v, want %v", got, tc.want)
			}
		})
	}
}

// TestUnsentSlotsFail: slots the loop could not send before its cutoff
// are failures, not silently dropped.
func TestUnsentSlotsFail(t *testing.T) {
	srv := fakeServer(t, 1, 300*time.Millisecond)
	c := newClient(srv.URL, 1)
	defer c.close()
	loop := openLoop{due: schedule(10, 100, 1), lanes: 1, grace: 50 * time.Millisecond}
	recs := loop.run(context.Background(), func(ctx context.Context, i int) outcome {
		status, _, err := c.do(ctx, http.MethodGet, "/", nil)
		return classifyHTTP(status, err)
	})
	s := summarize(recs, time.Second)
	if s.attempted != 10 || s.byOutcome[outcomeUnsent] == 0 || s.failed != s.byOutcome[outcomeUnsent] {
		t.Errorf("attempted %d, unsent %d, failed %d: want every slot attempted and unsent slots failed",
			s.attempted, s.byOutcome[outcomeUnsent], s.failed)
	}
}

// TestSummarizeCountsEveryFailure: each failure class counts against
// the attempted operations and is left out of the latency percentiles.
func TestSummarizeCountsEveryFailure(t *testing.T) {
	var recs []opRecord
	for o := outcomeOK; o <= outcomeCheck; o++ {
		recs = append(recs, opRecord{due: 0, sent: 0, done: time.Duration(o+1) * time.Millisecond, outcome: o})
	}
	recs[len(recs)-2].sent = -1 // the unsent slot
	s := summarize(recs, time.Second)
	if s.attempted != int64(len(recs)) || s.failed != int64(len(recs)-1) || s.samples != 1 {
		t.Errorf("attempted %d failed %d samples %d, want %d %d 1", s.attempted, s.failed, s.samples, len(recs), len(recs)-1)
	}
}

// TestTailRule: the tail is the highest ladder percentile with at least
// ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {40, 50}, {100, 90}, {200, 90}, {900, 90}, {1000, 99}, {20000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, pct := tail(xs); pct != tc.want {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, pct, tc.want)
		}
	}
}
