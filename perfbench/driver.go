package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one attempted operation. Everything but outcomeOK
// counts as failed.
type outcome int

const (
	outcomeOK          outcome = iota
	outcomeShed                // 429: the server refused the request
	outcomePartial             // 504, or a reply flagged partial
	outcomeServerError         // 5xx other than 504, or a failed job
	outcomeClientError         // any other non-2xx reply
	outcomeTransport           // no HTTP reply at all
	outcomeUnsent              // the slot was never sent
	outcomeCheck               // the reply failed a correctness check
)

var outcomeNames = [...]string{"ok", "shed", "partial", "server_error", "client_error", "transport", "unsent", "check"}

func (o outcome) String() string {
	if o >= 0 && int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// classifyHTTP maps one HTTP exchange to an outcome: a transport error,
// then the status code.
func classifyHTTP(status int, err error) outcome {
	switch {
	case err != nil:
		return outcomeTransport
	case status == http.StatusTooManyRequests:
		return outcomeShed
	case status == http.StatusGatewayTimeout:
		return outcomePartial
	case status >= 500:
		return outcomeServerError
	case status >= 200 && status < 300:
		return outcomeOK
	default:
		return outcomeClientError
	}
}

// opRecord is one operation's timeline, in offsets from the loop start.
// sent is negative for a slot that was never sent.
type opRecord struct {
	due, sent, done time.Duration
	// lag is how late the generator sent the operation: the send time
	// minus the later of its due time and the moment its lane became free.
	lag     time.Duration
	outcome outcome
}

// latency is the operation's latency counted from when it was due.
func (r *opRecord) latency() time.Duration { return r.done - r.due }

// service is the operation's latency counted from when it was sent.
func (r *opRecord) service() time.Duration { return r.done - r.sent }

// openLoop sends operations on a fixed schedule regardless of how fast
// replies come back. A fixed set of lanes (one connection and one
// goroutine each) takes slots in schedule order; a slot whose lanes are
// all busy waits, and that wait counts in its latency because latency is
// timed from the due time. Slots still unsent grace after the last due
// time are recorded as outcomeUnsent.
type openLoop struct {
	due   []time.Duration // ascending offsets from the loop start
	lanes int
	grace time.Duration
}

// run drives the schedule through do, which performs operation i and
// classifies it, and returns every slot's record.
func (l openLoop) run(ctx context.Context, do func(ctx context.Context, i int) outcome) []opRecord {
	n := len(l.due)
	recs := make([]opRecord, n)
	if n == 0 {
		return recs
	}
	cutoff := l.due[n-1] + l.grace
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for lane := 0; lane < l.lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &recs[i]
				r.due, r.sent = l.due[i], -1
				if wait := r.due - time.Since(t0); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
					}
					t.Stop()
				}
				now := time.Since(t0)
				if now > cutoff || ctx.Err() != nil {
					r.outcome = outcomeUnsent
					continue
				}
				r.sent = now
				r.lag = now - max(r.due, free)
				r.outcome = do(ctx, i)
				r.done = time.Since(t0)
				free = r.done
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs n operations back to back from one caller; each is due
// the moment the previous one returned.
func closedLoop(ctx context.Context, n int, do func(ctx context.Context, i int) outcome) []opRecord {
	recs := make([]opRecord, n)
	t0 := time.Now()
	for i := range recs {
		r := &recs[i]
		r.due = time.Since(t0)
		r.sent = r.due
		if ctx.Err() != nil {
			r.sent, r.outcome = -1, outcomeUnsent
			continue
		}
		r.outcome = do(ctx, i)
		r.done = time.Since(t0)
	}
	return recs
}

// loopSummary is the end-to-end view of a set of operation records.
type loopSummary struct {
	attempted, failed int64
	// p50 and tailV are latency percentiles in ms over successful
	// operations; tailPct names the percentile tailV reports.
	p50, tailV, tailPct float64
	samples             int
	// wall spans the first due time to the last reply.
	wall      time.Duration
	rps       float64
	goodput   float64
	lagMaxMS  float64
	byOutcome [len(outcomeNames)]int64
}

// summarize computes the end-to-end metrics of a loop. limit is the
// workload's latency limit: goodput counts successful replies within it.
func summarize(recs []opRecord, limit time.Duration) loopSummary {
	var s loopSummary
	if len(recs) == 0 {
		return s
	}
	first, last := recs[0].due, time.Duration(0)
	good := 0
	var lat []float64
	for i := range recs {
		r := &recs[i]
		s.attempted++
		s.byOutcome[r.outcome]++
		first = min(first, r.due)
		if r.sent >= 0 {
			last = max(last, r.done)
			s.lagMaxMS = max(s.lagMaxMS, ms(r.lag))
		}
		if r.outcome != outcomeOK {
			s.failed++
			continue
		}
		lat = append(lat, ms(r.latency()))
		if r.latency() <= limit {
			good++
		}
	}
	s.samples = len(lat)
	s.p50 = median(lat)
	s.tailV, s.tailPct = tail(lat)
	s.wall = last - first
	if s.wall > 0 {
		s.rps = float64(s.samples) / s.wall.Seconds()
		s.goodput = float64(good) / s.wall.Seconds()
	}
	return s
}

// setEndToEnd reports a loop's latency and throughput metrics, and its
// operation counts.
func (s *loopSummary) setEndToEnd(rep *report, sweep time.Duration) {
	rep.ops(s.attempted, s.failed)
	rep.set("p50_ms", s.p50)
	rep.set("tail_ms", s.tailV)
	rep.set("rps", s.rps)
	rep.set("goodput_rps", s.goodput)
	rep.set("sweep_s", sweep.Seconds())
	s.note(rep)
}

// setDriver reports the loop's validity metrics for a traced run.
func (s *loopSummary) setDriver(rep *report) {
	rep.ops(s.attempted, s.failed)
	rep.set("driver.lag_ms_max", s.lagMaxMS)
	rep.set("driver.samples", float64(s.samples))
	rep.set("driver.tail_pct", s.tailPct)
	if s.attempted > 0 {
		rep.set("driver.failed_frac", float64(s.failed)/float64(s.attempted))
	}
	s.note(rep)
}

func (s *loopSummary) note(rep *report) {
	rep.notef("ops: %d attempted, %d failed %v; tail_ms is p%g over %d samples; generator lag max %.3f ms",
		s.attempted, s.failed, s.failures(), s.tailPct, s.samples, s.lagMaxMS)
}

// failures lists the non-zero failure counts by outcome.
func (s *loopSummary) failures() []string {
	var out []string
	for o, c := range s.byOutcome {
		if o != int(outcomeOK) && c > 0 {
			out = append(out, outcome(o).String()+"="+strconv.FormatInt(c, 10))
		}
	}
	return out
}
