package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/server"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// gridvod is an in-process gridvod serving on a loopback listener.
type gridvod struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

func bootGridvod(cfg server.Config) (*gridvod, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	g := &gridvod{base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { g.done <- srv.Serve(ctx, ln, 30*time.Second) }()
	return g, nil
}

// stop shuts the server down, drains its job workers and waits for both.
func (g *gridvod) stop() error {
	g.cancel()
	return <-g.done
}

// client talks to a gridvod over at most conns connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

// lanes is how many client connections and goroutines an open loop uses:
// one per CPU.
func lanes() int { return runtime.NumCPU() }

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// metrics fetches the server's /metrics snapshot.
func (c *client) metrics(ctx context.Context) (*server.MetricsSnapshot, error) {
	status, data, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	var snap server.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &snap, nil
}

// formBody generates one VO-formation request: gsps GSPs, tasks tasks,
// a dense random trust graph, in the shape of gridvod's documented
// scenarios.
func formBody(rng *xrand.RNG, gsps, tasks int, rule string, name string) ([]byte, error) {
	tg := trust.ErdosRenyi(rng.Split("trust"), gsps, 0.5)
	trust.EnsureEveryNodeTrusted(rng.Split("fix"), tg)
	sp := mechanism.ScenarioSpec{
		GSPs:     make([]mechanism.GSPSpec, gsps),
		Tasks:    make([]float64, tasks),
		Deadline: 4000,
		Payment:  8000 * float64(tasks) / 12,
		Trust:    tg,
	}
	for g := range sp.GSPs {
		sp.GSPs[g] = mechanism.GSPSpec{Name: fmt.Sprintf("%s-g%d", name, g), SpeedGFLOPS: rng.Uniform(120, 500)}
	}
	for t := range sp.Tasks {
		sp.Tasks[t] = rng.Uniform(20000, 40000)
	}
	return json.Marshal(server.FormRequest{Scenario: sp, Rule: rule, Seed: rng.Uint64() >> 1})
}

// formMix generates n distinct request bodies from the seed. With
// mixRules, every other request asks for RVOF instead of TVOF.
func formMix(seed uint64, label string, n, gsps, tasks int, mixRules bool) ([][]byte, error) {
	root := xrand.New(seed).Split(label)
	out := make([][]byte, n)
	for i := range out {
		rule := "tvof"
		if mixRules && i%2 == 1 {
			rule = "rvof"
		}
		b, err := formBody(root.SplitN("scenario", i), gsps, tasks, rule, fmt.Sprintf("s%d", i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// formReplay is a served form request replayed in process.
type formReplay struct {
	res                *mechanism.Result
	sc                 *mechanism.Scenario
	decode, build, key time.Duration
	run, encode        time.Duration
}

// compute is the replay's solve work: what the server does between
// decoding and encoding.
func (r *formReplay) compute() time.Duration { return r.build + r.key + r.run }

// replayer re-runs served form requests in process: ScenarioSpec.Build,
// ScenarioKey, then mechanism.RunContext on an engine per scenario. With
// keep set, engines persist across requests like gridvod's EngineCache;
// with a recorder, every IP solve is timed.
type replayer struct {
	keep bool
	rec  *solveRecorder
	tr   *tracer

	mu      sync.Mutex
	engines map[uint64]*mechanism.Engine
}

// engine returns the replay engine for a scenario, creating it (and
// keeping it when keep is set) on first use.
func (p *replayer) engine(key uint64, sc *mechanism.Scenario) *mechanism.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if eng := p.engines[key]; eng != nil {
		return eng
	}
	eng := mechanism.NewEngine(sc, assign.Options{})
	if p.rec != nil {
		eng.SetSolver(p.rec)
	}
	if p.keep {
		p.engines[key] = eng
	}
	return eng
}

func (p *replayer) span(name string, parent, req int64, fn func()) time.Duration {
	if p.tr == nil {
		return timed(fn)
	}
	id := p.tr.begin(name, parent, req)
	fn()
	p.tr.end(id)
	return time.Duration(p.tr.spanMS(id) * float64(time.Millisecond))
}

// replay decodes body, solves it and compares the outcome with the served
// reply got. root parents the replay's spans when tracing.
func (p *replayer) replay(ctx context.Context, body []byte, got *server.FormResponse, root, req int64) (*formReplay, error) {
	out := &formReplay{}
	var fr server.FormRequest
	var err error
	out.decode = p.span("server.decode", root, req, func() { err = json.Unmarshal(body, &fr) })
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	out.build = p.span("mechanism.spec_build", root, req, func() { out.sc, err = fr.Scenario.Build(fr.Seed) })
	if err != nil {
		return nil, fmt.Errorf("build scenario: %w", err)
	}
	var key uint64
	out.key = p.span("mechanism.scenario_key", root, req, func() { key = mechanism.ScenarioKey(out.sc) })
	eng := p.engine(key, out.sc)
	out.sc = eng.Scenario()
	opts := mechanism.Options{Engine: eng, Eviction: mechanism.EvictLowestReputation}
	if fr.Rule == "rvof" {
		opts.Eviction = mechanism.EvictRandom
	}
	if p.rec != nil {
		start := time.Now()
		out.res, err = p.rec.run(ctx, out.sc, opts, xrand.New(fr.Seed), root, req)
		out.run = time.Since(start)
	} else {
		out.run = timed(func() { out.res, err = mechanism.RunContext(ctx, out.sc, opts, xrand.New(fr.Seed)) })
	}
	if err != nil {
		return nil, fmt.Errorf("replay run: %w", err)
	}
	out.encode = p.span("server.encode", root, req, func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err = enc.Encode(got)
	})
	if err != nil {
		return nil, fmt.Errorf("encode reply: %w", err)
	}
	if err := formMatches(got, out.res, out.sc); err != nil {
		return nil, err
	}
	if err := checkSelection(out.sc, out.res); err != nil {
		return nil, err
	}
	return out, nil
}

// formMatches compares a served reply with its replay, bit for bit on
// every solution field (timings and engine counters are not compared).
func formMatches(got *server.FormResponse, res *mechanism.Result, sc *mechanism.Scenario) error {
	if got.Rule != res.Rule.String() {
		return fmt.Errorf("rule %q, replay %q", got.Rule, res.Rule)
	}
	if got.Partial || got.Degraded != res.Degraded {
		return fmt.Errorf("partial=%v degraded=%v, replay degraded=%v", got.Partial, got.Degraded, res.Degraded)
	}
	if !sameBits(got.GlobalReputation, res.GlobalReputation) {
		return fmt.Errorf("global reputation differs from replay")
	}
	final := res.Final()
	if got.Feasible != (final != nil) {
		return fmt.Errorf("feasible=%v, replay %v", got.Feasible, final != nil)
	}
	if final == nil {
		return nil
	}
	if !slices.Equal(got.Members, final.Members) {
		return fmt.Errorf("members %v, replay %v", got.Members, final.Members)
	}
	for i, g := range final.Members {
		if i >= len(got.MemberNames) || got.MemberNames[i] != sc.GSPs[g].Name {
			return fmt.Errorf("member names %v differ from replay", got.MemberNames)
		}
	}
	if !sameBits([]float64{got.Payoff, got.Value, got.Cost, got.AvgReputation},
		[]float64{final.Payoff, final.Value, final.Cost, final.AvgReputation}) {
		return fmt.Errorf("payoff/value/cost/reputation differ from replay")
	}
	want := make([]int, len(final.Assignment))
	for j, local := range final.Assignment {
		want[j] = final.Members[local]
	}
	if !slices.Equal(got.Assignment, want) {
		return fmt.Errorf("assignment differs from replay")
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// schedule returns n due times at the given rate, in groups of burst
// slots due at the same instant.
func schedule(n int, rate float64, burst int) []time.Duration {
	if burst < 1 {
		burst = 1
	}
	gap := time.Duration(float64(burst) / rate * float64(time.Second))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i/burst) * gap
	}
	return due
}

// servePhase is one open-loop phase against one server: the records, the
// replies of successful slots (raw sync bodies or job statuses), and
// /metrics movement.
type servePhase struct {
	recs    []opRecord
	replies [][]byte
	status  []*server.JobStatusResponse
	spans   []int64
	before  *server.MetricsSnapshot
	after   *server.MetricsSnapshot
}

// sendForm is one sync POST /v1/vo/form.
func sendForm(ctx context.Context, c *client, body []byte) (outcome, []byte) {
	status, data, err := c.do(ctx, http.MethodPost, "/v1/vo/form", body)
	o := classifyHTTP(status, err)
	if o != outcomeOK {
		return o, nil
	}
	return o, data
}

// sendJob is POST /v1/jobs, then GET /v1/jobs/{id}?wait= until the job
// is terminal.
func sendJob(ctx context.Context, c *client, body []byte) (outcome, *server.JobStatusResponse) {
	status, data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if o := classifyHTTP(status, err); o != outcomeOK {
		return o, nil
	}
	var sub server.JobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		return outcomeServerError, nil
	}
	for {
		status, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"?wait=10s", nil)
		if o := classifyHTTP(status, err); o != outcomeOK {
			return o, nil
		}
		var st server.JobStatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			return outcomeServerError, nil
		}
		switch server.JobState(st.State) {
		case server.JobDone, server.JobDegraded:
			if st.Result == nil || st.Result.Partial {
				return outcomePartial, nil
			}
			return outcomeOK, &st
		case server.JobFailed:
			return outcomeServerError, nil
		}
		if ctx.Err() != nil {
			return outcomeTransport, nil
		}
	}
}

// runPhase drives one open-loop phase of the serve workloads.
func runPhase(ctx context.Context, g *gridvod, bodies [][]byte, due []time.Duration, grace time.Duration, jobs bool, tr *tracer) (*servePhase, error) {
	c := newClient(g.base, lanes())
	defer c.close()
	ph := &servePhase{
		replies: make([][]byte, len(due)),
		status:  make([]*server.JobStatusResponse, len(due)),
		spans:   make([]int64, len(due)),
	}
	var err error
	if ph.before, err = c.metrics(ctx); err != nil {
		return nil, err
	}
	loop := openLoop{due: due, lanes: lanes(), grace: grace}
	ph.recs = loop.run(ctx, func(ctx context.Context, i int) outcome {
		var id int64
		if tr != nil {
			id = tr.begin("driver.request", 0, int64(i+1))
		}
		var o outcome
		if jobs {
			var st *server.JobStatusResponse
			o, st = sendJob(ctx, c, bodies[i%len(bodies)])
			ph.status[i] = st
		} else {
			o, ph.replies[i] = sendForm(ctx, c, bodies[i%len(bodies)])
		}
		if tr != nil {
			tr.end(id)
			ph.spans[i] = id
		}
		return o
	})
	if ph.after, err = c.metrics(ctx); err != nil {
		return nil, err
	}
	return ph, nil
}

// serveRun is the shared body of serve-unique and serve-hot.
type serveRun struct {
	rc     *runConfig
	rep    *report
	bodies [][]byte // request body of each slot, cycled when short
	hot    [][]byte // scenarios solved once while setting up
	n      int      // slots per run
	burst  int
	jobs   bool
	warm   bool // keep replay engines across requests, as the server does
	prime  func(g *gridvod) error
}

func (s *serveRun) boot() (*gridvod, error) {
	g, err := bootGridvod(server.Config{})
	if err != nil {
		return nil, err
	}
	if s.prime != nil {
		if err := s.prime(g); err != nil {
			_ = g.stop()
			return nil, err
		}
	}
	return g, nil
}

func (s *serveRun) execute(setups []float64, g *gridvod) error {
	ctx := context.Background()
	sp := s.rc.spec
	limit := time.Duration(sp.LatencyLimitMS * float64(time.Millisecond))
	if !s.rc.trace {
		s.rep.set("setup_s", median(setups))
		due := schedule(s.n, sp.RateRPS, s.burst)
		ph, err := runPhase(ctx, g, s.bodies, due, limit, s.jobs, nil)
		if stopErr := g.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		p, err := s.replayer(ctx)
		if err != nil {
			return err
		}
		s.check(ctx, p, ph, nil)
		ls := summarize(ph.recs, limit)
		ls.setEndToEnd(s.rep, ls.wall)
		return setPeakRSS(s.rep)
	}

	// Traced run: an untraced half, then a traced half of the same
	// schedule on a fresh server, so the two are comparable.
	half := max(s.n/2, 1)
	due := schedule(half, sp.RateRPS, s.burst)
	plain, err := runPhase(ctx, g, s.bodies, due, limit, s.jobs, nil)
	if stopErr := g.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	g2, err := s.boot()
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := runPhase(ctx, g2, s.bodies, due, limit, s.jobs, tr)
	if stopErr := g2.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	p, err := s.replayer(ctx)
	if err != nil {
		return err
	}
	s.check(ctx, p, plain, nil)
	pt, err := s.replayer(ctx)
	if err != nil {
		return err
	}
	rec := &solveRecorder{tr: tr}
	pt.rec, pt.tr = rec, tr
	replays := s.check(ctx, pt, traced, tr)

	ps, ts := summarize(plain.recs, limit), summarize(traced.recs, limit)
	if ps.p50 > 0 {
		s.rep.set("trace.overhead_frac", ts.p50/ps.p50-1)
	}
	ts.setDriver(s.rep)
	s.reportLayers(ctx, tr, rec, traced, replays)
	return finishTrace(tr, s.rep, s.rc.name, s.rc.seed)
}

// replayer returns a replayer whose engines have solved the hot
// scenarios once, as set-up did on the server, so replays see the
// server's cache state.
func (s *serveRun) replayer(ctx context.Context) (*replayer, error) {
	p := &replayer{keep: s.warm, engines: map[uint64]*mechanism.Engine{}}
	for _, b := range s.hot {
		var fr server.FormRequest
		if err := json.Unmarshal(b, &fr); err != nil {
			return nil, err
		}
		sc, err := fr.Scenario.Build(fr.Seed)
		if err != nil {
			return nil, err
		}
		eng := p.engine(mechanism.ScenarioKey(sc), sc)
		opts := mechanism.Options{Engine: eng, Eviction: mechanism.EvictLowestReputation}
		if fr.Rule == "rvof" {
			opts.Eviction = mechanism.EvictRandom
		}
		if _, err := mechanism.RunContext(ctx, eng.Scenario(), opts, xrand.New(fr.Seed)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// check replays every successful slot of a phase and compares the reply
// with the replay; a mismatch turns the slot into a failed check. With a
// tracer the replays run one at a time and each is grafted under its
// request span; without one they run on every CPU.
func (s *serveRun) check(ctx context.Context, p *replayer, ph *servePhase, tr *tracer) []*formReplay {
	replays := make([]*formReplay, len(ph.recs))
	if tr != nil {
		for i := range ph.recs {
			replays[i] = s.checkOne(ctx, p, ph, i, tr)
		}
		return replays
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lanes(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ph.recs); i = int(next.Add(1) - 1) {
				replays[i] = s.checkOne(ctx, p, ph, i, nil)
			}
		}()
	}
	wg.Wait()
	return replays
}

// checkOne replays slot i; it returns nil for a slot that failed.
func (s *serveRun) checkOne(ctx context.Context, p *replayer, ph *servePhase, i int, tr *tracer) *formReplay {
	if ph.recs[i].outcome != outcomeOK {
		return nil
	}
	var root int64
	if tr != nil {
		root = tr.begin("driver.replay", 0, int64(i+1))
	}
	got := &server.FormResponse{}
	var err error
	if st := ph.status[i]; st != nil {
		got = st.Result
	} else if err = json.Unmarshal(ph.replies[i], got); err != nil {
		err = fmt.Errorf("decode reply: %w", err)
	}
	var r *formReplay
	if err == nil {
		r, err = p.replay(ctx, s.bodies[i%len(s.bodies)], got, root, int64(i+1))
	}
	if tr != nil {
		tr.end(root)
	}
	if err != nil {
		s.rep.checkf("slot %d: %v", i, err)
		ph.recs[i].outcome = outcomeCheck
		return nil
	}
	if tr != nil {
		tr.graft(root, ph.spans[i])
		if st := ph.status[i]; st != nil {
			tr.addChild(ph.spans[i], "server.queue", time.Duration(st.QueueMS*float64(time.Millisecond)))
		}
	}
	return r
}

// reportLayers sets the per-layer metrics of a traced serve phase.
func (s *serveRun) reportLayers(ctx context.Context, tr *tracer, rec *solveRecorder, ph *servePhase, replays []*formReplay) {
	var overhead, decode, encode, build, key, queue, run []float64
	var results []*mechanism.Result
	for i, r := range replays {
		if r == nil {
			continue
		}
		overhead = append(overhead, ms(ph.recs[i].service()-r.compute()))
		decode = append(decode, us(r.decode))
		encode = append(encode, us(r.encode))
		build = append(build, us(r.build))
		key = append(key, us(r.key))
		run = append(run, ms(r.run))
		results = append(results, r.res)
		if st := ph.status[i]; st != nil {
			queue = append(queue, st.QueueMS)
		}
	}
	s.rep.set("server.overhead_ms", median(overhead))
	s.rep.set("server.decode_us", median(decode))
	s.rep.set("server.encode_us", median(encode))
	s.rep.set("mechanism.spec_build_us", median(build))
	s.rep.set("mechanism.scenario_key_us", median(key))
	reportRuns(s.rep, results, run, sum(tr.durations("assign.solve")))
	heur := probeHeuristics(ctx, tr, s.rep, rec.solves)
	reportSolves(s.rep, rec.solves, heur)
	if s.jobs {
		var runMS []float64
		for _, st := range ph.status {
			if st != nil {
				runMS = append(runMS, st.RunMS)
			}
		}
		s.rep.set("server.queue_ms", median(queue))
		s.rep.set("server.job_run_ms", median(runMS))
	}
	b, a := ph.before, ph.after
	if sub := a.Jobs.Queued + a.Jobs.Deduped - b.Jobs.Queued - b.Jobs.Deduped; sub > 0 {
		s.rep.set("server.dedupe_frac", float64(a.Jobs.Deduped-b.Jobs.Deduped)/float64(sub))
	}
	if look := a.EngineCache.Hits + a.EngineCache.Misses - b.EngineCache.Hits - b.EngineCache.Misses; look > 0 {
		s.rep.set("server.enginecache_hit_rate", float64(a.EngineCache.Hits-b.EngineCache.Hits)/float64(look))
	}
	s.rep.set("server.shed", float64(a.ShedTotal-b.ShedTotal))
	tr.report(s.rep, "driver.request")
}

// setupServe boots the server and builds the request mix setupRounds
// times, keeping the last, and returns the set-up times.
func setupServe(s *serveRun, mix func() ([][]byte, error)) ([]float64, *gridvod, error) {
	var g *gridvod
	setups := make([]float64, 0, s.rc.setupRounds)
	for i := 0; i < s.rc.setupRounds; i++ {
		if g != nil {
			if err := g.stop(); err != nil {
				return nil, nil, err
			}
			runtime.GC()
		}
		var err error
		d := timed(func() {
			if s.bodies, err = mix(); err == nil {
				g, err = s.boot()
			}
		})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return setups, g, nil
}

// runServeUnique is the serve-unique workload: every slot a distinct
// scenario on the sync path.
func runServeUnique(rc *runConfig, rep *report) error {
	sp := rc.spec
	n := int(sp.RateRPS * rc.seconds.Seconds())
	s := &serveRun{rc: rc, rep: rep, n: n}
	setups, g, err := setupServe(s, func() ([][]byte, error) {
		return formMix(rc.seed, "serve-unique", n, sp.GSPs, sp.Tasks, true)
	})
	if err != nil {
		return err
	}
	return s.execute(setups, g)
}

// runServeHot is the serve-hot workload: bursts over a small hot set on
// the jobs path, with every hot scenario solved once during set-up.
func runServeHot(rc *runConfig, rep *report) error {
	sp := rc.spec
	s := &serveRun{rc: rc, rep: rep, n: int(sp.RateRPS * rc.seconds.Seconds()), burst: sp.Burst, jobs: true, warm: true}
	s.prime = func(g *gridvod) error {
		c := newClient(g.base, 1)
		defer c.close()
		for i, b := range s.hot {
			if o, _ := sendJob(context.Background(), c, b); o != outcomeOK {
				return fmt.Errorf("priming hot scenario %d: %v", i, o)
			}
		}
		return nil
	}
	setups, g, err := setupServe(s, func() ([][]byte, error) {
		// The hot set asks for the API's default rule, TVOF.
		hot, err := formMix(rc.seed, "serve-hot", sp.HotSet, sp.GSPs, sp.Tasks, false)
		if err != nil {
			return nil, err
		}
		s.hot = hot
		// Slot i sends hot[order[i/burst]]: each burst repeats one hot
		// scenario, in a seeded order over the set.
		order := xrand.New(rc.seed).Split("serve-hot-order")
		bodies := make([][]byte, s.n)
		for i := 0; i < s.n; i += max(s.burst, 1) {
			h := hot[order.IntN(len(hot))]
			for j := i; j < min(i+max(s.burst, 1), s.n); j++ {
				bodies[j] = h
			}
		}
		return bodies, nil
	})
	if err != nil {
		return err
	}
	return s.execute(setups, g)
}
