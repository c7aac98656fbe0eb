package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/serve"
)

// Served traffic: an open loop, so a stalled daemon keeps receiving
// requests at the scheduled rate and its queue grows, as it would under
// independent users.
const (
	hitRate        = 50.0 // primed-key requests per second
	coldRate       = 3.0  // never-seen-key requests per second
	servedClients  = 4    // distinct X-Client-ID values
	scrapeInterval = time.Second
	requestTimeout = time.Minute
)

// failedLatency stands in for the latency of a failed or refused
// request: it misses any latency limit.
const failedLatency = requestTimeout

// hotPairs are the keys set-up primes: the grid's schemes on every
// workload.
func hotPairs() []experiments.SimPair {
	var pairs []experiments.SimPair
	for _, s := range gridSchemes {
		for _, w := range experiments.Workloads() {
			pairs = append(pairs, experiments.SimPair{Scheme: s, Workload: w})
		}
	}
	return pairs
}

// coldPairs are the keys no request has asked for yet: every other
// scheme on every workload.
func coldPairs() []experiments.SimPair {
	hot := map[string]bool{}
	for _, s := range gridSchemes {
		hot[s] = true
	}
	var pairs []experiments.SimPair
	for _, s := range experiments.SchemeNames() {
		if hot[s] {
			continue
		}
		for _, w := range experiments.Workloads() {
			pairs = append(pairs, experiments.SimPair{Scheme: s, Workload: w})
		}
	}
	return pairs
}

// request is one scheduled /v1/solve call.
type request struct {
	Due      time.Duration // offset from the start of traffic
	Scheme   string
	Workload string
	Client   string
	Cold     bool
}

func (r request) key() string { return r.Scheme + "/" + r.Workload }

// coldOrderSeed fixes the order of the never-seen keys. Which scheme
// builds land close together decides how long hits queue behind cold
// work for compute slots — it moved the hit tail by 2.5x between seeds —
// so every seed meets the same cold sequence and varies only the hits.
const coldOrderSeed = 1

// buildSchedule lays out window's requests from seed alone, before any
// traffic starts, so two commits under test receive identical requests.
// Hits arrive evenly at hitRate on primed keys drawn from seed; cold
// requests arrive evenly at coldRate, each on a distinct never-seen key
// in the fixed coldOrderSeed order (fewer when the window would exhaust
// them); seed also assigns every request its client.
func buildSchedule(seed int64, window time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	hot, cold := hotPairs(), coldPairs()
	secs := window.Seconds()
	nHit := int(hitRate * secs)
	nCold := int(coldRate * secs)
	if nCold > len(cold) {
		nCold = len(cold)
	}
	client := func() string { return fmt.Sprintf("bench-%d", rng.Intn(servedClients)) }
	reqs := make([]request, 0, nHit+nCold)
	for i := 0; i < nHit; i++ {
		p := hot[rng.Intn(len(hot))]
		due := time.Duration((float64(i) + 0.5) / hitRate * float64(time.Second))
		reqs = append(reqs, request{Due: due, Scheme: p.Scheme, Workload: p.Workload, Client: client()})
	}
	perm := rand.New(rand.NewSource(coldOrderSeed)).Perm(len(cold))
	for j := 0; j < nCold; j++ {
		p := cold[perm[j]]
		due := time.Duration((float64(j) + 0.25) * secs / float64(nCold) * float64(time.Second))
		reqs = append(reqs, request{Due: due, Scheme: p.Scheme, Workload: p.Workload, Client: client(), Cold: true})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Due < reqs[j].Due })
	return reqs
}

// timingBackend wraps the daemon's backend and records every Solve
// call, so the HTTP and admission overhead can be told from compute.
type timingBackend struct {
	serve.Backend
	mu    sync.Mutex
	calls []backendCall
}

type backendCall struct {
	key        string
	start, end time.Time
}

func (b *timingBackend) Solve(ctx context.Context, scheme, workload, solver string) (json.RawMessage, error) {
	t0 := time.Now()
	out, err := b.Backend.Solve(ctx, scheme, workload, solver)
	t1 := time.Now()
	b.mu.Lock()
	b.calls = append(b.calls, backendCall{key: scheme + "/" + workload, start: t0, end: t1})
	b.mu.Unlock()
	return out, err
}

func (b *timingBackend) takeCalls() []backendCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.calls
	b.calls = nil
	return c
}

// daemon is an in-process reramd: the obs registry on, default
// admission, the exact solver, servedAccesses per core and the default
// simulation seed.
type daemon struct {
	srv     *serve.Server
	suite   *experiments.Suite
	backend *timingBackend
	base    string
}

// startDaemon starts and primes a daemon; the returned duration is its
// set-up time.
func startDaemon() (*daemon, time.Duration, error) {
	t0 := time.Now()
	obs.SetEnabled(true)
	suite, err := experiments.NewSuite(servedAccesses)
	if err != nil {
		return nil, 0, err
	}
	backend := &timingBackend{Backend: &serve.SuiteBackend{Suite: suite}}
	srv, err := serve.Start(serve.Options{Addr: "127.0.0.1:0", Backend: backend})
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{srv: srv, suite: suite, backend: backend, base: "http://" + srv.Addr()}
	if err := suite.PrimeSims(hotPairs()); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("priming: %w", err)
	}
	srv.SetReady(true)
	return d, time.Since(t0), nil
}

func (d *daemon) close() {
	if err := d.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing daemon: %v\n", err)
	}
}

// setupDaemon starts setupRepeats daemons, recording each set-up time,
// and returns the last one running.
func setupDaemon(rec *recorder) (*daemon, error) {
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		var setup time.Duration
		var err error
		if d, setup, err = startDaemon(); err != nil {
			return nil, err
		}
		rec.sample("setup_s", "s", setup.Seconds())
	}
	return d, nil
}

// reply is the outcome of one scheduled request.
type reply struct {
	req     request
	sent    time.Time
	done    time.Time
	status  int
	err     error // transport error
	badBody error // a 200 whose body is not the requested result
	result  *memsys.Result
}

// session is one pass of a schedule against a daemon.
type session struct {
	start       time.Time
	replies     []reply
	scrapes     []time.Duration
	scrapeFails int
	calls       []backendCall
}

// drive sends sched against d, open loop: each request leaves at its
// due time whatever earlier requests are doing. It scrapes /metrics once
// per scrapeInterval, calling tick (when non-nil) after each scrape,
// waits for every reply, and returns.
func drive(d *daemon, sched []request, tick func()) *session {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: requestTimeout}
	d.backend.takeCalls()

	s := &session{replies: make([]reply, len(sched))}
	var wg sync.WaitGroup
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	s.start = time.Now()
	go func() {
		defer close(scrapeDone)
		t := time.NewTicker(scrapeInterval)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-t.C:
				t0 := time.Now()
				if err := scrape(client, d.base+"/metrics"); err != nil {
					s.scrapeFails++
				} else {
					s.scrapes = append(s.scrapes, time.Since(t0))
				}
				if tick != nil {
					tick()
				}
			}
		}
	}()
	for i, r := range sched {
		if wait := time.Until(s.start.Add(r.Due)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			s.replies[i] = solve(client, d.base, r)
		}(i, r)
	}
	close(stopScrape)
	<-scrapeDone
	wg.Wait()
	s.calls = d.backend.takeCalls()
	return s
}

func scrape(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return nil
}

// solve sends one request and decodes a 200 reply.
func solve(client *http.Client, base string, r request) reply {
	out := reply{req: r}
	body, _ := json.Marshal(map[string]string{"scheme": r.Scheme, "workload": r.Workload})
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Client-ID", r.Client)
	out.sent = time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		out.err = err
		out.done = time.Now()
		return out
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	out.done = time.Now()
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		return out
	}
	var doc struct {
		Scheme   string          `json:"scheme"`
		Workload string          `json:"workload"`
		Result   json.RawMessage `json:"result"`
	}
	var res memsys.Result
	if err := json.Unmarshal(blob, &doc); err == nil {
		err = json.Unmarshal(doc.Result, &res)
	}
	if err != nil || doc.Scheme != r.Scheme || doc.Workload != r.Workload {
		out.badBody = fmt.Errorf("%s: undecodable or mismatched 200 reply: %v", r.key(), err)
		return out
	}
	out.result = &res
	return out
}

// ok reports whether the reply is a decoded 200.
func (r *reply) ok() bool { return r.result != nil }

// latency is the reply's latency from its due time; a failed or
// refused request counts as failedLatency.
func (s *session) latency(r *reply) time.Duration {
	if !r.ok() {
		return failedLatency
	}
	return r.done.Sub(s.start.Add(r.req.Due))
}

// gate checks every 200 reply against the served reference.
func (s *session) gate(ref *reference) error {
	for i := range s.replies {
		r := &s.replies[i]
		if r.badBody != nil {
			return fmt.Errorf("%w: %v", errIncorrect, r.badBody)
		}
		if !r.ok() {
			continue
		}
		want, ok := ref.Served.Cells[r.req.key()]
		if !ok {
			return fmt.Errorf("%w: no served reference for %s", errIncorrect, r.req.key())
		}
		if err := checkCell(r.req.key(), r.result, want, ref.IPCRelTol); err != nil {
			return fmt.Errorf("%w: %v", errIncorrect, err)
		}
	}
	return nil
}

// failures counts non-200 replies, transport errors and failed scrapes.
func (s *session) failures() int {
	n := s.scrapeFails
	for i := range s.replies {
		if !s.replies[i].ok() {
			n++
		}
	}
	return n
}

// count adds the session to the run's attempts and failures.
func (s *session) count(rec *recorder) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.rounds++
	rec.attempted += len(s.replies) + len(s.scrapes) + s.scrapeFails
	rec.failed += s.failures()
}

// record adds the session's end-to-end samples and gates its replies.
func (s *session) record(rec *recorder, ref *reference) error {
	var accesses uint64
	for i := range s.replies {
		r := &s.replies[i]
		rec.sample("result_ms", "ms", ms(s.latency(r)))
		if r.ok() {
			accesses += r.result.Reads + r.result.Writes
		}
	}
	s.count(rec)
	rec.sample("sim_accesses_per_s", "accesses/s", float64(accesses)/s.end().Sub(s.start).Seconds())
	return s.gate(ref)
}

func runServed(cfg *runConfig, rec *recorder) error {
	d, err := setupDaemon(rec)
	if err != nil {
		return err
	}
	defer d.close()
	cfg.heap.take() // set-up is over
	s := drive(d, buildSchedule(cfg.seed, cfg.seconds), func() {
		rec.sample("heap_peak_mb", "MB", cfg.heap.take())
	})
	s.layerFigures(rec) // for the self-describing document
	return s.record(rec, cfg.ref)
}

// layerFigures derives the serve, telemetry and generator figures of a
// session: latency by class, the overhead a hit pays outside the
// backend, cold backend time and concurrency, shed requests, scrape
// time, generator lateness and the backend's share of the CPUs.
func (s *session) layerFigures(rec *recorder) {
	var hitRT, hitLat, coldLat, late []float64
	var shed int
	cold := map[string]bool{}
	for i := range s.replies {
		r := &s.replies[i]
		if r.req.Cold {
			cold[r.req.key()] = true
		}
		if !r.sent.IsZero() {
			late = append(late, ms(r.sent.Sub(s.start.Add(r.req.Due))))
		}
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			shed++
		}
		lat := ms(s.latency(r))
		if r.req.Cold {
			coldLat = append(coldLat, lat)
			continue
		}
		hitLat = append(hitLat, lat)
		if r.ok() {
			hitRT = append(hitRT, float64(r.done.Sub(r.sent).Nanoseconds())/1e3)
		}
	}
	var hitBackend, coldBackend []float64
	var coldSpans []interval
	var busy time.Duration
	for _, c := range s.calls {
		d := c.end.Sub(c.start)
		busy += d
		if cold[c.key] {
			coldBackend = append(coldBackend, ms(d))
			coldSpans = append(coldSpans, interval{c.start.UnixNano(), c.end.UnixNano()})
		} else {
			hitBackend = append(hitBackend, float64(d.Nanoseconds())/1e3)
		}
	}
	hp50, _ := percentile(hitLat, 50)
	hp99, _ := percentile(hitLat, 99)
	cp50, _ := percentile(coldLat, 50)
	cp80, _ := percentile(coldLat, 80)
	lp99, _ := percentile(late, 99)
	rec.sample("serve.hit_p50_ms", "ms", hp50)
	rec.sample("serve.hit_p99_ms", "ms", hp99)
	rec.sample("serve.cold_p50_ms", "ms", cp50)
	rec.sample("serve.cold_p80_ms", "ms", cp80)
	rec.sample("serve.hit_overhead_us", "us", median(hitRT)-median(hitBackend))
	rec.sample("serve.backend_cold_ms", "ms", median(coldBackend))
	rec.sample("serve.backend_concurrency", "ratio", concurrency(coldSpans))
	rec.sample("serve.shed", "count", float64(shed))
	rec.sample("telemetry.scrape_ms", "ms", median(durationsMs(s.scrapes)))
	rec.sample("bench.gen_late_ms", "ms", lp99)
	window := s.end().Sub(s.start)
	rec.sample("experiments.parallel_eff", "ratio", busy.Seconds()/(window.Seconds()*float64(runtime.GOMAXPROCS(0))))
}

// end is when the session's last reply arrived.
func (s *session) end() time.Time {
	last := s.start
	for i := range s.replies {
		if s.replies[i].done.After(last) {
			last = s.replies[i].done
		}
	}
	return last
}

// backendTime is the summed backend time of the session.
func (s *session) backendTime() time.Duration {
	var t time.Duration
	for _, c := range s.calls {
		t += c.end.Sub(c.start)
	}
	return t
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
