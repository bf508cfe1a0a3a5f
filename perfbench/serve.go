package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uplan/internal/campaign"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/serve"
	"uplan/internal/serve/serveclient"
	"uplan/internal/sqlancer"
)

// The service workloads' fixed traffic shape.
const (
	// One request in batchEvery is a batch of batchRecords records; one in
	// binaryEvery uses the binary wire. Both are placed by the seed within
	// each block of batchEvery requests, so the ratios hold exactly.
	batchEvery   = 20
	batchRecords = 32
	binaryEvery  = 4
	// connections bounds both the load generator's sending goroutines
	// and its HTTP connections.
	connections = 2
	// latencyLimit is the single-convert p99 a ladder rung must stay
	// within. On two cores a batch occupies both for about 4 ms and a
	// single convert that arrives meanwhile waits for it, which puts the
	// p99 at 2-10 ms well below the knee; past the knee it exceeds 20 ms
	// within a second. backlogLimit is how late the rung's last requests
	// may go out, and how late the generator itself may send before a
	// rung is marked invalid instead of slow.
	latencyLimit = 20 * time.Millisecond
	backlogLimit = 10 * time.Millisecond
	// abortLag stops a rung whose backlog has clearly grown.
	abortLag = 250 * time.Millisecond
	// hotSetSize is serve-hot's working set: each input can be cached
	// once per wire format, 2 x 200 entries, well under the default
	// 1024-entry response cache. Draws follow a Zipf law with exponent
	// zipfS.
	hotSetSize = 200
	zipfS      = 1.1
	// warmupRequests are sent closed-loop before anything is timed.
	warmupRequests = 2000
	// requestTimeout bounds one call; a timed-out call is a failure.
	requestTimeout = 2 * time.Second
	// closedLoopRate sizes the requests drawn for a closed-loop section:
	// above the two-connection throughput measured on serve-miss.
	closedLoopRate = 6000
	// tailWindow is how many consecutive single converts one p99 is taken
	// over; a rung's p99 is the median of its windows' (see windowTail).
	tailWindow = 1000
)

// rung is one step of the open-loop ladder: a fixed offered rate held
// for a fixed time.
type rung struct {
	rate float64
	dur  time.Duration
}

// ladderRates are the offered rates (requests/s) of each workload's
// ladder; the first is the reference rung the latency metrics are taken
// at. The upper rungs bracket the knees measured on two CPUs.
var ladderRates = map[string][]float64{
	"serve-miss": {1000, 3600, 4200, 4800, 5400, 6000},
	"serve-hot":  {1000, 4800, 5600, 6400, 7200, 8000},
}

// The measured section is split: 40% at the reference rung, 25% over the
// upper rungs, and the rest for the closed-loop saturation run.
func saturationTime(total time.Duration) time.Duration { return total * 35 / 100 }

// ladder returns the workload's rungs and their durations.
func ladder(workload string, total time.Duration) []rung {
	rates := ladderRates[workload]
	out := []rung{{rates[0], total * 40 / 100}}
	upper := total * 25 / 100 / time.Duration(len(rates)-1)
	for _, r := range rates[1:] {
		out = append(out, rung{r, upper})
	}
	return out
}

// input is one native EXPLAIN text and the reference its responses are
// checked against, computed at set-up through convert and core.
type input struct {
	dialect, text string
	format        explain.Format
	fp            [32]byte
	fp64          uint64
	jsonHash      uint64 // FNV-64 of the plan's JSON as the service encodes it
}

// genPool generates n distinct native EXPLAIN texts: sqlancer queries
// explained by all nine engines in every non-graph format each supports
// (paper Table III), the same number of queries per engine. The engines
// run in parallel on the available CPUs; the pool is shuffled by the
// seed.
func genPool(seed int64, n int) ([]input, error) {
	names := dbms.Names()
	srcs := make([]*poolSource, len(names))
	perQuery := 0
	for i, name := range names {
		srcs[i] = &poolSource{name: name, seen: map[uint64]struct{}{}}
		for _, f := range dbms.Formats[name] {
			if f != explain.FormatGraph {
				srcs[i].formats = append(srcs[i].formats, f)
			}
		}
		perQuery += len(srcs[i].formats)
	}
	def := campaign.DefaultOptions()
	err := parallel(len(srcs), func(i int) error {
		s := srcs[i]
		e, err := dbms.New(s.name)
		if err != nil {
			return err
		}
		s.e, s.gen = e, sqlancer.New(oracle.DeriveSeed(seed, s.name, "serve"))
		return oracle.ApplySchema(e, s.gen, def.Tables, def.Rows)
	})
	for have := 0; err == nil && have < n; {
		queries := (n-have)/perQuery + 1
		err = parallel(len(srcs), func(i int) error { srcs[i].explain(queries); return nil })
		before := have
		have = 0
		for _, s := range srcs {
			have += len(s.out)
		}
		if have == before {
			err = fmt.Errorf("the engines stopped producing new EXPLAIN texts at %d of %d", have, n)
		}
	}
	if err != nil {
		return nil, err
	}
	var pool []input
	for _, s := range srcs {
		pool = append(pool, s.out...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n], nil
}

// poolSource is one engine's share of the input pool.
type poolSource struct {
	name    string
	formats []explain.Format
	e       *dbms.Engine
	gen     *sqlancer.Generator
	seen    map[uint64]struct{}
	out     []input
}

// explain adds the distinct texts of the engine's next queries. A query
// the engine cannot plan is skipped, as a real EXPLAIN error would be.
func (s *poolSource) explain(queries int) {
	for q := 0; q < queries; q++ {
		query := s.gen.Query()
		for _, f := range s.formats {
			text, err := s.e.Explain(query, f)
			if err != nil {
				continue
			}
			h := fnv64([]byte(text))
			if _, dup := s.seen[h]; dup {
				continue
			}
			s.seen[h] = struct{}{}
			s.out = append(s.out, input{dialect: s.name, format: f, text: text})
		}
	}
}

// interleaveFormats orders the hot set round-robin over its (dialect,
// format) pairs, so that the Zipf ranks, and with them the traffic share
// of each dialect and format, are the same for every seed; only which
// plans stand for them changes.
func interleaveFormats(pool []input) []input {
	type key struct {
		dialect string
		format  explain.Format
	}
	groups := map[key][]input{}
	var keys []key
	for _, in := range pool {
		k := key{in.dialect, in.format}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], in)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dialect != keys[j].dialect {
			return keys[i].dialect < keys[j].dialect
		}
		return keys[i].format < keys[j].format
	})
	out := make([]input, 0, len(pool))
	for len(out) < len(pool) {
		for _, k := range keys {
			if g := groups[k]; len(g) > 0 {
				out = append(out, g[0])
				groups[k] = g[1:]
			}
		}
	}
	return out
}

// parallel runs fn(0..n-1) on one goroutine per CPU and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reference converts every input once through convert and core and
// stores what a correct response must carry. An input that does not
// convert is an error: every request of the workload must succeed.
func reference(pool []input) error {
	chunk := (len(pool) + runtime.NumCPU() - 1) / runtime.NumCPU()
	return parallel(runtime.NumCPU(), func(w int) error {
		ar := core.NewPlanArena()
		for i := w * chunk; i < min((w+1)*chunk, len(pool)); i++ {
			in := &pool[i]
			ar.Reset()
			p, err := convert.ConvertInto(in.dialect, in.text, ar)
			if err != nil {
				return fmt.Errorf("reference conversion of a %s input: %w", in.dialect, err)
			}
			in.fp = p.FingerprintBytes(core.FingerprintOptions{})
			in.fp64 = p.Fingerprint64(core.FingerprintOptions{})
			js, err := p.MarshalJSON()
			if err != nil {
				return err
			}
			// The service embeds the plan as a json.RawMessage, which the
			// encoder compacts and HTML-escapes.
			wire, err := json.Marshal(json.RawMessage(js))
			if err != nil {
				return err
			}
			in.jsonHash = fnv64(wire)
		}
		return nil
	})
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// poolDigest identifies the input pool: record count, bytes and SHA-256.
func poolDigest(pool []input) (int, int, string) {
	h := sha256.New()
	bytes := 0
	for _, in := range pool {
		h.Write([]byte(in.dialect))
		h.Write([]byte{0})
		h.Write([]byte(in.text))
		h.Write([]byte{0})
		bytes += len(in.text)
	}
	return len(pool), bytes, hex.EncodeToString(h.Sum(nil))
}

// request is one scheduled service call.
type request struct {
	batch, binary bool
	inputs        []int32 // pool indexes: one, or batchRecords for a batch
}

// schedule lays out the requests of a run: kinds placed by the seed
// within each block; single-convert inputs drawn without repetition
// (serve-miss) or from a Zipf-skewed hot set (serve-hot).
type schedule struct {
	rng    *rand.Rand
	hot    bool
	zipf   *rand.Zipf
	cursor int
	pool   int
	block  [batchEvery]uint8
	pos    int
}

func newSchedule(seed int64, hot bool, pool int) *schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s := &schedule{rng: rng, hot: hot, pool: pool, pos: batchEvery}
	if hot {
		s.zipf = rand.NewZipf(rng, zipfS, 1, uint64(hotSetSize-1))
	}
	return s
}

func (s *schedule) draw(batch bool) (int32, bool) {
	switch {
	case batch:
		// Batch responses are never cached, so batch records may repeat:
		// they are drawn uniformly from the whole pool (the hot set, on
		// serve-hot), and a batch costs the same whichever plans the
		// seed made hot.
		return int32(s.rng.Intn(s.pool)), true
	case s.hot:
		return int32(s.zipf.Uint64()), true
	case s.cursor >= s.pool:
		return 0, false
	}
	s.cursor++
	return int32(s.cursor - 1), true
}

// next returns the next request, or false when serve-miss has used up
// its pool.
func (s *schedule) next() (request, bool) {
	if s.pos == batchEvery {
		// Kinds per block: bit 0 = binary, bit 1 = batch.
		for i := range s.block {
			s.block[i] = 0
			if i%binaryEvery == 0 {
				s.block[i] |= 1
			}
		}
		s.block[s.rng.Intn(batchEvery)] |= 2
		s.rng.Shuffle(batchEvery, func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	k := s.block[s.pos]
	s.pos++
	req := request{binary: k&1 != 0, batch: k&2 != 0}
	n := 1
	if req.batch {
		n = batchRecords
	}
	req.inputs = make([]int32, n)
	for i := range req.inputs {
		idx, ok := s.draw(req.batch)
		if !ok {
			return request{}, false
		}
		req.inputs[i] = idx
	}
	return req, true
}

// poolSize is how many distinct inputs a serve-miss run can consume:
// one per single convert if every rung runs to its end, plus the
// warm-up's, plus the closed loop's at up to closedLoopRate requests/s
// (a closed loop that uses up its share ends early). A traced run has two
// one-sender closed loops of a quarter of the section each instead, at
// about half that rate.
func poolSize(rungs []rung, cfg runConfig) int {
	reqs := warmupRequests + closedRequests(saturationTime(cfg.seconds))
	if cfg.trace {
		reqs = warmupRequests + closedRequests(cfg.seconds/4)
	}
	for _, r := range rungs {
		reqs += int(r.rate*r.dur.Seconds()) + 1
	}
	return reqs
}

// serveEnv is a booted service with its inputs and client.
type serveEnv struct {
	pool   []input
	srv    *serve.Server
	base   string
	client *serveclient.Client
	sched  *schedule
	done   chan error
}

func newClient(base string, rt http.RoundTripper) *serveclient.Client {
	hc := &http.Client{Transport: rt, Timeout: requestTimeout}
	return serveclient.New(base, serveclient.Options{HTTPClient: hc, MaxRetries: -1})
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
}

// serveSetup generates and checks the input pool, boots the service on
// a loopback listener and warms it up.
func serveSetup(cfg runConfig, rungs []rung) (*serveEnv, error) {
	hot := cfg.workload == "serve-hot"
	n := hotSetSize
	if !hot {
		n = poolSize(rungs, cfg)
	}
	pool, err := genPool(cfg.seed, n)
	if err != nil {
		return nil, err
	}
	if hot {
		pool = interleaveFormats(pool)
	}
	if err := reference(pool); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Addr: "127.0.0.1:0"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{pool: pool, srv: srv, base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { env.done <- srv.Serve(l) }()
	env.client = newClient(env.base, newTransport())
	env.sched = newSchedule(cfg.seed, hot, len(pool))
	// Warm-up, closed loop on both connections; serve-hot's fills the
	// response cache with the hot set.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var werr error
	reqs := make([]request, 0, warmupRequests)
	for i := 0; i < warmupRequests; i++ {
		req, ok := env.sched.next()
		if !ok {
			return nil, errors.New("input pool too small for the warm-up")
		}
		reqs = append(reqs, req)
	}
	var next atomic.Int64
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := core.NewPlanArena()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				if err := env.do(context.Background(), env.client, reqs[i], ar); err != nil {
					mu.Lock()
					werr = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if werr != nil {
		env.close()
		return nil, fmt.Errorf("warm-up: %w", werr)
	}
	return env, nil
}

func (env *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := env.srv.Drain(ctx)
	if serr := <-env.done; err == nil {
		err = serr
	}
	return err
}

// errWrong marks a response that arrived but carried the wrong plan.
var errWrong = errors.New("response does not match the reference")

// response holds whichever of the four response kinds a request got.
type response struct {
	conv     *serve.ConvertResponse
	bin      *serveclient.BinaryConvertResult
	batch    *serve.BatchResponse
	binBatch *serveclient.BinaryBatchResult
}

// do sends one request and checks its response against the reference.
func (env *serveEnv) do(ctx context.Context, c *serveclient.Client, req request, ar *core.PlanArena) error {
	resp, err := env.call(ctx, c, req, ar)
	if err != nil {
		return err
	}
	return env.check(req, resp)
}

// call sends one request. Binary responses decode into ar.
func (env *serveEnv) call(ctx context.Context, c *serveclient.Client, req request, ar *core.PlanArena) (response, error) {
	var resp response
	var err error
	if !req.batch {
		in := &env.pool[req.inputs[0]]
		if req.binary {
			ar.Reset()
			resp.bin, err = c.ConvertBinary(ctx, in.dialect, in.text, ar)
		} else {
			resp.conv, err = c.Convert(ctx, in.dialect, in.text)
		}
		return resp, err
	}
	recs := make([]serve.ConvertRequest, len(req.inputs))
	for i, idx := range req.inputs {
		recs[i] = serve.ConvertRequest{Dialect: env.pool[idx].dialect, Serialized: env.pool[idx].text}
	}
	if req.binary {
		ar.Reset()
		resp.binBatch, err = c.BatchConvertBinary(ctx, recs, ar)
	} else {
		resp.batch, err = c.BatchConvert(ctx, recs)
	}
	return resp, err
}

// check compares a response with the reference of its inputs: the
// fingerprints of a single convert (and of the decoded plan on the binary
// wire), and every batch slot's plan.
func (env *serveEnv) check(req request, resp response) error {
	pool := env.pool
	in := &pool[req.inputs[0]]
	switch {
	case resp.bin != nil:
		if resp.bin.Fingerprint != in.fp || resp.bin.Fingerprint64 != in.fp64 ||
			resp.bin.Plan.FingerprintBytes(core.FingerprintOptions{}) != in.fp {
			return errWrong
		}
	case resp.conv != nil:
		if resp.conv.Fingerprint != core.HexFingerprint(in.fp) ||
			resp.conv.Fingerprint64 != strconv.FormatUint(in.fp64, 10) || fnv64(resp.conv.Plan) != in.jsonHash {
			return errWrong
		}
	case resp.binBatch != nil:
		if len(resp.binBatch.Results) != len(req.inputs) {
			return errWrong
		}
		for i, it := range resp.binBatch.Results {
			if it.Plan == nil || it.Plan.FingerprintBytes(core.FingerprintOptions{}) != pool[req.inputs[i]].fp {
				return errWrong
			}
		}
	case resp.batch != nil:
		if len(resp.batch.Results) != len(req.inputs) {
			return errWrong
		}
		for i, it := range resp.batch.Results {
			if it.Error != "" || fnv64(it.Plan) != pool[req.inputs[i]].jsonHash {
				return errWrong
			}
		}
	default:
		return errWrong
	}
	return nil
}

// rungResult is what one ladder rung measured.
type rungResult struct {
	rate            float64
	sent, failed    int
	wrong           int
	convert, batch  dist // ms, from each request's scheduled send time
	genLag          dist // ms the generator itself sent late
	lateAtEnd       time.Duration
	aborted         bool
	cpuPerOp        dist // us of process CPU per completed request, per second of the rung
	rt0, rt1        runtimeSample
	queue, inFlight dist
	shed            int64
	hits, misses    int64
	valid, pass     bool
}

// runRung drives one rung open-loop: request i is due at start + i/rate;
// the two senders take requests in order, wait for the due time, and
// time each request from it.
func (env *serveEnv) runRung(rg rung) (*rungResult, error) {
	n := int(rg.rate * rg.dur.Seconds())
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		req, ok := env.sched.next()
		if !ok {
			return nil, errors.New("serve-miss input pool exhausted")
		}
		reqs = append(reqs, req)
	}
	res := &rungResult{rate: rg.rate}
	type rec struct {
		batch    bool
		lat, lag float64
		late     time.Duration
		err      error
	}
	recs := make([]rec, n)
	sent := make([]bool, n)
	interval := float64(time.Second) / rg.rate
	m0 := env.srv.Metrics()
	stop := make(chan struct{})
	var completed atomic.Int64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		lastCPU, lastDone := cpuTime(), int64(0)
		for tick := 1; ; tick++ {
			select {
			case <-stop:
				return
			case <-t.C:
				m := env.srv.Metrics()
				res.queue.add(float64(m.QueueDepth))
				res.inFlight.add(float64(m.InFlight))
				if tick%200 == 0 {
					c, k := cpuTime(), completed.Load()
					if k > lastDone {
						res.cpuPerOp.add(float64((c - lastCPU).Microseconds()) / float64(k-lastDone))
					}
					lastCPU, lastDone = c, k
				}
			}
		}
	}()
	var next atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	res.rt0 = readRuntime()
	start := time.Now().Add(time.Millisecond)
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := core.NewPlanArena()
			for !abort.Load() {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				free := time.Now()
				if free.Before(due) {
					sleepUntil(due)
				}
				at := time.Now()
				err := env.do(context.Background(), env.client, reqs[i], ar)
				done := time.Now()
				from := due
				if free.After(due) {
					from = free
				}
				late := at.Sub(due)
				recs[i] = rec{batch: reqs[i].batch, lat: float64(done.Sub(due)) / 1e6,
					lag: float64(at.Sub(from)) / 1e6, late: late, err: err}
				sent[i] = true
				completed.Add(1)
				if late > abortLag {
					abort.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	res.rt1 = readRuntime()
	close(stop)
	samplerWG.Wait()
	m1 := env.srv.Metrics()
	res.shed = (m1.Shed.Single + m1.Shed.Batch) - (m0.Shed.Single + m0.Shed.Batch)
	res.hits, res.misses = m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	res.aborted = abort.Load()
	for i, r := range recs {
		if !sent[i] {
			continue
		}
		res.sent++
		res.genLag.add(r.lag)
		switch {
		case errors.Is(r.err, errWrong):
			res.wrong++
			res.failed++
		case r.err != nil:
			res.failed++
		case r.batch:
			res.batch.add(r.lat)
		default:
			res.convert.add(r.lat)
		}
	}
	// Backlog: the median lateness of the rung's last tenth of requests.
	var tailLate dist
	for i := n - n/10 - 1; i < n; i++ {
		if i >= 0 && sent[i] {
			tailLate.add(float64(recs[i].late))
		}
	}
	res.lateAtEnd = time.Duration(tailLate.p50())
	lagTail, _ := res.genLag.tail()
	convTail := res.convert.windowTail(tailWindow)
	res.valid = lagTail <= float64(backlogLimit)/1e6
	res.pass = !res.aborted && res.failed == 0 && res.lateAtEnd <= backlogLimit &&
		convTail <= float64(latencyLimit)/1e6
	return res, nil
}

// ladderResult is a whole ladder's outcome.
type ladderResult struct {
	rungs  []*rungResult
	maxRPS float64
}

// runLadder climbs the whole ladder; a rung past the knee ends early once
// its backlog passes abortLag. A rung whose generator fell behind is
// invalid and neither passes nor fails. maxRPS is the highest valid rung
// that passes.
func (env *serveEnv) runLadder(rungs []rung, r *result) (*ladderResult, error) {
	lr := &ladderResult{}
	for _, rg := range rungs {
		rr, err := env.runRung(rg)
		if err != nil {
			return nil, err
		}
		lr.rungs = append(lr.rungs, rr)
		r.attempted += int64(rr.sent)
		r.failed += int64(rr.failed)
		if rr.wrong > 0 {
			r.fail("rung %.0f req/s: %d responses did not match the reference fingerprint", rr.rate, rr.wrong)
		}
		c50, b50 := rr.convert.p50(), rr.batch.p50()
		cTail := rr.convert.windowTail(tailWindow)
		lagTail, _ := rr.genLag.tail()
		status := map[bool]string{true: "pass", false: "FAIL"}[rr.pass]
		if !rr.valid {
			status = "invalid (generator lag)"
		}
		r.note("rung %5.0f req/s: %6d sent, %d failed, convert p50 %.3f ms p99 %.3f ms, batch p50 %.3f ms, gen lag p99 %.3f ms, late at end %.2f ms, cache %d/%d hit, %s",
			rr.rate, rr.sent, rr.failed, c50, cTail, b50, lagTail,
			float64(rr.lateAtEnd)/1e6, rr.hits, rr.hits+rr.misses, status)
		if rr.valid && rr.pass {
			lr.maxRPS = rr.rate
		}
	}
	return lr, nil
}

// runServeWorkload runs serve-miss or serve-hot.
func closedRequests(d time.Duration) int { return int(closedLoopRate * d.Seconds()) }

// runSaturation sends requests back to back from both senders for d, or
// until its share of the schedule runs out, and returns the completed
// requests per second, one figure per whole second.
func (env *serveEnv) runSaturation(d time.Duration, r *result) ([]float64, error) {
	n := closedRequests(d)
	if env.sched.hot {
		n *= 3 // serve-hot uses up no pool, and its cache hits run faster
	}
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		req, ok := env.sched.next()
		if !ok {
			break
		}
		reqs = append(reqs, req)
	}
	var next, completed, failed, wrong atomic.Int64
	stop := make(chan struct{})
	var rates []float64
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		last, lastAt := int64(0), time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				k := completed.Load()
				rates = append(rates, float64(k-last)/now.Sub(lastAt).Seconds())
				last, lastAt = k, now
			}
		}
	}()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := core.NewPlanArena()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				err := env.do(context.Background(), env.client, reqs[i], ar)
				if errors.Is(err, errWrong) {
					wrong.Add(1)
				}
				if err != nil {
					failed.Add(1)
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	tickWG.Wait()
	r.attempted += completed.Load()
	r.failed += failed.Load()
	if wrong.Load() > 0 {
		r.fail("saturation: %d responses did not match the reference fingerprint", wrong.Load())
	}
	if len(rates) == 0 {
		return nil, errors.New("saturation run ended before its first second")
	}
	return rates, nil
}

func runServeWorkload(cfg runConfig) (*result, error) {
	r := newResult()
	rungs := ladder(cfg.workload, cfg.seconds)
	var env *serveEnv
	var setups []float64
	for moreSetups(setups) {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
			env = nil
			runtime.GC()
		}
		t0 := time.Now()
		e, err := serveSetup(cfg, rungs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	r.set("setup_s", median(setups))
	recs, bytes, digest := poolDigest(env.pool)
	r.note("provenance: input pool %d records, %d bytes, sha256:%s", recs, bytes, digest)

	m0 := env.srv.Metrics()
	lr, err := env.runLadder(rungs, r)
	if err != nil {
		env.close()
		return nil, err
	}
	m1 := env.srv.Metrics()
	var rates []float64
	if cfg.trace {
		err = traceServe(cfg, r, env, lr, m0, m1)
	} else {
		rates, err = env.runSaturation(saturationTime(cfg.seconds), r)
	}
	if cerr := env.close(); err == nil && cerr != nil {
		err = fmt.Errorf("draining the service: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return r, nil
	}
	ref := lr.rungs[0]
	if ref.failed > 0 || !ref.pass {
		r.note("reference rung did not pass")
	}
	tail := ref.convert.windowTail(tailWindow)
	r.set("ops_per_s", median(rates))
	r.set("max_rps", lr.maxRPS)
	r.note("saturation, closed loop on %d connections: requests/s per second %s", connections, fmtList(rates, 0))
	r.set("cpu_us_per_op", ref.cpuPerOp.p50())
	r.set("latency_p50_ms", ref.convert.p50())
	r.set("latency_p99_ms", tail)
	r.set("peak_rss_mb", peakRSSMB())
	bTail, bq := ref.batch.tail()
	lagTail, _ := ref.genLag.tail()
	r.note("reference rung %.0f req/s: convert n=%d, p99 = median of the p99s of windows of %d %s ms; batch p50 %.3f ms p%.1f %.3f ms (n=%d); gen lag p99 %.3f ms",
		ref.rate, ref.convert.n(), tailWindow, fmtList(ref.convert.windowTails(tailWindow), 2), ref.batch.p50(), 100*bq, bTail, ref.batch.n(), lagTail)
	if lr.maxRPS == 0 {
		r.note("no rung met the %s convert p99 limit", latencyLimit)
	}
	if m1.Cache.Hits+m1.Cache.Misses > m0.Cache.Hits+m0.Cache.Misses {
		r.note("response cache hit ratio %.4f", float64(m1.Cache.Hits-m0.Cache.Hits)/
			float64(m1.Cache.Hits+m1.Cache.Misses-m0.Cache.Hits-m0.Cache.Misses))
	}
	return r, nil
}
