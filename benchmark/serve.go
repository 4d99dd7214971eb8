package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

const (
	serveShards   = 4
	maxInFlight   = workers // the generator keeps at most nproc connections busy
	searchLimitMs = 50      // a /search answered later than this after its due time misses
	warmUps       = 20      // /search and /knn pairs sent in set-up
	minIdleRounds = 3       // rounds of one fresh server's first join and two repeat joins, however short the run
	idleSearches  = 200     // sequential /search calls before the loop
	checkEvery    = 50      // every 50th /search answer is checked: 2 %
	idleShare     = 0.27    // of --seconds spent on those rounds
	loopShare     = 0.7     // of --seconds spent in the open loop
)

// serveInputs is the serve-mixed data set: the trees the server boots with,
// and the held-out cluster mates that arrive as queries and as adds.
type serveInputs struct {
	boot    []*treejoin.Tree
	queries []string // bracket text
	adds    []string
	file    string // the boot trees as bracket text on disk
}

func genServe(seed int64, n int) (boot []*treejoin.Tree, queries, adds []*treejoin.Tree) {
	// Clusters are 4 consecutive trees: hold out the last tree of every
	// cluster, alternately as a query and as an add.
	boot, held := holdOut(draw(synth.Synthetic(2*n, universeSeed), 4, n, seed), 4)
	for i, t := range held {
		if i%2 == 0 {
			queries = append(queries, t)
		} else {
			adds = append(adds, t)
		}
	}
	return boot, queries, adds
}

// server is a running treejoind child.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://127.0.0.1:port
	boot  time.Duration // exec → first answer
	drain chan struct{} // closed when its stderr is exhausted
}

var listenLine = regexp.MustCompile(`serving \d+ trees on \d+ shards at (\S+)`)

// buildServer compiles cmd/treejoind from the checkout's source.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "treejoind"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/treejoind")
	cmd.Env = childEnv() // its work directory goes under TMPDIR, inside the checkout
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building treejoind: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer boots treejoind over input on a free port and waits until it
// listens: the server logs its address once the corpus is loaded.
func startServer(bin, input string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", fmt.Sprint(serveShards), "-workers", "0", "-input", input)
	cmd.Env = childEnv()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drain: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drain)
		var log []string
		listening := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil && !listening {
				listening = true
				addr <- m[1]
			}
			log = append(log, sc.Text())
		}
		if !listening { // exited without ever listening: show why
			fmt.Fprintln(os.Stderr, strings.Join(log, "\n"))
			addr <- ""
		}
	}()
	select {
	case a := <-addr:
		if a == "" {
			cmd.Wait()
			return nil, fmt.Errorf("treejoind exited before listening")
		}
		s.base = "http://" + a
		// The server logs its address before it installs its signal handler
		// and starts serving; an answer proves it has done both.
		for {
			resp, err := http.Get(s.base + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Since(t0) > 60*time.Second {
				s.stop()
				return nil, fmt.Errorf("treejoind listens but does not answer: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		s.boot = time.Since(t0)
		return s, nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-s.drain // Wait closes the pipe the scanner reads from
		cmd.Wait()
		return nil, fmt.Errorf("treejoind did not listen within 60 s")
	}
}

// stop asks the server to drain and exit, waits for it, and returns its peak
// resident set.
func (s *server) stop() (float64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	<-s.drain
	if err := s.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("treejoind: %w", err)
	}
	return maxRSSMB(s.cmd), nil
}

type wireMatch struct {
	ID   int `json:"id"`
	Dist int `json:"dist"`
}

// client talks to one server over at most maxInFlight connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: maxInFlight, MaxIdleConnsPerHost: maxInFlight},
	}}
}

// do sends one request and reads the answer to its last byte.
func (c *client) do(path string, body any) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = c.hc.Get(c.base + path)
	} else {
		blob, merr := json.Marshal(body)
		if merr != nil {
			return 0, nil, merr
		}
		resp, err = c.hc.Post(c.base+path, "application/json", bytes.NewReader(blob))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) send(op opKind, payload string, id int) (int, []byte, error) {
	switch op {
	case opSearch:
		return c.do("/search", map[string]any{"query": payload, "tau": serveTau})
	case opKNN:
		return c.do("/knn", map[string]any{"query": payload, "k": serveK})
	case opAdd:
		return c.do("/add", map[string]any{"trees": []string{payload}})
	case opRemove:
		return c.do("/remove", map[string]any{"ids": []int{id}})
	default:
		return c.do(fmt.Sprintf("/selfjoin?tau=%d", serveTau), nil)
	}
}

// parseJoin decodes a /selfjoin NDJSON stream into a sorted pair list. The
// stream must end in a summary line; an error line means the join was cut.
func parseJoin(data []byte) ([]treejoin.Pair, error) {
	var pairs []treejoin.Pair
	summary := false
	for _, l := range bytes.Split(bytes.TrimSpace(data), []byte{'\n'}) {
		var row struct {
			I, J, Dist int
			Summary    *struct{}
			Error      string
		}
		if err := json.Unmarshal(l, &row); err != nil {
			return nil, err
		}
		switch {
		case row.Error != "":
			return nil, fmt.Errorf("server: %s", row.Error)
		case row.Summary != nil:
			summary = true
		default:
			pairs = append(pairs, treejoin.Pair{I: row.I, J: row.J, Dist: row.Dist})
		}
	}
	if !summary {
		return nil, fmt.Errorf("stream ended without a summary line")
	}
	sortPairs(pairs)
	return pairs, nil
}

func parseMatches(data []byte) ([]wireMatch, error) {
	var resp struct{ Matches []wireMatch }
	err := json.Unmarshal(data, &resp)
	return resp.Matches, err
}

// sample is one request of the open loop as the generator saw it. Times are
// offsets from the start of the loop.
type sample struct {
	op              opKind
	arg             int
	due, sent, done time.Duration
	status          int
	body            []byte // kept only for the answers that get checked
}

func (s sample) ok() bool { return s.status == http.StatusOK }

// latencyMs is the time a user waited: from when the request was due, not
// from when the generator got round to sending it.
func (s sample) latencyMs() float64 { return float64(s.done-s.due) / 1e6 }

// openLoop plays the schedule against the server: maxInFlight senders take
// the arrivals in due order, wait for each one's due time, and record when
// it was sent and answered. Every 50th /search answer is kept for checking.
func (c *client) openLoop(sched []request, in serveInputs, rec *recorder) []sample {
	samples := make([]sample, len(sched))
	addIDs := make([]atomic.Int64, len(in.adds))
	for i := range addIDs {
		addIDs[i].Store(-1)
	}
	var next, searches atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				rq := sched[i]
				time.Sleep(time.Until(start.Add(rq.due)))
				s := sample{op: rq.op, arg: rq.arg, due: rq.due, sent: time.Since(start)}
				id := rec.begin(opNames[rq.op], -1, i)
				var payload string
				target := 0
				switch rq.op {
				case opSearch, opKNN:
					payload = in.queries[rq.arg]
				case opAdd:
					payload = in.adds[rq.arg]
				case opRemove:
					target = int(addIDs[rq.arg].Load())
				}
				var data []byte
				if target >= 0 { // a remove whose add was never acked cannot be sent: it stays failed
					var err error
					if s.status, data, err = c.send(rq.op, payload, target); err != nil {
						s.status = 0
					}
				}
				s.done = time.Since(start)
				rec.end(id, map[string]float64{"status": float64(s.status), "lag_ms": float64(s.sent-s.due) / 1e6})
				switch {
				case !s.ok():
				case rq.op == opAdd:
					var resp struct{ IDs []int }
					if json.Unmarshal(data, &resp) == nil && len(resp.IDs) == 1 {
						addIDs[rq.arg].Store(int64(resp.IDs[0]))
					} else {
						s.status = 0
					}
				case rq.op == opSearch && searches.Add(1)%checkEvery == 0, rq.op == opSelfJoin:
					s.body = data
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

// benchServe runs the serve-mixed workload.
func benchServe(o runOpts, dir string, d *runData) error {
	ctx := context.Background()
	r, ck := d.r, &d.ck
	var (
		in    serveInputs
		srv   *server
		bin   string           // the treejoind binary set-up built
		cp    *treejoin.Corpus // the in-process twin of the boot corpus
		want  []treejoin.Pair  // its τ=2 self-join
		boots []float64
		cli   *client // to the server the idle phase and the loop run against
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	setupS, err := timeSetup(func(rep int) error {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return err
			}
			srv = nil
		}
		boot, queries, adds := genServe(o.seed, serveTrees)
		in = serveInputs{boot: boot, file: filepath.Join(dir, "boot.txt")}
		for _, t := range queries {
			in.queries = append(in.queries, treejoin.FormatBracket(t))
		}
		for _, t := range adds {
			in.adds = append(in.adds, treejoin.FormatBracket(t))
		}
		if err := os.WriteFile(in.file, bracketText(boot), 0o644); err != nil {
			return err
		}
		var err error
		if bin, err = buildServer(); err != nil {
			return err
		}
		if srv, err = startServer(bin, in.file); err != nil {
			return err
		}
		boots = append(boots, srv.boot.Seconds())
		cli = newClient(srv.base)
		// Warm-up: read-only, so the boot corpus stays as generated.
		for i := 0; i < warmUps; i++ {
			for _, op := range []opKind{opSearch, opKNN} {
				if st, _, err := cli.send(op, in.queries[i%len(in.queries)], 0); err != nil || st != http.StatusOK {
					return fmt.Errorf("warm-up %s: status %d: %v", opNames[op], st, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	phase := time.Now()
	within := func(share float64) bool { return time.Since(phase).Seconds() < share*o.seconds }

	// The reference answer: the same join in-process over the boot trees. It
	// is the checker's work, not the system's, so set-up does not repeat it.
	if cp, err = treejoin.NewCorpus(in.boot); err != nil {
		return err
	}
	if want, _, err = cp.SelfJoin(ctx, serveTau, treejoin.WithWorkers(workers)); err != nil {
		return err
	}

	d.digest = pairsDigest(want)
	// timedJoin sends one /selfjoin, checks its pairs and returns its wall time.
	timedJoin := func(c *client, what string, i int) float64 {
		id := rec.begin(what+" selfjoin", -1, i)
		t0 := time.Now()
		st, data, err := c.send(opSelfJoin, "", 0)
		s := time.Since(t0).Seconds()
		rec.end(id, map[string]float64{"status": float64(st)})
		pairs, perr := parseJoin(data)
		ck.expect(err == nil && st == http.StatusOK && perr == nil && pairsDigest(pairs) == d.digest,
			"%s /selfjoin %d: status %d, %v, %v, or pairs differ from the in-process join", what, i, st, err, perr)
		return s
	}

	// Idle phase: sequential requests, nothing else running. Each round is
	// what a restart costs (exec → corpus loaded and listening, then the first
	// /selfjoin, which finds none of the shards' join artifacts built) and two
	// repeat joins on the server that has been up since set-up; taking them in
	// turns gives both medians the whole phase to average the host over.
	var coldJoinS, idleJoinS, idleSearchMs []float64
	phase = time.Now()
	for i := 0; i < minIdleRounds || within(idleShare); i++ {
		id := rec.begin("boot", -1, i)
		extra, err := startServer(bin, in.file)
		if err != nil {
			return err
		}
		rec.end(id, nil)
		boots = append(boots, extra.boot.Seconds())
		coldJoinS = append(coldJoinS, timedJoin(newClient(extra.base), "cold", i))
		if _, err := extra.stop(); err != nil {
			return err
		}
		idleJoinS = append(idleJoinS, timedJoin(cli, "idle", 2*i), timedJoin(cli, "idle", 2*i+1))
	}
	for i := 0; i < idleSearches; i++ {
		id := rec.begin("idle search", -1, i)
		t0 := time.Now()
		st, _, err := cli.send(opSearch, in.queries[i%len(in.queries)], 0)
		idleSearchMs = append(idleSearchMs, msSince(t0))
		rec.end(id, map[string]float64{"status": float64(st)})
		ck.expect(err == nil && st == http.StatusOK, "idle /search %d: status %d, %v", i, st, err)
	}

	// The open loop.
	loop := time.Duration(loopShare * o.seconds * float64(time.Second))
	sched := schedule(o.seed, loop, len(in.queries))
	samples := cli.openLoop(sched, in, rec)

	rss, err := srv.stop()
	srv = nil
	if err != nil {
		return err
	}

	if err := serveMetrics(ctx, samples, in, cp, loop, r, ck); err != nil {
		return err
	}
	r.set("setup_s", setupS, setupReps)
	r.set("join_cold_s", median(coldJoinS), len(coldJoinS))
	r.set("join_warm_s", median(idleJoinS), len(idleJoinS))
	r.set("ingest_trees_per_s", float64(len(in.boot))/median(boots), len(boots))
	r.set("peak_rss_mb", rss, 0)
	if !o.trace {
		return nil
	}

	// Per-layer: the HTTP layer's cost is the idle sequential median minus
	// the same calls made in-process on a sharded corpus over the same trees.
	queries := make([]*treejoin.Tree, len(in.queries))
	for i, q := range in.queries {
		if queries[i], err = treejoin.ParseBracket(q, cp.Labels()); err != nil {
			return err
		}
	}
	var twinS []float64 // warm in-process SelfJoin wall on the twin
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, _, err := cp.SelfJoin(ctx, serveTau, treejoin.WithWorkers(workers)); err != nil {
			return err
		}
		twinS = append(twinS, time.Since(t0).Seconds())
	}
	shardedJoinS, err := shardedProbes(ctx, rec, in.boot, queries, serveTau, []treejoin.Option{treejoin.WithWorkers(workers)}, d.digest, median(twinS), r, ck)
	if err != nil {
		return err
	}
	r.set("treejoind.search_overhead_us", median(idleSearchMs)*1e3-r["sharded.search_us"].V, len(idleSearchMs))
	r.set("treejoind.selfjoin_stream_ms", (median(idleJoinS)-shardedJoinS)*1e3, len(idleJoinS))

	text, err := os.ReadFile(in.file)
	if err != nil {
		return err
	}
	parseNs, parsed, err := parseProbe(text)
	if err != nil {
		return err
	}
	r.set("tree.parse_ns_per_node", parseNs, parsed)

	var inproc []float64
	for i := 0; i < idleSearches; i++ {
		t0 := time.Now()
		if _, err := cp.Search(ctx, queries[i%len(queries)], serveTau); err != nil {
			return err
		}
		inproc = append(inproc, msSince(t0)*1e3)
	}
	r.set("core.search_us", median(inproc), len(inproc))

	spans := rec.all()
	d.traces = append(d.traces, processSpans{Process: "serve-mixed load generator", SelfS: selfByName(spans), Spans: spans})
	return nil
}

// serveMetrics turns the generator's log into the workload's metrics and
// checks the kept answers.
func serveMetrics(ctx context.Context, samples []sample, in serveInputs, cp *treejoin.Corpus, loop time.Duration, r readings, ck *checks) error {
	var search, quiet, knn, mutate, join, lagMs []float64
	var joins []sample
	nSearch, within, interfered, completed := 0, 0, 0, 0
	status := map[int]int{}
	for _, s := range samples {
		if s.op == opSelfJoin {
			joins = append(joins, s)
		}
	}
	inJoin := func(t time.Duration) bool {
		for _, j := range joins {
			if t >= j.sent && t <= j.done {
				return true
			}
		}
		return false
	}
	for i, s := range samples {
		status[s.status]++
		if s.op == opSearch {
			nSearch++
		}
		if !s.ok() {
			ck.fail("request %d (%s, due %v): status %d", i, opNames[s.op], s.due, s.status)
			continue
		}
		ck.ok(1)
		completed++
		if !inJoin(s.due) {
			lagMs = append(lagMs, float64(s.sent-s.due)/1e6)
		}
		switch s.op {
		case opSearch:
			search = append(search, s.latencyMs())
			if s.latencyMs() <= searchLimitMs {
				within++
			}
			if inJoin(s.due) {
				interfered++
			} else {
				quiet = append(quiet, s.latencyMs())
			}
		case opKNN:
			knn = append(knn, s.latencyMs())
		case opAdd, opRemove:
			mutate = append(mutate, s.latencyMs())
		case opSelfJoin:
			join = append(join, s.latencyMs())
			_, err := parseJoin(s.body)
			ck.expect(err == nil, "/selfjoin under load, due %v: %v", s.due, err)
		}
	}

	// Boot trees are never removed, so a /search answer restricted to boot
	// ids is the same at every epoch: the in-process answer over the boot
	// corpus, where position equals id.
	lt := cp.Labels()
	for i, s := range samples {
		if s.op != opSearch || s.body == nil {
			continue
		}
		got, err := parseMatches(s.body)
		if err != nil {
			ck.fail("request %d: decoding /search answer: %v", i, err)
			continue
		}
		q, err := treejoin.ParseBracket(in.queries[s.arg], lt)
		if err != nil {
			return err
		}
		want, err := cp.Search(ctx, q, serveTau)
		if err != nil {
			return err
		}
		var gotBoot []treejoin.Match
		for _, m := range got {
			if m.ID < len(in.boot) {
				gotBoot = append(gotBoot, treejoin.Match{Pos: m.ID, Dist: m.Dist})
			}
		}
		ck.expect(slices.Equal(gotBoot, want), "request %d: /search answer over boot ids differs from the in-process answer", i)
	}

	if len(search) == 0 || len(knn) == 0 || len(join) == 0 {
		return fmt.Errorf("open loop of %v completed %d searches, %d knn and %d joins: run longer", loop, len(search), len(knn), len(join))
	}
	r.set("serve.search_p50_ms", median(search), len(search))
	r.set("serve.selfjoin_p50_ms", median(join), len(join))
	r.set("serve.knn_p50_ms", median(knn), len(knn))
	for _, t := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"serve.search_p99_ms", search, 0.99},
		{"serve.search_p99_quiet_ms", quiet, 0.99},
		{"serve.knn_p90_ms", knn, 0.90},
		{"serve.mutate_p90_ms", mutate, 0.90},
		{"loadgen.lag_p99_ms", lagMs, 0.99},
	} {
		r.set(t.name, tail(t.xs, t.p), len(t.xs))
	}
	r.set("serve.search_within_limit", float64(within)/float64(nSearch), nSearch)
	r.set("serve.search_interfered_share", float64(interfered)/float64(len(search)), len(search))
	r.set("loadgen.achieved_rps", float64(completed)/loop.Seconds(), len(samples))
	r.set("treejoind.status_429", float64(status[http.StatusTooManyRequests]), len(samples))
	r.set("treejoind.status_504", float64(status[http.StatusGatewayTimeout]), len(samples))
	n5xx := 0
	for st, n := range status {
		if st >= 500 && st != http.StatusGatewayTimeout {
			n5xx += n
		}
	}
	r.set("treejoind.status_5xx", float64(n5xx), len(samples))
	return nil
}
