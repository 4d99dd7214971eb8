// Command treejoind serves a treejoin corpus, partitioned into -shards
// parts, over HTTP/JSON: the paper's similarity join and the corpus's
// search/topk/knn queries behind a small endpoint set, with per-query
// deadlines, a bounded in-flight admission gate, snapshot-isolated reads
// (every request pins one epoch with Corpus.Snapshot), and streaming NDJSON
// for the join results. With -store
// the corpus is durable: mutations write through a segment store that
// survives restarts.
//
// Endpoints:
//
//	GET  /healthz                          liveness
//	GET  /stats                            corpus/cache/store statistics
//	GET  /selfjoin?tau=N                   NDJSON pair stream + summary line
//	POST /join     {"trees":[...],"tau":N} NDJSON pair stream + summary line
//	POST /search   {"query":s,"tau":N}     matches within τ of the query
//	POST /topk     {"k":N}                 k closest pairs
//	POST /knn      {"query":s,"k":N}       k nearest trees to the query
//	POST /add      {"trees":[...]}         append trees, returns stable ids
//	POST /remove   {"ids":[...]}           remove by id, returns count
//
// All tree positions on the wire are stable global ids (the ids /add
// returns), never positions — positions shift under removals, ids do not.
// Every request accepts ?deadline_ms= to tighten the server's default
// deadline. Overload answers 429, a degraded store 503, an expired deadline
// 504; malformed requests answer 400 and can never panic the server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"treejoin"
	"treejoin/internal/cli"
)

func main() {
	var (
		addr      = flag.String("addr", ":8765", "listen address")
		shards    = flag.Int("shards", 4, "shard count for the corpus")
		input     = flag.String("input", "", "dataset to load at boot (bracket/newick/binary)")
		format    = flag.String("format", "auto", "input format: bracket, newick, binary, auto")
		store     = flag.String("store", "", "persistent store directory (durable corpus)")
		workers   = flag.Int("workers", 0, "worker goroutines per query (0: all cores)")
		inflight  = flag.Int("max-inflight", 32, "max concurrent queries before 429")
		deadline  = flag.Duration("deadline", 10*time.Second, "default per-query deadline")
		verbosity = flag.Bool("v", false, "log every request")
	)
	flag.Parse()

	sc, lt, err := bootCorpus(*store, *input, *format, *shards)
	if err != nil {
		log.Fatalf("treejoind: %v", err)
	}
	srv := newServer(sc, lt, *workers, *inflight, *deadline)
	srv.logRequests = *verbosity

	hs := &http.Server{Addr: *addr, Handler: srv.routes()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("treejoind: listen: %v", err)
	}
	log.Printf("treejoind: serving %d trees on %d shards at %s", sc.Len(), sc.NumShards(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		log.Printf("treejoind: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("treejoind: shutdown: %v", err)
		}
	case err := <-errCh:
		log.Fatalf("treejoind: serve: %v", err)
	}
	if err := sc.Close(); err != nil {
		log.Fatalf("treejoind: closing store: %v", err)
	}
}

// bootCorpus assembles the corpus the server fronts: persistent when
// storeDir is set (reloading whatever the store holds, then appending the
// input dataset if one is given and the store is empty), in-memory over the
// input dataset otherwise.
func bootCorpus(storeDir, input, format string, shards int) (*treejoin.Corpus, *treejoin.LabelTable, error) {
	if storeDir != "" {
		sc, err := treejoin.OpenSharded(storeDir, shards)
		if err != nil {
			return nil, nil, err
		}
		lt := sc.Labels()
		if lt == nil {
			lt = treejoin.NewLabelTable()
		}
		if input != "" && sc.Len() == 0 {
			ts, _, err := cli.Load(input, format, lt)
			if err != nil {
				sc.Close()
				return nil, nil, err
			}
			if _, err := sc.Add(ts...); err != nil {
				sc.Close()
				return nil, nil, err
			}
		}
		return sc, lt, nil
	}
	var ts []*treejoin.Tree
	lt := treejoin.NewLabelTable()
	if input != "" {
		var err error
		ts, lt, err = cli.Load(input, format, nil)
		if err != nil {
			return nil, nil, err
		}
	}
	sc, err := treejoin.NewSharded(shards, ts)
	if err != nil {
		return nil, nil, err
	}
	return sc, lt, nil
}

// server is the handler state: the corpus, the single label table every
// parse interns into (requests parse concurrently; the table synchronises
// itself), the admission semaphore, and the query defaults.
type server struct {
	sc          *treejoin.Corpus
	lt          *treejoin.LabelTable
	sem         chan struct{}
	deadline    time.Duration
	workers     int
	logRequests bool
}

func newServer(sc *treejoin.Corpus, lt *treejoin.LabelTable, workers, inflight int, deadline time.Duration) *server {
	if inflight < 1 {
		inflight = 1
	}
	if deadline <= 0 {
		deadline = 10 * time.Second
	}
	return &server{
		sc:       sc,
		lt:       lt,
		sem:      make(chan struct{}, inflight),
		deadline: deadline,
		workers:  workers,
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("/selfjoin", s.gated(s.handleSelfJoin))
	mux.HandleFunc("POST /join", s.gated(s.handleJoin))
	mux.HandleFunc("POST /search", s.gated(s.handleSearch))
	mux.HandleFunc("POST /topk", s.gated(s.handleTopK))
	mux.HandleFunc("POST /knn", s.gated(s.handleKNN))
	mux.HandleFunc("POST /add", s.gated(s.handleAdd))
	mux.HandleFunc("POST /remove", s.gated(s.handleRemove))
	return mux
}

// gated wraps a handler with the admission gate and the per-query deadline:
// a full semaphore answers 429 immediately (the server sheds load instead of
// queueing unboundedly), and every admitted request runs under a context
// that expires at the default deadline or the request's ?deadline_ms,
// whichever the client chose.
func (s *server) gated(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			http.Error(w, `{"error":"server at capacity"}`, http.StatusTooManyRequests)
			return
		}
		d := s.deadline
		if ms := r.URL.Query().Get("deadline_ms"); ms != "" {
			v, err := strconv.Atoi(ms)
			if err != nil || v <= 0 {
				http.Error(w, `{"error":"bad deadline_ms"}`, http.StatusBadRequest)
				return
			}
			if dv := time.Duration(v) * time.Millisecond; dv < d {
				d = dv
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		if s.logRequests {
			start := time.Now()
			defer func() { log.Printf("%s %s %v", r.Method, r.URL.Path, time.Since(start)) }()
		}
		h(w, r.WithContext(ctx))
	}
}

// errBadRequest marks errors of the server's own making — unparsable
// bodies, bad parameters, malformed trees — as client mistakes.
var errBadRequest = errors.New("bad request")

// failStatus maps a query error to its HTTP status: client mistakes are
// 4xx, a degraded store 503, an expired deadline 504. Validation sentinels
// cover every error the corpus API returns for bad input, so nothing a
// client sends can surface as a 5xx (or a panic).
func failStatus(err error) int {
	switch {
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client went away; nginx's conventional code
	case errors.Is(err, treejoin.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, treejoin.ErrNegativeThreshold),
		errors.Is(err, treejoin.ErrUnknownMethod),
		errors.Is(err, treejoin.ErrUnknownPrefilter),
		errors.Is(err, treejoin.ErrOptionConflict),
		errors.Is(err, treejoin.ErrNilTree),
		errors.Is(err, treejoin.ErrLabelTable),
		errors.Is(err, treejoin.ErrNilCorpus):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeErr(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(failStatus(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decode reads a JSON request body (capped at 8 MiB) into dst.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: body: %v", errBadRequest, err)
	}
	return nil
}

// parseTrees parses bracket-notation trees into the server's label table,
// with no lock of its own: the table synchronises itself, and a parse touches
// it about once per distinct label.
func (s *server) parseTrees(specs []string) ([]*treejoin.Tree, error) {
	ts := make([]*treejoin.Tree, len(specs))
	for i, spec := range specs {
		t, err := treejoin.ParseBracket(spec, s.lt)
		if err != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", errBadRequest, i, err)
		}
		ts[i] = t
	}
	return ts, nil
}

func (s *server) queryOpts(dst *treejoin.Stats) []treejoin.Option {
	opts := []treejoin.Option{treejoin.WithStats(dst)}
	if s.workers > 0 {
		opts = append(opts, treejoin.WithWorkers(s.workers))
	}
	return opts
}

type wirePair struct {
	I    int `json:"i"`
	J    int `json:"j"`
	Dist int `json:"dist"`
}

type wireMatch struct {
	ID   int `json:"id"`
	Dist int `json:"dist"`
}

type wireSummary struct {
	Results    int64   `json:"results"`
	Candidates int64   `json:"candidates"`
	Trees      int     `json:"trees"`
	CandMs     float64 `json:"cand_ms"`
	VerifyMs   float64 `json:"verify_ms"`
	DPAvoided  int64   `json:"dp_avoided"`
	SeqRejects int64   `json:"seq_rejects"`
	Certified  int64   `json:"certified"`
	Source     string  `json:"source,omitempty"`
}

func summarize(st treejoin.Stats) wireSummary {
	return wireSummary{
		Results:    st.Results,
		Candidates: st.Candidates,
		Trees:      st.Trees,
		CandMs:     float64(st.CandWall.Microseconds()) / 1e3,
		VerifyMs:   float64(st.VerifyTime.Microseconds()) / 1e3,
		DPAvoided:  st.DPAvoided,
		SeqRejects: st.SeqRejects,
		Certified:  st.Certified,
		Source:     st.Source,
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"trees":  s.sc.Len(),
		"epoch":  s.sc.Epoch(),
		"shards": s.sc.NumShards(),
		"cache":  s.sc.CacheStats(),
	}
	if st, ok := s.sc.StoreStats(); ok {
		resp["store"] = st
	}
	writeJSON(w, resp)
}

// handleSelfJoin streams the join: one NDJSON line per result pair as the
// verifiers accept them, then a summary line with the run's statistics — one
// run over every shard's trees. The stream runs on a pinned view, so a
// concurrent /add or /remove never tears the result.
func (s *server) handleSelfJoin(w http.ResponseWriter, r *http.Request) {
	tau, err := strconv.Atoi(r.URL.Query().Get("tau"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: bad tau: %v", errBadRequest, err))
		return
	}
	v := s.sc.Snapshot()
	var stats treejoin.Stats
	seq, err := v.SelfJoinSeq(r.Context(), tau, s.queryOpts(&stats)...)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	n := 0
	for p := range seq {
		enc.Encode(wirePair{I: v.ID(p.I), J: v.ID(p.J), Dist: p.Dist})
		if n++; n%256 == 0 && flusher != nil {
			flusher.Flush()
		}
	}
	if err := r.Context().Err(); err != nil {
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	enc.Encode(map[string]wireSummary{"summary": summarize(stats)})
}

// handleJoin joins the corpus against trees uploaded in the request body;
// pair i is a corpus id, pair j an index into the uploaded list. The corpus
// is the receiver, so the uploaded trees probe its cached index.
func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Trees []string `json:"trees"`
		Tau   int      `json:"tau"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ts, err := s.parseTrees(req.Trees)
	if err != nil {
		writeErr(w, err)
		return
	}
	other, err := treejoin.NewCorpus(ts)
	if err != nil {
		writeErr(w, err)
		return
	}
	v := s.sc.Snapshot()
	pairs, stats, err := v.Join(r.Context(), other, req.Tau, s.queryOpts(nil)...)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, p := range pairs {
		enc.Encode(wirePair{I: v.ID(p.I), J: p.J, Dist: p.Dist})
	}
	enc.Encode(map[string]wireSummary{"summary": summarize(stats)})
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Query string `json:"query"`
		Tau   int    `json:"tau"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	qs, err := s.parseTrees([]string{req.Query})
	if err != nil {
		writeErr(w, err)
		return
	}
	v := s.sc.Snapshot()
	ms, err := v.Search(r.Context(), qs[0], req.Tau, s.queryOpts(nil)...)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]wireMatch, len(ms))
	for i, m := range ms {
		out[i] = wireMatch{ID: v.ID(m.Pos), Dist: m.Dist}
	}
	writeJSON(w, map[string][]wireMatch{"matches": out})
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req struct {
		K int `json:"k"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	v := s.sc.Snapshot()
	pairs, err := v.TopK(r.Context(), req.K, s.queryOpts(nil)...)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]wirePair, len(pairs))
	for i, p := range pairs {
		out[i] = wirePair{I: v.ID(p.I), J: v.ID(p.J), Dist: p.Dist}
	}
	writeJSON(w, map[string][]wirePair{"pairs": out})
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Query string `json:"query"`
		K     int    `json:"k"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	qs, err := s.parseTrees([]string{req.Query})
	if err != nil {
		writeErr(w, err)
		return
	}
	v := s.sc.Snapshot()
	ms, err := v.KNN(r.Context(), qs[0], req.K, s.queryOpts(nil)...)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]wireMatch, len(ms))
	for i, m := range ms {
		out[i] = wireMatch{ID: v.ID(m.Pos), Dist: m.Dist}
	}
	writeJSON(w, map[string][]wireMatch{"matches": out})
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Trees []string `json:"trees"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Trees) == 0 {
		writeJSON(w, map[string][]int{"ids": {}})
		return
	}
	ts, err := s.parseTrees(req.Trees)
	if err != nil {
		writeErr(w, err)
		return
	}
	ids, err := s.sc.Add(ts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, map[string][]int{"ids": ids})
}

func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs []int `json:"ids"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, map[string]int{"removed": s.sc.Remove(req.IDs...)})
}
