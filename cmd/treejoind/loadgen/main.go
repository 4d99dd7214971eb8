// Command loadgen drives a running treejoind with concurrent mixed
// read/mutate traffic and reports latency percentiles and throughput. It is
// the serving benchmark behind the CI serve-smoke job:
// N clients issue a weighted mix of search, knn, selfjoin, topk, add, and
// remove requests for the configured duration, every 5xx or transport error
// counts as a failure, and the run exits non-zero if any occurred (or if
// -require-results saw no results at all, which would mean the benchmark
// exercised nothing).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

type sample struct {
	op string
	d  time.Duration
}

type result struct {
	samples  []sample
	statuses map[int]int64
	errors   []string
	results  int64 // result rows observed (matches, pairs)
	added    []int // ids this client added and may later remove
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8765", "treejoind base URL")
		clients  = flag.Int("clients", 8, "concurrent clients")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		tau      = flag.Int("tau", 2, "threshold for search/selfjoin traffic")
		out      = flag.String("out", "", "write the JSON report here (default stdout only)")
		require  = flag.Bool("require-results", false, "fail unless some query returned results")
		seed     = flag.Int64("seed", 1, "traffic seed; match the dataset's -seed so queries land near corpus trees")
	)
	flag.Parse()

	// Wait for the server to come up (CI races the boot).
	hc := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(*addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Now().After(deadline) {
			log.Fatalf("loadgen: server at %s never became healthy: %v", *addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The query/add pool shares the dataset generator and seed: queries are
	// then corpus members or their near-duplicate cluster mates, so KNN's
	// expanding search terminates at small τ instead of sweeping to the size
	// cap against an unrelated tree.
	pool := synth.Synthetic(128, *seed)
	results := make([]*result, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(*duration)
	for c := 0; c < *clients; c++ {
		results[c] = &result{statuses: make(map[int]int64)}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(hc, *addr, *tau, pool, rand.New(rand.NewSource(*seed+int64(c))), stop, results[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report, failures := buildReport(results, elapsed, *clients, *tau)
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("loadgen: writing %s: %v", *out, err)
		}
	}
	if failures > 0 {
		log.Fatalf("loadgen: %d failed requests (5xx or transport errors)", failures)
	}
	if *require && report.Results == 0 {
		log.Fatalf("loadgen: -require-results set but no query returned any results")
	}
}

// runClient issues the weighted op mix until the stop time.
func runClient(hc *http.Client, addr string, tau int, pool []*treejoin.Tree, rng *rand.Rand, stop time.Time, res *result) {
	for time.Now().Before(stop) {
		t := pool[rng.Intn(len(pool))]
		spec := treejoin.FormatBracket(t)
		var op string
		var status int
		var rows int64
		var lat time.Duration
		var err error
		switch p := rng.Intn(100); {
		case p < 40:
			op = "search"
			status, rows, lat, err = postQuery(hc, addr+"/search", map[string]any{"query": spec, "tau": tau}, "matches")
		case p < 65:
			op = "knn"
			status, rows, lat, err = postQuery(hc, addr+"/knn", map[string]any{"query": spec, "k": 3}, "matches")
		case p < 75:
			op = "selfjoin"
			status, rows, lat, err = getNDJSON(hc, fmt.Sprintf("%s/selfjoin?tau=%d", addr, tau))
		case p < 80:
			op = "topk"
			status, rows, lat, err = postQuery(hc, addr+"/topk", map[string]any{"k": 5}, "pairs")
		case p < 95:
			op = "add"
			var ids []int
			status, ids, lat, err = postAdd(hc, addr+"/add", []string{spec})
			res.added = append(res.added, ids...)
			rows = int64(len(ids))
		default:
			op = "remove"
			if len(res.added) == 0 {
				continue
			}
			id := res.added[0]
			res.added = res.added[1:]
			status, _, lat, err = postQuery(hc, addr+"/remove", map[string]any{"ids": []int{id}}, "")
		}
		if err != nil {
			res.errors = append(res.errors, fmt.Sprintf("%s: %v", op, err))
			continue
		}
		res.statuses[status]++
		res.results += rows
		res.samples = append(res.samples, sample{op: op, d: lat})
	}
}

func postQuery(hc *http.Client, url string, body map[string]any, listKey string) (int, int64, time.Duration, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, 0, time.Since(start), err
	}
	defer resp.Body.Close()
	var rows int64
	if listKey != "" && resp.StatusCode == 200 {
		var parsed map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&parsed); err == nil {
			var list []json.RawMessage
			if json.Unmarshal(parsed[listKey], &list) == nil {
				rows = int64(len(list))
			}
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, rows, time.Since(start), nil
}

func postAdd(hc *http.Client, url string, trees []string) (int, []int, time.Duration, error) {
	blob, _ := json.Marshal(map[string]any{"trees": trees})
	start := time.Now()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer resp.Body.Close()
	var parsed struct {
		IDs []int `json:"ids"`
	}
	if resp.StatusCode == 200 {
		json.NewDecoder(resp.Body).Decode(&parsed)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, parsed.IDs, time.Since(start), nil
}

func getNDJSON(hc *http.Client, url string) (int, int64, time.Duration, error) {
	start := time.Now()
	resp, err := hc.Get(url)
	if err != nil {
		return 0, 0, time.Since(start), err
	}
	defer resp.Body.Close()
	var rows int64
	if resp.StatusCode == 200 {
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			for _, b := range buf[:n] {
				if b == '\n' {
					rows++
				}
			}
			if err != nil {
				break
			}
		}
		if rows > 0 {
			rows-- // the summary line is not a result row
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, rows, time.Since(start), nil
}

// Report is the JSON shape -out writes.
type Report struct {
	Clients   int                 `json:"clients"`
	Tau       int                 `json:"tau"`
	Duration  string              `json:"duration"`
	Requests  int64               `json:"requests"`
	QPS       float64             `json:"qps"`
	Results   int64               `json:"results"`
	P50Ms     float64             `json:"p50_ms"`
	P99Ms     float64             `json:"p99_ms"`
	Statuses  map[string]int64    `json:"statuses"`
	Failures  int64               `json:"failures"`
	Errors    []string            `json:"errors,omitempty"`
	PerOp     map[string]OpReport `json:"per_op"`
	Timestamp string              `json:"timestamp"`
}

type OpReport struct {
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

func buildReport(results []*result, elapsed time.Duration, clients, tau int) (Report, int64) {
	var all []sample
	statuses := make(map[string]int64)
	var failures, rows int64
	var errs []string
	for _, r := range results {
		all = append(all, r.samples...)
		for code, n := range r.statuses {
			statuses[fmt.Sprintf("%d", code)] += n
			if code >= 500 {
				failures += n
			}
		}
		rows += r.results
		errs = append(errs, r.errors...)
	}
	failures += int64(len(errs))
	if len(errs) > 8 {
		errs = errs[:8]
	}
	perOp := make(map[string]OpReport)
	byOp := make(map[string][]time.Duration)
	var lats []time.Duration
	for _, s := range all {
		byOp[s.op] = append(byOp[s.op], s.d)
		lats = append(lats, s.d)
	}
	for op, ds := range byOp {
		perOp[op] = OpReport{Requests: int64(len(ds)), P50Ms: pctMs(ds, 50), P99Ms: pctMs(ds, 99)}
	}
	return Report{
		Clients:   clients,
		Tau:       tau,
		Duration:  elapsed.Round(time.Millisecond).String(),
		Requests:  int64(len(all)),
		QPS:       float64(len(all)) / elapsed.Seconds(),
		Results:   rows,
		P50Ms:     pctMs(lats, 50),
		P99Ms:     pctMs(lats, 99),
		Statuses:  statuses,
		Failures:  failures,
		Errors:    errs,
		PerOp:     perOp,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}, failures
}

func pctMs(ds []time.Duration, p int) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted) - 1) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1e3
}
