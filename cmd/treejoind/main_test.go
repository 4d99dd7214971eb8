// Handler tests for treejoind: correct results over HTTP, malformed
// requests answered with 4xx (never a panic or a 5xx), deadline and
// admission behaviour, and id-stable responses across mutations.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

func testServer(t *testing.T, n int, inflight int, deadline time.Duration) (*server, *httptest.Server) {
	t.Helper()
	ts := synth.Synthetic(30, 17)
	sc, err := treejoin.NewSharded(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(sc, sc.Labels(), 0, inflight, deadline)
	hs := httptest.NewServer(srv.routes())
	t.Cleanup(hs.Close)
	return srv, hs
}

func post(t *testing.T, hs *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestServeEndpoints(t *testing.T) {
	_, hs := testServer(t, 3, 8, 5*time.Second)

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Self join streams NDJSON ending in a summary whose count matches the
	// pair lines.
	resp, err = http.Get(hs.URL + "/selfjoin?tau=2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("selfjoin: status %d", resp.StatusCode)
	}
	body := readAll(t, resp)
	lines := strings.Split(strings.TrimSpace(body), "\n")
	last := lines[len(lines)-1]
	var summary struct {
		Summary struct {
			Results    int64 `json:"results"`
			Candidates int64 `json:"candidates"`
			Trees      int   `json:"trees"`
			DPAvoided  int64 `json:"dp_avoided"`
			SeqRejects int64 `json:"seq_rejects"`
			Certified  int64 `json:"certified"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(last), &summary); err != nil {
		t.Fatalf("summary line %q: %v", last, err)
	}
	if summary.Summary.Trees != 30 {
		t.Fatalf("summary trees = %d, want 30", summary.Summary.Trees)
	}
	if got := int64(len(lines) - 1); got != summary.Summary.Results {
		t.Fatalf("streamed %d pairs, summary says %d", got, summary.Summary.Results)
	}
	// The verifier counters of every shard round are rolled up into the line.
	if s := summary.Summary; s.SeqRejects > s.DPAvoided || s.Certified == 0 || s.Certified > s.Results || s.DPAvoided+s.Results > s.Candidates {
		t.Fatalf("summary counters do not add up: %+v", s)
	}

	// Search for an existing corpus tree at tau=0 finds at least itself.
	resp2, body2 := post(t, hs, "/search", `{"query":"{0{1}{2}}","tau":20}`)
	if resp2.StatusCode != 200 {
		t.Fatalf("search: status %d: %s", resp2.StatusCode, body2)
	}

	// Add, then remove by the returned ids; ids are stable and reported back.
	resp3, body3 := post(t, hs, "/add", `{"trees":["{a{b}{c}}","{a{b}}"]}`)
	if resp3.StatusCode != 200 {
		t.Fatalf("add: status %d: %s", resp3.StatusCode, body3)
	}
	var added struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal([]byte(body3), &added); err != nil || len(added.IDs) != 2 {
		t.Fatalf("add response %q: %v", body3, err)
	}
	if added.IDs[0] != 30 || added.IDs[1] != 31 {
		t.Fatalf("add ids = %v, want [30 31]", added.IDs)
	}
	resp4, body4 := post(t, hs, "/remove", fmt.Sprintf(`{"ids":[%d]}`, added.IDs[0]))
	if resp4.StatusCode != 200 || !strings.Contains(body4, `"removed":1`) {
		t.Fatalf("remove: status %d body %s", resp4.StatusCode, body4)
	}

	// TopK and KNN answer with the requested cardinality.
	resp5, body5 := post(t, hs, "/topk", `{"k":3}`)
	if resp5.StatusCode != 200 {
		t.Fatalf("topk: status %d: %s", resp5.StatusCode, body5)
	}
	var topk struct {
		Pairs []wirePair `json:"pairs"`
	}
	if err := json.Unmarshal([]byte(body5), &topk); err != nil || len(topk.Pairs) != 3 {
		t.Fatalf("topk response %q: %v", body5, err)
	}
	resp6, body6 := post(t, hs, "/knn", `{"query":"{0{1}}","k":4}`)
	if resp6.StatusCode != 200 {
		t.Fatalf("knn: status %d: %s", resp6.StatusCode, body6)
	}
	var knn struct {
		Matches []wireMatch `json:"matches"`
	}
	if err := json.Unmarshal([]byte(body6), &knn); err != nil || len(knn.Matches) != 4 {
		t.Fatalf("knn response %q: %v", body6, err)
	}

	// Stats reports the post-mutation corpus.
	resp7, err := http.Get(hs.URL + "/stats")
	if err != nil || resp7.StatusCode != 200 {
		t.Fatalf("stats: %v %v", resp7, err)
	}
	var stats struct {
		Trees  int `json:"trees"`
		Shards int `json:"shards"`
	}
	if err := json.NewDecoder(resp7.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp7.Body.Close()
	if stats.Trees != 31 || stats.Shards != 3 {
		t.Fatalf("stats = %+v, want 31 trees on 3 shards", stats)
	}
}

// TestServeJoin: /join on a two-shard server. A one-tree body answers
// exactly /search's hits for that tree at the same τ, as (corpus id, 0,
// dist); a three-tree body answers the in-process Corpus.Join of the uploaded
// trees, with I mapped to corpus ids.
func TestServeJoin(t *testing.T) {
	srv, hs := testServer(t, 2, 8, 5*time.Second)
	const tau = 6
	specs := []string{treejoin.FormatBracket(srv.sc.Tree(3)), treejoin.FormatBracket(srv.sc.Tree(11)), "{0{1}{2{3}}}"}
	join := func(specs []string) []wirePair {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"trees": specs, "tau": tau})
		resp, out := post(t, hs, "/join", string(body))
		if resp.StatusCode != 200 {
			t.Fatalf("join: status %d: %s", resp.StatusCode, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		pairs := make([]wirePair, len(lines)-1)
		for k, l := range lines[:len(lines)-1] {
			if err := json.Unmarshal([]byte(l), &pairs[k]); err != nil {
				t.Fatalf("pair line %q: %v", l, err)
			}
		}
		return pairs
	}

	body, _ := json.Marshal(map[string]any{"query": specs[0], "tau": tau})
	resp, out := post(t, hs, "/search", string(body))
	var search struct {
		Matches []wireMatch `json:"matches"`
	}
	if err := json.Unmarshal([]byte(out), &search); resp.StatusCode != 200 || err != nil || len(search.Matches) < 2 {
		t.Fatalf("search: status %d, %d matches (err %v): %s", resp.StatusCode, len(search.Matches), err, out)
	}
	var want []wirePair
	for _, m := range search.Matches {
		want = append(want, wirePair{I: m.ID, J: 0, Dist: m.Dist})
	}
	if got := join(specs[:1]); !slices.Equal(got, want) {
		t.Fatalf("a one-tree /join answered %v, /search %v", got, want)
	}

	ts, err := srv.parseTrees(specs)
	if err != nil {
		t.Fatal(err)
	}
	other, err := treejoin.NewCorpus(ts)
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := srv.sc.Join(context.Background(), other, tau)
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	for _, p := range pairs {
		want = append(want, wirePair{I: srv.sc.ID(p.I), J: p.J, Dist: p.Dist})
	}
	if got := join(specs); len(want) < 3 || !slices.Equal(got, want) {
		t.Fatalf("a three-tree /join answered %v, Corpus.Join %v", got, want)
	}
}

// TestServeWorkersQueries: on a -workers 1 server, /search, /knn and /topk
// run under the server's query options and answer exactly what the
// in-process corpus does, ids mapped.
func TestServeWorkersQueries(t *testing.T) {
	sc, err := treejoin.NewSharded(2, synth.Synthetic(30, 17))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newServer(sc, sc.Labels(), 1, 8, 5*time.Second).routes())
	t.Cleanup(hs.Close)
	ctx, q := context.Background(), sc.Tree(3)
	query := func(path string, req map[string]any, into any) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, out := post(t, hs, path, string(body))
		if err := json.Unmarshal([]byte(out), into); resp.StatusCode != 200 || err != nil {
			t.Fatalf("%s: status %d (err %v): %s", path, resp.StatusCode, err, out)
		}
	}
	wire := func(ms []treejoin.Match) []wireMatch {
		out := make([]wireMatch, len(ms))
		for i, m := range ms {
			out[i] = wireMatch{ID: sc.ID(m.Pos), Dist: m.Dist}
		}
		return out
	}
	var matches struct {
		Matches []wireMatch `json:"matches"`
	}
	ms, err := sc.Search(ctx, q, 4)
	if query("/search", map[string]any{"query": treejoin.FormatBracket(q), "tau": 4}, &matches); err != nil || len(ms) < 2 || !slices.Equal(matches.Matches, wire(ms)) {
		t.Fatalf("/search answered %v, Search %v (err %v)", matches.Matches, ms, err)
	}
	ms, err = sc.KNN(ctx, q, 5)
	if query("/knn", map[string]any{"query": treejoin.FormatBracket(q), "k": 5}, &matches); err != nil || !slices.Equal(matches.Matches, wire(ms)) {
		t.Fatalf("/knn answered %v, KNN %v (err %v)", matches.Matches, ms, err)
	}
	var topk struct {
		Pairs []wirePair `json:"pairs"`
	}
	pairs, err := sc.TopK(ctx, 4)
	var want []wirePair
	for _, p := range pairs {
		want = append(want, wirePair{I: sc.ID(p.I), J: sc.ID(p.J), Dist: p.Dist})
	}
	if query("/topk", map[string]any{"k": 4}, &topk); err != nil || len(want) != 4 || !slices.Equal(topk.Pairs, want) {
		t.Fatalf("/topk answered %v, TopK %v (err %v)", topk.Pairs, want, err)
	}
}

// TestServeMalformed: every malformed request the wire can carry answers
// 4xx — no panic, no 5xx. This is the no-network-reachable-panic contract.
func TestServeMalformed(t *testing.T) {
	_, hs := testServer(t, 2, 8, 5*time.Minute) // the deep trees below take seconds, under -race a minute
	cases := []struct {
		name, path, body string
	}{
		{"bad json", "/search", `{"query":`},
		{"wrong type", "/search", `{"query":17,"tau":1}`},
		{"unknown field", "/search", `{"q":"{a}"}`},
		{"bad bracket", "/search", `{"query":"{a","tau":1}`},
		{"empty query", "/search", `{"query":"","tau":1}`},
		{"negative tau", "/search", `{"query":"{a}","tau":-4}`},
		{"bad tree in batch", "/add", `{"trees":["{a}","}{"]}`},
		{"bad join tree", "/join", `{"trees":["{{{"],"tau":1}`},
		{"negative join tau", "/join", `{"trees":["{a}"],"tau":-1}`},
		{"remove wrong type", "/remove", `{"ids":"all"}`},
		{"topk bad body", "/topk", `k=3`},
	}
	for _, tc := range cases {
		resp, body := post(t, hs, tc.path, tc.body)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d (want 4xx), body %q", tc.name, resp.StatusCode, body)
		}
	}

	// Bad query parameters on the streaming endpoint.
	for _, url := range []string{"/selfjoin", "/selfjoin?tau=x", "/selfjoin?tau=-2", "/selfjoin?tau=1&deadline_ms=no"} {
		resp, err := http.Get(hs.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("GET %s: status %d, want 4xx", url, resp.StatusCode)
		}
	}

	// The deepest tree the 8 MiB body cap admits: 4 M nested nodes. Parsing
	// is iterative, so this is answered (the recursive-descent parser died
	// here with an unrecoverable stack overflow), and the server goes on.
	deep := strings.Repeat("{", 4_000_000) + strings.Repeat("}", 4_000_000)
	for _, tc := range []struct{ path, body string }{
		{"/search", `{"query":"` + deep + `","tau":1}`},
		{"/add", `{"trees":["` + deep + `"]}`},
	} {
		if resp, body := post(t, hs, tc.path, tc.body); resp.StatusCode >= 500 {
			t.Errorf("4M-deep tree to %s: status %d, body %.200q", tc.path, resp.StatusCode, body)
		}
	}
	if resp, body := post(t, hs, "/search", `{"query":"{0{1}{2}}","tau":3}`); resp.StatusCode != 200 {
		t.Errorf("search after the deep trees: status %d, body %q", resp.StatusCode, body)
	}

	// The server is still healthy after the abuse.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz after malformed barrage: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestServeDeadline: a request whose deadline cannot be met answers 504.
func TestServeDeadline(t *testing.T) {
	_, hs := testServer(t, 2, 8, time.Nanosecond)
	resp, body := post(t, hs, "/topk", `{"k":5}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline: status %d body %q, want 504", resp.StatusCode, body)
	}
}

// TestServeAdmission: when every in-flight slot is held, the next request
// answers 429 instead of queueing.
func TestServeAdmission(t *testing.T) {
	srv, hs := testServer(t, 2, 1, 5*time.Second)
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()
	resp, body := post(t, hs, "/topk", `{"k":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("admission: status %d body %q, want 429", resp.StatusCode, body)
	}
	// healthz is not gated.
	r2, err := http.Get(hs.URL + "/healthz")
	if err != nil || r2.StatusCode != 200 {
		t.Fatalf("healthz while saturated: %v %v", r2, err)
	}
	r2.Body.Close()
}

// TestServeConcurrentFreshLabels: a store-backed server under one client
// adding and one searching, every request bringing labels the table has never
// seen. Parses run with no server lock, and the store's WAL reads the table
// (Len, Name) while other requests intern into it: under -race this reported
// LabelTable.Len against LabelTable.Intern before the table synchronised
// itself. Afterwards every acknowledged add is in the corpus and survives a
// reopen, which checks the WAL's label splices under the same interleaving.
func TestServeConcurrentFreshLabels(t *testing.T) {
	dir := t.TempDir()
	sc, err := treejoin.OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newServer(sc, sc.Labels(), 0, 8, 5*time.Second).routes())
	const rounds = 200
	var wg sync.WaitGroup
	for _, path := range []string{"/add", "/search"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := fmt.Sprintf(`{"trees":["{add%d{x}{y%d}}"]}`, i, i)
				if path == "/search" {
					body = fmt.Sprintf(`{"query":"{search%d{x}{z%d}}","tau":2}`, i, i)
				}
				resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST %s: %v", path, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("POST %s round %d: status %d", path, i, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	hs.Close()
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := treejoin.OpenSharded(dir, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Len() != rounds {
		t.Fatalf("reopened corpus holds %d trees, want %d", re.Len(), rounds)
	}
	for i := 0; i < rounds; i++ {
		if got, want := treejoin.FormatBracket(re.Tree(i)), fmt.Sprintf("{add%d{x}{y%d}}", i, i); got != want {
			t.Fatalf("tree %d after reopen = %s, want %s", i, got, want)
		}
	}
}
