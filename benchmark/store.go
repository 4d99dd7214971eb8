package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

const (
	storeTau    = 2
	killAfter   = 640  // acked trees after which the crash child is SIGKILLed: one flushed segment and a WAL tail
	ingestShare = 0.3  // of --seconds one ingest child adds for, if the input lasts that long; also how long new ones start
	minReopens  = 3    // fresh reopen processes, however short the run
	reopenWarm  = 3    // repeat joins in each of them
	storeHold   = 16   // every 16th generated tree is a search query
	reopenShare = 0.95 // reopen children start until this share of --seconds has passed
)

// ingestConfig drives one ingest child: Open(Dir) with the default memtable
// budget and fsync on, or off with NoSync; the trees of Input added in batches
// of addBatch until they run out or Seconds have passed (fsync on the shared
// host costs ten times more in some minutes than in others, and a run has to
// end), and from tree ChurnFrom on every Add followed by a Remove of the
// oldest live batch; then Compact, Scrub, Close. With Ack set the child instead
// reports every acknowledged Add on stdout as it happens and never finishes
// by itself: it is the process the crash check kills.
type ingestConfig struct {
	Dir       string
	Input     string
	ChurnFrom int
	Seconds   float64
	NoSync    bool
	Ack       bool
	Trace     bool
}

type ingestOut struct {
	Acked       int     // trees whose Add returned
	ParseNs     float64 // per node, ParseBracket into the store's label table
	Live        []int   // ids acked and not removed, ascending
	WallS       float64
	AddP50      float64 // ms per Add call of addBatch trees
	AddP99      float64
	AddN        int
	Flushes     int64 // before the forced Compact: the store's own background work
	Compactions int64
	CompactS    float64
	ScrubS      float64
	DirBytes    int64 // after Compact
	Checks      checks
	Spans       []span
}

func runIngest(c ingestConfig) (*ingestOut, error) {
	out := &ingestOut{}
	var rec *recorder
	if c.Trace {
		rec = newRecorder()
	}
	text, err := os.ReadFile(c.Input)
	if err != nil {
		return nil, err
	}
	specs := lines(text)
	var opts []treejoin.Option
	if c.NoSync {
		opts = append(opts, treejoin.WithStoreNoSync())
	}
	id := rec.begin("Open", -1, 0)
	cp, err := treejoin.Open(c.Dir, opts...)
	if err != nil {
		return nil, err
	}
	rec.end(id, nil)
	lt := cp.Labels()

	var addMs []float64
	var parse time.Duration
	nodes := 0
	start := time.Now()
	root := rec.begin("ingest+churn", -1, 0)
	for off := 0; off+addBatch <= len(specs) && (c.Ack || time.Since(start).Seconds() < c.Seconds); off += addBatch {
		batch := make([]*treejoin.Tree, addBatch)
		t0 := time.Now()
		for i := range batch {
			if batch[i], err = treejoin.ParseBracket(specs[off+i], lt); err != nil {
				return nil, err
			}
			nodes += batch[i].Size()
		}
		parse += time.Since(t0)
		t0 = time.Now()
		ids, err := cp.Add(batch...)
		if err != nil {
			return nil, fmt.Errorf("Add at tree %d: %w", off, err)
		}
		addMs = append(addMs, msSince(t0))
		out.Acked += len(ids)
		// Ids are the input's line numbers: the parent relies on that to
		// find a live tree's text.
		out.Checks.expect(len(ids) == addBatch && ids[0] == off && ids[addBatch-1] == off+addBatch-1, "Add at tree %d returned ids %v", off, ids)
		out.Live = append(out.Live, ids...)
		if c.Ack {
			fmt.Printf("acked %d\n", out.Acked)
			continue
		}
		if off >= c.ChurnFrom {
			n := cp.Remove(out.Live[:addBatch]...)
			out.Checks.expect(n == addBatch, "Remove of %v removed %d", out.Live[:addBatch], n)
			out.Live = out.Live[addBatch:]
		}
	}
	rec.end(root, nil)
	out.WallS = time.Since(start).Seconds()
	if c.Ack {
		time.Sleep(time.Hour) // wait for the kill
	}
	out.ParseNs = float64(parse) / float64(nodes)
	out.AddN = len(addMs)
	out.AddP50 = median(addMs)
	out.AddP99 = tail(addMs, 0.99)
	st, _ := cp.StoreStats()
	out.Flushes, out.Compactions = st.FlushRuns, st.CompactionRuns

	id = rec.begin("Compact", -1, 0)
	t0 := time.Now()
	if err := cp.Compact(); err != nil {
		return nil, err
	}
	out.CompactS = time.Since(t0).Seconds()
	rec.end(id, nil)
	if out.DirBytes, err = dirBytes(c.Dir); err != nil {
		return nil, err
	}

	id = rec.begin("Scrub", -1, 0)
	t0 = time.Now()
	rep, err := cp.Scrub()
	out.ScrubS = time.Since(t0).Seconds()
	rec.end(id, map[string]float64{"segments": float64(rep.Segments), "blocks": float64(rep.Blocks)})
	out.Checks.expect(err == nil && len(rep.Faults) == 0, "Scrub: %v, %d faults", err, len(rep.Faults))

	id = rec.begin("Close", -1, 0)
	if err := cp.Close(); err != nil {
		return nil, err
	}
	rec.end(id, nil)
	out.Spans = rec.all()
	return out, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// reopenConfig drives one reopen child: a fresh process that opens the store
// and joins it, which is what a restarted user of the store waits for.
type reopenConfig struct {
	Dir      string
	Queries  string // searched after the joins when Searches > 0
	Searches bool
	Warm     int
	Trace    bool
}

type reopenOut struct {
	Live      []int // ids the reopened corpus holds, in position order
	OpenMs    float64
	JoinMs    float64   // the first SelfJoin
	ReopenS   float64   // Open → first SelfJoin complete
	Warm      []float64 // s per repeat SelfJoin
	Digest    string
	SearchP50 float64
	SearchP99 float64
	SearchN   int
	Checks    checks
	Spans     []span
}

func runReopen(c reopenConfig) (*reopenOut, error) {
	ctx := context.Background()
	out := &reopenOut{}
	var rec *recorder
	if c.Trace {
		rec = newRecorder()
	}
	start := time.Now()
	root := rec.begin("reopen", -1, 0)
	id := rec.begin("Open", root, 0)
	cp, err := treejoin.Open(c.Dir)
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	out.OpenMs = msSince(start)
	rec.end(id, nil)

	id = rec.begin("SelfJoin", root, 0)
	t0 := time.Now()
	pairs, st, err := cp.SelfJoin(ctx, storeTau, treejoin.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	out.JoinMs = msSince(t0)
	rec.end(id, statsAttrs(st))
	rec.end(root, nil)
	out.ReopenS = time.Since(start).Seconds()
	out.Digest = pairsDigest(pairs)

	for i := 0; i < c.Warm; i++ {
		t0 := time.Now()
		again, _, err := cp.SelfJoin(ctx, storeTau, treejoin.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		out.Warm = append(out.Warm, time.Since(t0).Seconds())
		out.Checks.expect(slices.Equal(again, pairs), "repeat join %d differs from the first", i)
	}
	for i := 0; i < cp.Len(); i++ {
		out.Live = append(out.Live, cp.ID(i))
	}
	if c.Searches {
		queries, err := readQueries(c.Queries, cp.Labels())
		if err != nil {
			return nil, err
		}
		ms, err := searchPhase(ctx, cp, queries, &out.Checks)
		if err != nil {
			return nil, err
		}
		out.SearchN, out.SearchP50, out.SearchP99 = len(ms), median(ms), tail(ms, 0.99)
	}
	out.Spans = rec.all()
	return out, nil
}

// crashCheck is the durability check: an ingest child is SIGKILLed once it
// has acknowledged killAfter trees, and a fresh process must then find every
// one of them. The kill leaves the OS page cache intact, so this proves the
// WAL is replayed, not that a power cut is survived; the repo's fault-
// injection suite covers that.
func crashCheck(dir, input string, ck *checks) error {
	store := filepath.Join(dir, "crash-store")
	if err := os.RemoveAll(store); err != nil {
		return err
	}
	cmd, err := childCommand("ingest", ingestConfig{Dir: store, Input: input, Ack: true})
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	acked := 0
	sc := bufio.NewScanner(stdout)
	for acked < killAfter && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
			acked, _ = strconv.Atoi(rest)
		}
	}
	cmd.Process.Kill()
	cmd.Wait() // "signal: killed" is the point
	if acked < killAfter {
		return fmt.Errorf("crash child exited after %d acked trees, before it could be killed", acked)
	}
	var re reopenOut
	if _, err := runChild("reopen", reopenConfig{Dir: store}, &re); err != nil {
		return err
	}
	have := make(map[int]bool, len(re.Live))
	for _, id := range re.Live {
		have[id] = true
	}
	missing := 0
	for id := 0; id < acked; id++ {
		if !have[id] {
			missing++
		}
	}
	ck.merge(re.Checks)
	ck.expect(missing == 0, "after SIGKILL: %d of %d acked trees missing on reopen", missing, acked)
	return nil
}

// benchStore runs the store-churn workload.
func benchStore(o runOpts, dir string, d *runData) error {
	r, ck := d.r, &d.ck
	input, queries := filepath.Join(dir, "input.txt"), filepath.Join(dir, "queries.txt")
	var text []byte
	setupS, err := timeSetup(func(int) error {
		n := storeTrees / (storeHold - 1) * storeHold
		corpus, held := holdOut(draw(synth.Treebank(2*n, universeSeed), 4, n, o.seed), storeHold)
		text = bracketText(corpus[:storeTrees])
		if err := os.WriteFile(input, text, 0o644); err != nil {
			return err
		}
		return os.WriteFile(queries, bracketText(held), 0o644)
	})
	if err != nil {
		return err
	}
	// The crash check is the checker's work, and nearly all of it is fsync,
	// whose cost belongs to the host: set-up does not repeat or time it.
	if err := crashCheck(dir, input, ck); err != nil {
		return err
	}

	// The end-to-end ingest runs with fsync off, in as many fresh children
	// as start within ingestShare of the run: what the store's own write path
	// costs. An fsync here costs 85 % of an Add and between 1 and 3 ms from
	// one quarter of an hour to the next, so the rate with fsync on says what
	// the host's disk is doing; the traced run measures it, per layer.
	start := time.Now()
	store := filepath.Join(dir, "store")
	cfg := ingestConfig{Dir: store, Input: input, ChurnFrom: churnFrom, Seconds: ingestShare * o.seconds, NoSync: true, Trace: o.trace}
	var in ingestOut // the last child's: its store is the one reopened
	var rss float64
	var rates []float64
	for i := 0; i == 0 || time.Since(start).Seconds() < ingestShare*o.seconds; i++ {
		if err := os.RemoveAll(store); err != nil {
			return err
		}
		in = ingestOut{}
		if rss, err = runChild("ingest", cfg, &in); err != nil {
			return err
		}
		ck.merge(in.Checks)
		ck.ok(in.AddN)
		rates = append(rates, float64(in.Acked)/in.WallS)
		if o.trace {
			d.traces = append(d.traces, processSpans{Process: fmt.Sprintf("store-churn ingest child %d", i), SelfS: selfByName(in.Spans), Spans: in.Spans})
		}
	}
	if o.trace {
		cfg.Dir, cfg.NoSync = filepath.Join(dir, "synced-store"), false
		var synced ingestOut
		if _, err := runChild("ingest", cfg, &synced); err != nil {
			return err
		}
		ck.merge(synced.Checks)
		ck.ok(synced.AddN)
		d.traces = append(d.traces, processSpans{Process: "store-churn ingest child, fsync on", SelfS: selfByName(synced.Spans), Spans: synced.Spans})
		r.set("segstore.synced_trees_per_s", float64(synced.Acked)/synced.WallS, synced.Acked)
		r.set("segstore.add_p50_ms", synced.AddP50, synced.AddN)
		r.set("segstore.add_p99_ms", synced.AddP99, synced.AddN)
	}

	// What a rebuild from text costs, and the pair list every reopen must
	// reproduce: parse the live trees' lines, build a corpus, join.
	specs := lines(text)
	t0 := time.Now()
	lt := treejoin.NewLabelTable()
	live := make([]*treejoin.Tree, len(in.Live))
	liveBytes := 0
	for i, id := range in.Live {
		if live[i], err = treejoin.ParseBracket(specs[id], lt); err != nil {
			return err
		}
		liveBytes += len(specs[id]) + 1
	}
	cp, err := treejoin.NewCorpus(live)
	if err != nil {
		return err
	}
	want, _, err := cp.SelfJoin(context.Background(), storeTau, treejoin.WithWorkers(workers))
	if err != nil {
		return err
	}
	rebuildS := time.Since(t0).Seconds()
	d.digest = pairsDigest(want)

	var reopenS, warmS, openMs, joinMs []float64
	var first reopenOut
	for i := 0; i < minReopens || time.Since(start).Seconds() < reopenShare*o.seconds; i++ {
		var re reopenOut
		if _, err := runChild("reopen", reopenConfig{Dir: store, Queries: queries, Searches: i == 0, Warm: reopenWarm, Trace: o.trace}, &re); err != nil {
			return err
		}
		if i == 0 {
			first = re
		}
		ck.merge(re.Checks)
		ck.expect(slices.Equal(re.Live, in.Live), "reopen %d: holds %d ids, the ingest acked %d live ones, or they differ", i, len(re.Live), len(in.Live))
		ck.expect(re.Digest == d.digest, "reopen %d: pair digest differs from the join over the same trees from text", i)
		reopenS = append(reopenS, re.ReopenS)
		warmS = append(warmS, re.Warm...)
		openMs = append(openMs, re.OpenMs)
		joinMs = append(joinMs, re.JoinMs)
		if o.trace {
			d.traces = append(d.traces, processSpans{Process: fmt.Sprintf("store-churn reopen child %d", i), SelfS: selfByName(re.Spans), Spans: re.Spans})
		}
	}

	r.set("setup_s", setupS, setupReps)
	r.set("join_cold_s", median(reopenS), len(reopenS))
	r.set("join_warm_s", median(warmS), len(warmS))
	r.set("ingest_trees_per_s", median(rates), len(rates))
	r.set("peak_rss_mb", rss, 0)

	r.set("tree.parse_ns_per_node", in.ParseNs, in.Acked)
	r.set("segstore.flush_runs", float64(in.Flushes), 0)
	r.set("segstore.compaction_runs", float64(in.Compactions), 0)
	r.set("segstore.compact_s", in.CompactS, 1)
	r.set("segstore.scrub_mb_per_s", float64(in.DirBytes)/(1<<20)/in.ScrubS, 1)
	r.set("segstore.stored_bytes_per_tree", float64(in.DirBytes)/float64(len(in.Live)), len(in.Live))
	r.set("segstore.space_amp", float64(in.DirBytes)/float64(liveBytes), 0)
	r.set("segstore.open_ms", median(openMs), len(openMs))
	r.set("segstore.first_join_ms", median(joinMs), len(joinMs))
	r.set("segstore.rebuild_ratio", median(reopenS)/rebuildS, len(reopenS))
	r.set("core.search_us", first.SearchP50*1e3, first.SearchN)
	r.set("core.search_p99_us", first.SearchP99*1e3, first.SearchN)
	return nil
}
