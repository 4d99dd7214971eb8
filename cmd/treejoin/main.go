// Command treejoin runs a tree similarity join over a dataset file and
// prints the matching pairs.
//
// Usage:
//
//	treejoin -input trees.txt -tau 2 [-method PRT|STR|SET|BF|HIST|EUL|PQG]
//	         [-prefilter HIST,SET] [-workers 4] [-timeout 30s]
//	         [-format bracket|newick|binary] [-stats] [-quiet]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	treejoin -input a.txt -other b.txt -tau 2
//	treejoin -input trees.txt -topk 10
//	treejoin -input trees.txt -tau 2 -explain
//	treejoin -watch -tau 2 [-input seed.txt] < mutations.txt
//	treejoin -store corpus.dir -tau 2 [-input more.txt]
//	treejoin -store corpus.dir -compact [-stats]
//	treejoin -store corpus.dir -scrub
//	treejoin -store corpus.dir -salvage
//	treejoin -store corpus.dir -watch -tau 2 < mutations.txt
//
// The dataset holds one tree per line (bracket or Newick notation) or is a
// binary dataset written by datagen -format binary; -format auto-detects
// from the extension (.tjds → binary, .nwk/.newick/.tree → newick). Each
// output line is "i<TAB>j<TAB>dist" (0-based positions of the two trees).
// With -other B the join is the cross join of the two files (i indexes
// -input, j indexes -other; text formats only, so the files share a label
// table). With -prefilter, the named filter stages run in front of the
// method, and -stats attributes the pruning per stage. With -topk K the
// threshold is ignored and the K closest pairs are printed instead. With
// -stats, a summary of where the join spent its time follows on stderr,
// including a "plan:" line describing the execution plan the run carried:
// its candidate source and filter-chain order. Every join runs its method's
// one plan: the -prefilter stages, then the method's own. With -explain the
// join does not run at all: the command prints that plan — its "plan:" line
// reads as the -stats run's does — the number of pairs in the τ size window,
// and whether the token index is already built.
//
// With -watch the command becomes a standing join over a mutating stream:
// it reads one mutation per stdin line — a bracket-notation tree to add, or
// "-N" to remove the tree with id N — and emits the join's delta after each
// one. Ids are assigned in add order starting at 0 (-input, when given,
// seeds the stream first). Each delta line is "+<TAB>i<TAB>j<TAB>dist" for
// a pair entering the result (tree j is the newly added tree) or
// "-<TAB>i<TAB>j<TAB>dist" for a standing pair retracted by a removal;
// applying the + and − lines in order reproduces the self-join of the live
// trees at every point. Malformed lines (unparseable trees, bad or unknown
// removal ids) are reported on stderr and skipped — a long-running watch
// never loses its standing result to one bad input line, and skipped lines
// consume no id. Watch mode runs the incremental PartSJ stream, so -method
// PRT only, and -other/-topk/-prefilter do not combine with it.
//
// With -store the corpus is a persistent segment store at the given
// directory: Open-ed if it exists, created otherwise. Trees from -input (text
// formats only — the store owns the label table) are durably added before the
// join runs, so repeated invocations accumulate; without -input the join runs
// over whatever the store holds. -compact forces a compaction cycle (merging
// segments and dropping tombstones) instead of joining. -scrub re-verifies
// the store's integrity end to end — manifest decode, per-segment checksums,
// and every block re-hashed against its stored content address — and exits
// non-zero naming the faulty files if anything fails. -salvage opens a store
// that -scrub (or a refused open) showed to be corrupt, quarantining each
// unreadable segment as <name>.quarantine, printing what was set aside with
// bounds on the lost tree ids, and committing a manifest over the surviving
// corpus so later plain opens succeed. A -store -watch
// session journals every mutation through the store's write-ahead log before
// emitting its delta — kill the process at any point and reopen to find every
// acknowledged add and removal intact — and ids in deltas and removals are
// the store's stable tree ids, which survive across sessions. With -stats, a
// "store:" line reports segment, memtable, tombstone, and compaction
// counters.
//
// Joins are cancellable: -timeout bounds the run, and an interrupt (Ctrl-C)
// stops it early. Either way the pairs found so far are printed and the
// exit status is 1; threshold joins also print their partial per-stage
// statistics to stderr (-topk aggregates rounds and has none to report).
// An interrupted or timed-out watch stops emitting deltas the same way.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"treejoin"
	"treejoin/internal/cli"
)

func main() {
	var (
		input      = flag.String("input", "", "dataset file (required)")
		other      = flag.String("other", "", "second dataset file: cross join -input against -other")
		format     = flag.String("format", "auto", "input format: bracket, newick, binary, or auto")
		tau        = flag.Int("tau", 1, "TED threshold τ ≥ 0")
		topk       = flag.Int("topk", 0, "report the K closest pairs instead of a threshold join")
		method     = flag.String("method", "PRT", "join method: PRT, STR, SET, BF, HIST, EUL, or PQG")
		prefilter  = flag.String("prefilter", "", "comma-separated filter stages to chain in front of the method (HIST, STR, SET, EUL, PQG)")
		workers    = flag.Int("workers", 0, "parallel candidate-generation and TED-verification workers")
		timeout    = flag.Duration("timeout", 0, "abort the join after this duration (0: no limit)")
		stats      = flag.Bool("stats", false, "print execution statistics to stderr")
		quiet      = flag.Bool("quiet", false, "suppress pair output (useful with -stats)")
		explain    = flag.Bool("explain", false, "print the execution plan instead of running the join")
		watch      = flag.Bool("watch", false, "read mutations (bracket tree to add, -N to remove id N) from stdin and emit join deltas")
		store      = flag.String("store", "", "persistent corpus directory (created if absent); -input trees are durably added")
		compact    = flag.Bool("compact", false, "force a compaction cycle on -store and exit (no join)")
		scrub      = flag.Bool("scrub", false, "re-verify every checksum and content address of -store and exit (no join)")
		salvage    = flag.Bool("salvage", false, "open -store quarantining corrupt segments (*.quarantine), report the loss, and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	if err := startProfiles(*cpuprofile, *memprofile); err != nil {
		fail("%v", err)
	}
	defer stopProfiles()
	if *scrub {
		if *store == "" {
			fail("-scrub requires -store")
		}
		cp, err := treejoin.Open(*store)
		if err != nil {
			// A store the open path already refuses is the scrub's verdict
			// too — the decode error names the faulty file.
			fail("scrub: FAULT %v (re-open with -salvage to quarantine and keep the readable rest)", err)
		}
		rep, serr := cp.Scrub()
		fmt.Fprintf(os.Stderr, "scrub: %d segments, %d blocks, %d entries verified, %d fault(s)\n",
			rep.Segments, rep.Blocks, rep.Entries, len(rep.Faults))
		for _, f := range rep.Faults {
			name := f.Name
			if name == "" {
				name = "MANIFEST"
			}
			fmt.Fprintf(os.Stderr, "scrub: FAULT %s: %s\n", name, f.Err)
		}
		if err := cp.Close(); err != nil {
			fail("%v", err)
		}
		if serr != nil {
			fail("%v (re-open with -salvage to quarantine and keep the readable rest)", serr)
		}
		return
	}
	if *salvage {
		if *store == "" {
			fail("-salvage requires -store")
		}
		cp, err := treejoin.Open(*store, treejoin.WithSalvage())
		if err != nil {
			fail("%v", err)
		}
		for _, q := range cp.SalvageReport() {
			fmt.Fprintf(os.Stderr, "salvage: quarantined %s (%d entries, up to %d live trees lost, ids in (%d, %d)): %s\n",
				q.Name, q.Entries, q.Live, q.IDAfter, q.IDBefore, q.Err)
		}
		st, _ := cp.StoreStats()
		fmt.Fprintf(os.Stderr, "salvage: %d segment(s) quarantined, %d trees live\n",
			st.QuarantinedSegments, st.LiveTrees)
		if err := cp.Close(); err != nil {
			fail("%v", err)
		}
		return
	}
	if *compact {
		if *store == "" {
			fail("-compact requires -store")
		}
		if *watch {
			fail("-compact does not combine with -watch")
		}
		cp, err := treejoin.Open(*store)
		if err != nil {
			fail("%v", err)
		}
		if err := cp.Compact(); err != nil {
			fail("%v", err)
		}
		if *stats {
			printStoreStats(cp)
		}
		if err := cp.Close(); err != nil {
			fail("%v", err)
		}
		return
	}
	m := parseName("method", *method, treejoin.MethodPartSJ, treejoin.MethodSTR, treejoin.MethodSET,
		treejoin.MethodBruteForce, treejoin.MethodHistogram, treejoin.MethodEulerString, treejoin.MethodPQGram)
	if *watch {
		if *explain {
			fail("-explain does not combine with -watch")
		}
		runWatch(*input, *format, *store, *tau, *topk, *other, m, *prefilter, *workers, *timeout, *stats, *quiet)
		return
	}
	if *input == "" && *store == "" {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "treejoin: -input or -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if *tau < 0 {
		fail("threshold must be non-negative, got %d", *tau)
	}

	// The corpus: a persistent store (ingesting -input when given) or a fresh
	// in-memory corpus over -input. Either way lt is the table queries and
	// -other must intern into.
	var corpus *treejoin.Corpus
	var lt *treejoin.LabelTable
	if *store != "" {
		cp, err := treejoin.Open(*store)
		if err != nil {
			fail("%v", err)
		}
		if *input != "" {
			// The store owns its label table, so ingest is text-only (the
			// binary format carries a table of its own).
			if f, _ := cli.DetectFormat(*input, *format); f == cli.FormatBinary {
				fail("-store ingests text formats only (the store owns the label table)")
			}
			ts, _, err := cli.Load(*input, *format, cp.Labels())
			if err != nil {
				fail("%v", err)
			}
			if _, err := cp.Add(ts...); err != nil {
				fail("%v", err)
			}
		}
		corpus, lt = cp, cp.Labels()
	} else {
		ts, table, err := cli.Load(*input, *format, nil)
		if err != nil {
			fail("%v", err)
		}
		lt = table
		corpus, err = treejoin.NewCorpus(ts)
		if err != nil {
			fail("%v", err)
		}
	}
	opts := []treejoin.Option{treejoin.WithMethod(m), treejoin.WithWorkers(*workers)}
	if *prefilter != "" {
		var fs []treejoin.Prefilter
		for _, name := range strings.Split(*prefilter, ",") {
			fs = append(fs, parseName("prefilter", strings.TrimSpace(name), treejoin.PrefilterHistogram,
				treejoin.PrefilterSTR, treejoin.PrefilterSET, treejoin.PrefilterEulerString, treejoin.PrefilterPQGram))
		}
		opts = append(opts, treejoin.WithPrefilter(fs...))
	}

	// The run context: bounded by -timeout, cancelled by the first
	// interrupt (a second interrupt kills the process the usual way).
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	// Once the context is done (first interrupt or timeout), unregister the
	// handler so a second interrupt kills the process the usual way instead
	// of being swallowed while partial results print.
	context.AfterFunc(ctx, stop)

	if *explain {
		switch {
		case *topk > 0:
			fail("-explain does not combine with -topk")
		case *other != "":
			fail("-explain does not combine with -other (explanations cover self joins)")
		}
		ex, err := corpus.Explain(ctx, *tau, opts...)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(ex)
		if err := corpus.Close(); err != nil {
			fail("%v", err)
		}
		return
	}

	var pairs []treejoin.Pair
	var st treejoin.Stats
	var runErr error
	switch {
	case *other != "":
		if *topk > 0 {
			fail("-topk does not combine with -other")
		}
		// The two text files must intern into one label table; the binary
		// format carries its own table and cannot be aligned here.
		if f, _ := cli.DetectFormat(*other, *format); f == cli.FormatBinary {
			fail("-other requires a text format (shared label table)")
		}
		bs, _, err := cli.Load(*other, *format, lt)
		if err != nil {
			fail("%v", err)
		}
		otherCorpus, err := treejoin.NewCorpus(bs)
		if err != nil {
			fail("%v", err)
		}
		pairs, st, runErr = corpus.Join(ctx, otherCorpus, *tau, opts...)
	case *topk > 0:
		// TopK runs expanding-threshold PartSJ passes; reject flags it would
		// silently ignore rather than pretend they took effect.
		if m != treejoin.MethodPartSJ {
			fail("-topk supports -method PRT only")
		}
		if *prefilter != "" {
			fail("-topk does not combine with -prefilter")
		}
		pairs, runErr = corpus.TopK(ctx, *topk, opts...)
	default:
		pairs, st, runErr = corpus.SelfJoin(ctx, *tau, opts...)
	}
	interrupted := runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if runErr != nil && !interrupted {
		fail("%v", runErr)
	}

	if !*quiet {
		w := bufio.NewWriter(os.Stdout)
		for _, p := range pairs {
			fmt.Fprintf(w, "%d\t%d\t%d\n", p.I, p.J, p.Dist)
		}
		if err := w.Flush(); err != nil {
			fail("%v", err)
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "treejoin: %v — results are partial\n", runErr)
	}
	if (*stats || interrupted) && *topk == 0 {
		printStats(m, *tau, st)
	}
	if *stats || interrupted {
		printStoreStats(corpus)
	}
	if err := corpus.Close(); err != nil {
		fail("%v", err)
	}
	if interrupted {
		stopProfiles()
		os.Exit(1)
	}
}

// printStoreStats appends the segment-store line to the stats summary; a
// no-op for in-memory corpora, which have no store to report on.
func printStoreStats(cp *treejoin.Corpus) {
	ss, ok := cp.StoreStats()
	if !ok {
		return
	}
	fmt.Fprintf(os.Stderr, "store:       %d segments (%d opened), %d memtable trees, %d tombstoned, %d flushes, %d compactions\n",
		ss.Segments, ss.SegmentsOpened, ss.MemtableTrees, ss.TombstonedTrees, ss.FlushRuns, ss.CompactionRuns)
	fmt.Fprintf(os.Stderr, "store write: writers stalled %v; flushing %v, compacting %v, %d bytes of segments written; %d WAL fsyncs\n",
		ss.StallTime, ss.FlushTime, ss.CompactionTime, ss.SegmentBytesWritten, ss.WALSyncs)
}

// printStats writes the execution summary — including per-stage filter
// attribution — to stderr. On an interrupted run the counters cover the
// work done up to the abort.
func printStats(m treejoin.Method, tau int, st treejoin.Stats) {
	fmt.Fprintf(os.Stderr, "trees:       %d\n", st.Trees)
	fmt.Fprintf(os.Stderr, "method:      %s, tau=%d\n", m, tau)
	if st.Source != "" {
		fmt.Fprintf(os.Stderr, "source:      %s\n", st.Source)
	}
	if st.Plan.Source != "" {
		fmt.Fprintf(os.Stderr, "plan:        source=%s chain=[%s]\n", st.Plan.Source, strings.Join(st.Plan.Chain, " "))
	}
	fmt.Fprintf(os.Stderr, "candidates:  %d\n", st.Candidates)
	fmt.Fprintf(os.Stderr, "results:     %d\n", st.Results)
	// CPU sums each task's own clock and exceeds wall on multi-core runs;
	// wall is what the user waited for the candidate stage.
	fmt.Fprintf(os.Stderr, "candgen:     %v cpu, %v wall\n", st.CandTime+st.PartitionTime, st.CandWall)
	fmt.Fprintf(os.Stderr, "verify:      %v\n", st.VerifyTime)
	fmt.Fprintf(os.Stderr, "verifier:    %d DPs avoided (%d by the string screen), %d certified, %d keyroots skipped, %d band aborts, strategy %dL/%dR\n",
		st.DPAvoided, st.SeqRejects, st.Certified, st.KeyrootsSkipped, st.BandAborts, st.StrategyLeft, st.StrategyRight)
	fmt.Fprintf(os.Stderr, "total:       %v cpu\n", st.Total())
	for _, stage := range st.Stages {
		fmt.Fprintf(os.Stderr, "stage %-6s %d in, %d pruned, %d out\n",
			stage.Name+":", stage.In, stage.Pruned, stage.Out())
	}
	if st.IndexedSubgraphs > 0 {
		// Build time is 0 when the corpus already held this epoch's index.
		fmt.Fprintf(os.Stderr, "subgraphs:   %d indexed (built in %v), %d probes, %d match tests (%d hits)\n",
			st.IndexedSubgraphs, st.IndexBuildTime, st.SubgraphProbes, st.MatchTests, st.MatchHits)
	} else if st.PostingsScanned > 0 || st.IndexBuildTime > 0 {
		index := "index cached"
		if st.IndexBuildTime > 0 {
			index = fmt.Sprintf("index built in %v", st.IndexBuildTime)
		}
		fmt.Fprintf(os.Stderr, "tokenindex:  %s, %d postings scanned, %d partners skipped by count\n",
			index, st.PostingsScanned, st.SkippedByCount)
	}
}

// runWatch drives -watch: a standing incremental self join fed one mutation
// per stdin line, emitting the result delta after each. Adds print
// "+\ti\tj\tdist" for every pair entering the result; removals print
// "-\ti\tj\tdist" for every standing pair they retract. Output is flushed
// per mutation, so a pipe consumer sees each delta as it happens.
func runWatch(input, format, store string, tau, topk int, other string, m treejoin.Method, prefilter string, workers int, timeout time.Duration, stats, quiet bool) {
	if tau < 0 {
		fail("threshold must be non-negative, got %d", tau)
	}
	switch {
	case topk > 0:
		fail("-watch does not combine with -topk")
	case other != "":
		fail("-watch does not combine with -other")
	case prefilter != "":
		fail("-watch does not combine with -prefilter")
	case m != treejoin.MethodPartSJ:
		fail("-watch supports -method PRT only (the incremental stream is PartSJ)")
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	out := bufio.NewWriter(os.Stdout)
	// Every flush is checked: a full disk or a closed pipe must surface as a
	// non-zero exit, not an exit 0 with silently truncated deltas.
	flushOut := func() {
		if err := out.Flush(); err != nil {
			fail("watch: writing output: %v", err)
		}
	}
	defer flushOut()

	// With -store, every mutation journals through the store's write-ahead
	// log before its delta is emitted, and the ids in deltas and removal
	// lines are the store's stable tree ids (the incremental stream numbers
	// trees in add order, so the two id spaces diverge once a reopened store
	// has gaps — the maps below translate between them).
	var cp *treejoin.Corpus
	var incToStore []int // incremental id → store id
	storeToInc := map[int]int{}
	var err error
	if store != "" {
		if cp, err = treejoin.Open(store); err != nil {
			fail("%v", err)
		}
	}
	// The stream draws its signatures from the store's corpus, or without a
	// store from an empty one.
	src := cp
	if src == nil {
		src, _ = treejoin.NewCorpus(nil)
	}
	inc, err := src.Incremental(tau, treejoin.WithWorkers(workers))
	if err != nil {
		fail("%v", err)
	}
	emit := func(sign byte, pairs []treejoin.Pair) {
		if quiet {
			return
		}
		for _, p := range pairs {
			i, j := p.I, p.J
			if cp != nil {
				i, j = incToStore[i], incToStore[j]
			}
			fmt.Fprintf(out, "%c\t%d\t%d\t%d\n", sign, i, j, p.Dist)
		}
	}
	// addTree is the single add path: durably journal first (when persistent),
	// then feed the incremental join and emit the entering pairs.
	addTree := func(t *treejoin.Tree) error {
		if cp != nil {
			ids, err := cp.Add(t)
			if err != nil {
				return err
			}
			storeToInc[ids[0]] = len(incToStore)
			incToStore = append(incToStore, ids[0])
		}
		emit('+', inc.Add(t))
		return nil
	}

	lt := treejoin.NewLabelTable()
	if cp != nil {
		// The store seeds the stream: its live trees enter the standing join
		// in position order, keeping their persistent ids.
		lt = cp.Labels()
		for i := 0; i < cp.Len(); i++ {
			storeToInc[cp.ID(i)] = len(incToStore)
			incToStore = append(incToStore, cp.ID(i))
			emit('+', inc.Add(cp.Tree(i)))
		}
		flushOut()
	}
	if input != "" {
		if cp != nil {
			if f, _ := cli.DetectFormat(input, format); f == cli.FormatBinary {
				fail("-store ingests text formats only (the store owns the label table)")
			}
		}
		ts, seedLT, err := cli.Load(input, format, lt)
		if err != nil {
			fail("%v", err)
		}
		lt = seedLT // binary datasets carry their own table; stdin interns into it
		for _, t := range ts {
			if err := addTree(t); err != nil {
				fail("%v", err)
			}
		}
		flushOut()
	}

	// Stdin is scanned on its own goroutine so the mutation loop can honor
	// -timeout and the first interrupt even while blocked between lines (a
	// pipe that goes idle would otherwise pin the process in read(2) past
	// the deadline). After cancellation the scanner goroutine may stay
	// parked in Scan; process exit reaps it.
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
		scanErr <- sc.Err()
	}()
	interrupted := false
loop:
	for {
		var raw string
		var ok bool
		select {
		case <-ctx.Done():
			interrupted = true
			break loop
		case raw, ok = <-lines:
			if !ok {
				break loop
			}
		}
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Bad lines warn and continue: a watch is a long-running daemon
		// holding a standing result, and one producer typo must not
		// discard it (the unknown-id case below sets the precedent).
		if strings.HasPrefix(line, "-") {
			id, err := strconv.Atoi(strings.TrimSpace(line[1:]))
			if err != nil {
				fmt.Fprintf(os.Stderr, "treejoin: watch: bad removal %q (want -N)\n", line)
				continue
			}
			incID := id
			if cp != nil {
				// N is a store id; translate, journal the tombstone, then
				// retract. A crash after Remove returns loses nothing: replay
				// restores the removal, and the standing result is rebuilt
				// from the surviving trees on the next watch.
				mapped, ok := storeToInc[id]
				if !ok {
					fmt.Fprintf(os.Stderr, "treejoin: watch: no live tree with id %d\n", id)
					continue
				}
				if cp.Remove(id) != 1 {
					fmt.Fprintf(os.Stderr, "treejoin: watch: store lost id %d\n", id)
					continue
				}
				delete(storeToInc, id)
				incID = mapped
			}
			if inc.Remove(incID) {
				emit('-', inc.Retracted())
			} else if cp == nil {
				fmt.Fprintf(os.Stderr, "treejoin: watch: no live tree with id %d\n", id)
			}
		} else {
			t, err := treejoin.ParseBracket(line, lt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "treejoin: watch: skipping line: %v\n", err)
				continue
			}
			if err := addTree(t); err != nil {
				fmt.Fprintf(os.Stderr, "treejoin: watch: %v\n", err)
				continue
			}
		}
		flushOut()
	}
	// Cancellation may surface as the closed lines channel rather than the
	// ctx case (the select picks arbitrarily when both are ready), so the
	// interrupted outcome is decided by the context itself.
	if ctx.Err() != nil {
		interrupted = true
	}
	select {
	case err := <-scanErr:
		if err != nil {
			fail("watch: reading stdin: %v", err)
		}
	default:
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "treejoin: %v — deltas are partial\n", ctx.Err())
	}
	if stats || interrupted {
		st := inc.Stats()
		fmt.Fprintf(os.Stderr, "trees:       %d added, %d live\n", inc.Len(), inc.Live())
		fmt.Fprintf(os.Stderr, "standing:    %d pairs (%d retracted over the run)\n", st.Results-st.PairsRetracted, st.PairsRetracted)
		fmt.Fprintf(os.Stderr, "candidates:  %d\n", st.Candidates)
		fmt.Fprintf(os.Stderr, "candgen:     %v cpu\n", st.CandTime+st.PartitionTime)
		fmt.Fprintf(os.Stderr, "verify:      %v\n", st.VerifyTime)
		if cp != nil {
			printStoreStats(cp)
		}
	}
	if cp != nil {
		if err := cp.Close(); err != nil {
			fail("watch: %v", err)
		}
	}
	if interrupted {
		flushOut()
		stopProfiles()
		os.Exit(1)
	}
}

// stopProfiles finalises whatever -cpuprofile/-memprofile started. Explicit
// os.Exit sites (fail, the interrupted-run exits) bypass main's defers, so
// every one of them calls it directly; it is idempotent and a no-op when no
// profiling was requested.
var stopProfiles = func() {}

// startProfiles begins CPU profiling (when cpu is non-empty) and installs the
// finaliser into stopProfiles: stop and flush the CPU profile, then write the
// heap allocation profile (when mem is non-empty) after a final GC so the
// numbers reflect live retention, not collection timing.
func startProfiles(cpu, mem string) error {
	if cpu == "" && mem == "" {
		return nil
	}
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		cpuF = f
	}
	var once sync.Once
	stopProfiles = func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if mem == "" {
				return
			}
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "treejoin: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "treejoin: memprofile: %v\n", err)
			}
			f.Close()
		})
	}
	return nil
}

// parseName returns the one of all whose String() is name, and fails naming
// every choice when none is.
func parseName[T fmt.Stringer](kind, name string, all ...T) T {
	names := make([]string, len(all))
	for i, v := range all {
		if names[i] = v.String(); names[i] == name {
			return v
		}
	}
	fail("unknown %s %q (want %s, or %s)", kind, name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	panic("unreachable")
}

func fail(format string, args ...any) {
	stopProfiles()
	fmt.Fprintf(os.Stderr, "treejoin: "+format+"\n", args...)
	os.Exit(1)
}
