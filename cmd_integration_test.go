package treejoin_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"treejoin"
)

// End-to-end integration tests: build the real CLI binaries once and drive
// them through the pipelines the README advertises, cross-checking their
// output against the library.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "treejoin-bins")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"datagen", "treejoin", "treesearch", "tedcalc"} {
			args := []string{"build", "-o", filepath.Join(binDir, tool)}
			if toolCoverDir != "" {
				args = append(args, "-cover")
			}
			cmd := exec.Command("go", append(args, "./cmd/"+tool)...)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

// toolCoverDir, when set, makes buildTools build the tools with -cover and
// every tool run write its coverage counters there (the CI coverage job
// merges them into its profile).
var toolCoverDir = os.Getenv("TREEJOIN_TOOL_COVERDIR")

// toolCmd is the command that runs the built tool name with args.
func toolCmd(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	if toolCoverDir != "" {
		cmd.Env = append(os.Environ(), "GOCOVERDIR="+toolCoverDir)
	}
	return cmd
}

func runTool(t *testing.T, name string, args ...string) (string, string, error) {
	t.Helper()
	cmd := toolCmd(t, name, args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

// runToFull runs a tool with its stdout on /dev/full, where every write fails
// with ENOSPC, and returns its stderr; the test is skipped where the device
// does not exist.
func runToFull(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	cmd := toolCmd(t, name, args...)
	var errb strings.Builder
	cmd.Stdout = full
	cmd.Stderr = &errb
	err = cmd.Run()
	return errb.String(), err
}

func itoa(n int) string { return strconv.Itoa(n) }

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("bad int %q: %v", s, err)
	}
	return n
}

// runToolStdin is runTool with the given stdin (for -watch pipelines).
func runToolStdin(t *testing.T, stdin, name string, args ...string) (string, string, error) {
	t.Helper()
	cmd := toolCmd(t, name, args...)
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

// TestCLIWatch: the -watch mode's delta stream matches the library's
// incremental join replaying the same mutation script — adds emit the new
// pairs, removals emit the retractions, comments and unknown ids are
// tolerated.
func TestCLIWatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	script := []string{
		"{a{b}{c}}",
		"{a{b}{d}}",
		"# a comment, then a blank line",
		"",
		"{a{b}{c}{d}}",
		"-0",
		"-99", // unknown id: warned on stderr, no delta
		"{z}",
		"{a{b}{d}}",
	}
	stdout, stderr, err := runToolStdin(t, strings.Join(script, "\n")+"\n", "treejoin", "-watch", "-tau", "1", "-stats")
	if err != nil {
		t.Fatalf("treejoin -watch: %v\nstderr: %s", err, stderr)
	}

	// Library mirror of the same script.
	lt := treejoin.NewLabelTable()
	inc, _ := mustCorpus(t, nil).Incremental(1)
	var want []string
	emit := func(sign byte, ps []treejoin.Pair) {
		for _, p := range ps {
			want = append(want, string(sign)+"\t"+itoa(p.I)+"\t"+itoa(p.J)+"\t"+itoa(p.Dist))
		}
	}
	for _, line := range script {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "-"):
			if inc.Remove(atoi(t, line[1:])) {
				emit('-', inc.Retracted())
			}
		default:
			emit('+', inc.Add(treejoin.MustParseBracket(line, lt)))
		}
	}
	got := nonEmptyLines(stdout)
	if len(got) != len(want) {
		t.Fatalf("watch emitted %d deltas, want %d:\n%s\nwant:\n%s",
			len(got), len(want), stdout, strings.Join(want, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delta %d = %q, want %q", i, got[i], want[i])
		}
	}
	if !strings.Contains(stderr, "no live tree with id 99") {
		t.Fatalf("unknown-id removal not reported: %s", stderr)
	}
	if !strings.Contains(stderr, "standing:") {
		t.Fatalf("-stats summary missing: %s", stderr)
	}
}

// TestCLIPipeline: datagen → treejoin agrees with the library on the same
// dataset, across text and binary formats and all methods.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	txt := filepath.Join(dir, "trees.txt")
	bin := filepath.Join(dir, "trees.tjds")

	out, _, err := runTool(t, "datagen", "-profile", "synthetic", "-n", "60", "-seed", "5")
	if err != nil {
		t.Fatalf("datagen: %v", err)
	}
	if err := os.WriteFile(txt, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runTool(t, "datagen", "-profile", "synthetic", "-n", "60", "-seed", "5", "-o", bin); err != nil {
		t.Fatalf("datagen binary: %v", err)
	}

	// Library ground truth over the same file.
	ts, err := treejoin.ReadBracketFile(txt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := selfJoin(t, ts, 2)

	for _, input := range []string{txt, bin} {
		for _, method := range []string{"PRT", "STR", "SET", "HIST", "EUL", "PQG"} {
			stdout, _, err := runTool(t, "treejoin", "-input", input, "-tau", "2", "-method", method)
			if err != nil {
				t.Fatalf("treejoin %s %s: %v", input, method, err)
			}
			lines := nonEmptyLines(stdout)
			if len(lines) != len(want) {
				t.Fatalf("%s %s: %d pairs, want %d", filepath.Base(input), method, len(lines), len(want))
			}
		}
	}

	// Parallel workers agree too.
	stdout, _, err := runTool(t, "treejoin", "-input", bin, "-tau", "2", "-workers", "3")
	if err != nil {
		t.Fatalf("workers: %v", err)
	}
	if got := nonEmptyLines(stdout); len(got) != len(want) {
		t.Fatalf("workers: %d pairs, want %d", len(got), len(want))
	}

	// A prefilter chain leaves the result set unchanged and reports its
	// stages in -stats output.
	stdout, stderrOut, err := runTool(t, "treejoin", "-input", txt, "-tau", "2",
		"-prefilter", "HIST,PQG", "-stats")
	if err != nil {
		t.Fatalf("prefilter: %v", err)
	}
	if got := nonEmptyLines(stdout); len(got) != len(want) {
		t.Fatalf("prefilter: %d pairs, want %d", len(got), len(want))
	}
	if !strings.Contains(stderrOut, "stage HIST") || !strings.Contains(stderrOut, "stage PQG") {
		t.Fatalf("prefilter stats missing stage lines:\n%s", stderrOut)
	}

	// -explain runs no join: it prints no pair line, and its plan line is the
	// one a -stats run of the same query then reports.
	planLine := func(out string) string {
		t.Helper()
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "plan:") {
				return l
			}
		}
		t.Fatalf("no plan line in:\n%s", out)
		return ""
	}
	stdout, _, err = runTool(t, "treejoin", "-input", txt, "-tau", "2", "-method", "PQG", "-explain")
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, l := range nonEmptyLines(stdout) {
		if f := strings.Split(l, "\t"); len(f) == 3 {
			t.Fatalf("explain printed a pair line %q", l)
		}
	}
	explained := planLine(stdout)
	_, stderrOut, err = runTool(t, "treejoin", "-input", txt, "-tau", "2", "-method", "PQG", "-stats", "-quiet")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if ran := planLine(stderrOut); ran != explained {
		t.Fatalf("-explain said %q, the -stats run %q", explained, ran)
	}

	// Cross join of the file against itself: every self-join pair appears
	// (plus the diagonal and mirrored pairs).
	stdout, _, err = runTool(t, "treejoin", "-input", txt, "-other", txt, "-tau", "2", "-method", "EUL")
	if err != nil {
		t.Fatalf("cross: %v", err)
	}
	crossLines := nonEmptyLines(stdout)
	ts2, err := treejoin.ReadBracketFile(txt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantCross := 2*len(want) + len(ts2); len(crossLines) != wantCross {
		t.Fatalf("cross self×self: %d pairs, want %d", len(crossLines), wantCross)
	}

	// TopK prints exactly K lines when enough pairs exist.
	if len(want) >= 3 {
		stdout, _, err = runTool(t, "treejoin", "-input", txt, "-topk", "3")
		if err != nil {
			t.Fatalf("topk: %v", err)
		}
		if got := nonEmptyLines(stdout); len(got) != 3 {
			t.Fatalf("topk: %d lines", len(got))
		}
	}
}

// TestCLISearch: treesearch threshold and kNN modes against the library.
func TestCLISearch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	txt := filepath.Join(dir, "trees.txt")
	data := "{a{b}{c}}\n{a{b}{c}{d}}\n{x{y{z}}}\n"
	if err := os.WriteFile(txt, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := runTool(t, "treesearch", "-input", txt, "-tau", "1", "-query", "{a{b}{c}}")
	if err != nil {
		t.Fatalf("treesearch: %v", err)
	}
	lines := nonEmptyLines(stdout)
	if len(lines) != 2 { // itself and the 4-node variant
		t.Fatalf("threshold search: %v", lines)
	}
	stdout, _, err = runTool(t, "treesearch", "-input", txt, "-k", "2", "-query", "{a{b}{c}}")
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	lines = nonEmptyLines(stdout)
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "0\t0\t0") {
		t.Fatalf("knn search: %v", lines)
	}

	// Newick dataset with a Newick query.
	nwk := filepath.Join(dir, "trees.nwk")
	if err := os.WriteFile(nwk, []byte("(B,C)A;\n(B,C,D)A;\n(Y)X;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _, err = runTool(t, "treesearch", "-input", nwk, "-tau", "1", "-query", "(B,C)A;")
	if err != nil {
		t.Fatalf("newick search: %v", err)
	}
	if lines := nonEmptyLines(stdout); len(lines) != 2 {
		t.Fatalf("newick search: %v", lines)
	}

	// Results that cannot be written are an error, not an exit 0.
	stderr, err := runToFull(t, "treesearch", "-input", txt, "-tau", "1", "-query", "{a{b}{c}}")
	if err == nil || !strings.Contains(stderr, "no space left on device") {
		t.Fatalf("treesearch > /dev/full: %v, stderr %q", err, stderr)
	}
}

// TestCLITedcalc: distance, bounded exit codes, script and morph views.
func TestCLITedcalc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	stdout, _, err := runTool(t, "tedcalc", "{a{b}{c}}", "{a{b}{d}}")
	if err != nil || strings.TrimSpace(stdout) != "1" {
		t.Fatalf("tedcalc: %q, %v", stdout, err)
	}
	// Bounded mode exits 1 when the distance exceeds the bound.
	_, _, err = runTool(t, "tedcalc", "-tau", "0", "{a{b}{c}}", "{a{b}{d}}")
	if err == nil {
		t.Fatal("tedcalc -tau 0 on distance-1 pair exited 0")
	}
	stdout, _, err = runTool(t, "tedcalc", "-script", "{a{b}{c}}", "{a{b}{d}}")
	if err != nil || !strings.Contains(stdout, "rename") {
		t.Fatalf("script: %q, %v", stdout, err)
	}
	stdout, _, err = runTool(t, "tedcalc", "-morph", "{a{b}{c}}", "{a{b}{d}}")
	if err != nil {
		t.Fatalf("morph: %v", err)
	}
	if lines := nonEmptyLines(stdout); len(lines) != 2 {
		t.Fatalf("morph steps: %v", lines)
	}
	stdout, _, err = runTool(t, "tedcalc", "-constrained", "{a{b{c}}}", "{a{c}}")
	if err != nil || !strings.Contains(stdout, "constrained 1") {
		t.Fatalf("constrained: %q, %v", stdout, err)
	}
	// A distance that cannot be written is an error, not an exit 0.
	stderr, err := runToFull(t, "tedcalc", "{a{b}{c}}", "{a{b}{d}}")
	if err == nil || !strings.Contains(stderr, "no space left on device") {
		t.Fatalf("tedcalc > /dev/full: %v, stderr %q", err, stderr)
	}
}

// TestCLIScrubSalvage: the integrity tooling end to end through the command —
// a clean store scrubs clean; a segment corrupted on disk fails -scrub by
// name; -salvage quarantines it, keeps the other segment's trees, and leaves
// a store that scrubs clean and joins again.
func TestCLIScrubSalvage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "corpus")
	writeTrees := func(name string, trees []string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(trees, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Two ingest runs → two segments (each run's Close flushes its memtable).
	in1 := writeTrees("a.txt", []string{"{a{b}{c}}", "{a{b}{d}}", "{a{b}}"})
	in2 := writeTrees("b.txt", []string{"{x{y}{z}}", "{x{y}}"})
	for _, in := range []string{in1, in2} {
		if _, stderr, err := runTool(t, "treejoin", "-store", storeDir, "-input", in, "-tau", "1", "-quiet"); err != nil {
			t.Fatalf("ingest: %v\nstderr: %s", err, stderr)
		}
	}
	_, stderr, err := runTool(t, "treejoin", "-store", storeDir, "-scrub")
	if err != nil {
		t.Fatalf("scrub of a healthy store: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "0 fault(s)") {
		t.Fatalf("clean scrub summary missing: %s", stderr)
	}
	// Bit rot hits the first segment.
	segs, err := filepath.Glob(filepath.Join(storeDir, "seg-*.tjsg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, err = runTool(t, "treejoin", "-store", storeDir, "-scrub"); err == nil {
		t.Fatalf("scrub missed the corruption: %s", stderr)
	}
	if !strings.Contains(stderr, "FAULT") || !strings.Contains(stderr, filepath.Base(segs[0])) {
		t.Fatalf("faulty segment not named: %s", stderr)
	}
	if _, stderr, err = runTool(t, "treejoin", "-store", storeDir, "-salvage"); err != nil {
		t.Fatalf("salvage: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "quarantined "+filepath.Base(segs[0])) {
		t.Fatalf("salvage report missing: %s", stderr)
	}
	if _, err := os.Stat(segs[0] + ".quarantine"); err != nil {
		t.Fatalf("quarantine file not preserved: %v", err)
	}
	// The salvaged store is healthy: clean scrub, working join over the
	// surviving trees.
	if _, stderr, err = runTool(t, "treejoin", "-store", storeDir, "-scrub"); err != nil {
		t.Fatalf("scrub after salvage: %v\nstderr: %s", err, stderr)
	}
	stdout, stderr, err := runTool(t, "treejoin", "-store", storeDir, "-tau", "1")
	if err != nil {
		t.Fatalf("join after salvage: %v\nstderr: %s", err, stderr)
	}
	if len(nonEmptyLines(stdout)) == 0 {
		t.Fatalf("surviving segment's near-pair lost: %q", stdout)
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
