// Package escape turns the compiler's own escape analysis into a
// machine-checked performance contract. For every package containing a
// //schedlint:hotpath-reachable function it runs
// `go build -gcflags=-m=2`, keeps the heap diagnostics (`escapes to
// heap`, `moved to heap`) and reports each one attributed to a
// hot-path-reachable function (per the callgraph package's
// reachability pass). Inlining decisions are not heap work: what they
// cost is speed, which the benchmarks measure end to end.
//
// The repository's allocation victories — the 0 allocs/event DES
// engine, the allocation-free per-job streaming replay — are invisible
// to the type system: one innocent closure capture or interface boxing
// silently reverts them. The compiler knows at build time; this
// analyzer makes it say so in review. What the compiler cannot see —
// a map that grows, an append to a nil slice, a string([]byte)
// conversion — is the measured gate's: scripts/bench_check.sh ratchets
// allocs/op and B/op on the tracked benchmarks, and the zero-allocation
// tests pin the per-event and per-record kernels.
//
// Ratchet semantics: the committed ESCAPES.baseline snapshot sanctions
// the current, benchmarked set of escapes under stable keys
// (package, function, normalized reason — no line numbers), so the
// tree is clean today, a *new* escape in hot code fails CI, and a
// removed one shows up as a stale entry that
// `schedlint -update-baseline` shrinks away. Line-local, temporary
// exemptions can use //schedlint:allow escape <reason> instead; the
// baseline is the canonical store for sanctioned escapes.
package escape

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"parsched/internal/analysis/callgraph"
	"parsched/internal/analysis/framework"
)

// Analyzer is the escape-diagnostics check.
var Analyzer = &framework.Analyzer{
	Name: "escape",
	Doc: "forbid unsanctioned heap escapes and closure allocations in " +
		"//schedlint:hotpath-reachable code (compiler -m heap diagnostics vs ESCAPES.baseline)",
	Run: run,
}

// BaselinePath names the sanctioned-escapes snapshot. Empty disables
// baseline filtering (every hot-path diagnostic is reported), which is
// what the fixture tests use. cmd/schedlint points it at the module's
// committed ESCAPES.baseline.
var BaselinePath string

// Key identifies one sanctioned escape independent of line numbers:
// the same function re-ordered or re-indented keeps its key, a new
// escape in it does not.
type Key struct {
	Pkg    string
	Func   string
	Reason string
}

// collection accumulates the raw (pre-baseline) findings and baseline
// matches of the current process, for -update-baseline and stale-entry
// reporting. The framework driver is single-threaded.
var (
	collected    []Key
	collectedSet map[Key]bool
	analyzed     map[string]bool
	matchedKeys  map[Key]bool
)

// ResetCollection clears the accumulated findings (tests).
func ResetCollection() {
	collected, collectedSet, analyzed, matchedKeys = nil, nil, nil, nil
}

// Collected returns every raw hot-path escape key seen by the analyzer
// in this process, sorted — the content -update-baseline writes.
func Collected() []Key {
	out := append([]Key(nil), collected...)
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Stale returns the baseline entries that belong to packages this
// process analyzed but that no current finding matched: escapes that
// were fixed and can be ratcheted out with -update-baseline.
func Stale() []Key {
	if BaselinePath == "" {
		return nil
	}
	base, err := ReadBaseline(BaselinePath)
	if err != nil {
		return nil
	}
	var out []Key
	for _, k := range base {
		if analyzed[k.Pkg] && !matchedKeys[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// MergedBaseline returns what an -update-baseline run should write:
// the current findings for every package this process analyzed, plus
// the existing baseline's entries for packages outside the run's scope
// (a partial `schedlint ./internal/sim` must not drop the rest of the
// tree's sanctions).
func MergedBaseline() []Key {
	out := append([]Key(nil), collected...)
	if BaselinePath != "" {
		if base, err := ReadBaseline(BaselinePath); err == nil {
			for _, k := range base {
				if !analyzed[k.Pkg] {
					out = append(out, k)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

func (k Key) less(o Key) bool {
	if k.Pkg != o.Pkg {
		return k.Pkg < o.Pkg
	}
	if k.Func != o.Func {
		return k.Func < o.Func
	}
	return k.Reason < o.Reason
}

// ReadBaseline parses a baseline file: one tab-separated
// pkg/func/reason triple per line, '#' comments and blanks ignored.
func ReadBaseline(path string) ([]Key, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys []Key
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("escape baseline %s: malformed line %q (want pkg<TAB>func<TAB>reason)", path, line)
		}
		keys = append(keys, Key{Pkg: parts[0], Func: parts[1], Reason: parts[2]})
	}
	return keys, sc.Err()
}

// WriteBaseline writes keys as a baseline file, sorted and
// deduplicated, with a header documenting the ratchet.
func WriteBaseline(path string, keys []Key) error {
	sorted := append([]Key(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].less(sorted[j]) })
	var b strings.Builder
	b.WriteString("# ESCAPES.baseline — sanctioned compiler heap diagnostics (escapes to\n")
	b.WriteString("# heap, moved to heap) in //schedlint:hotpath-reachable code. One\n")
	b.WriteString("# tab-separated entry per line:\n")
	b.WriteString("#   package<TAB>function<TAB>normalized reason\n")
	b.WriteString("# Keys carry no line numbers, so they survive refactors that do not\n")
	b.WriteString("# change the escape itself. Regenerate with:\n")
	b.WriteString("#   go run ./cmd/schedlint -update-baseline ./...\n")
	b.WriteString("# New entries appearing in a diff are new heap work on a hot path —\n")
	b.WriteString("# review them against a benchmark, do not wave them through.\n")
	var prev Key
	for i, k := range sorted {
		if i > 0 && k == prev {
			continue
		}
		prev = k
		fmt.Fprintf(&b, "%s\t%s\t%s\n", k.Pkg, k.Func, k.Reason)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func record(k Key) {
	if collectedSet == nil {
		collectedSet = map[Key]bool{}
	}
	if !collectedSet[k] {
		collectedSet[k] = true
		collected = append(collected, k)
	}
}

// diag is one parsed top-level compiler diagnostic.
type diag struct {
	file   string
	line   int
	col    int
	reason string // normalized
}

var posRE = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

const subjectMax = 48

// normalize classifies one compiler message into a stable finding
// reason, or "" for messages the contract does not cover (negative
// results, inlining decisions, parameter leaks).
func normalize(msg string) string {
	if subject, ok := strings.CutPrefix(msg, "moved to heap: "); ok {
		return "moved to heap: " + clampSubject(subject)
	}
	// "<subject> escapes to heap" (with a trailing colon under -m=2,
	// where the flow trace follows). Exclude the negatives.
	trimmed := strings.TrimSuffix(msg, ":")
	if strings.HasSuffix(trimmed, " escapes to heap") && !strings.Contains(trimmed, "does not escape") {
		subject := strings.TrimSuffix(trimmed, " escapes to heap")
		return "escapes to heap: " + clampSubject(subject)
	}
	return ""
}

// clampSubject bounds a diagnostic subject (which can embed whole
// expressions) so baseline keys stay short and stable, and keeps them
// tab-free to preserve the file format.
func clampSubject(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	if len(s) > subjectMax {
		s = s[:subjectMax] + "..."
	}
	return s
}

// compile runs the compiler over the package rooted at dir and returns
// its parsed -m=2 diagnostics. The package must sit inside some module
// (the repository's own, or a fixture module committed under
// testdata/src); go's build cache replays diagnostics on repeat runs,
// so warm runs cost a cache lookup, not a compile.
func compile(dir string, isMain bool) ([]diag, error) {
	args := []string{"build", "-gcflags=-m=2"}
	if isMain {
		// A main package would drop its binary into the source tree.
		out := filepath.Join(os.TempDir(), fmt.Sprintf("schedlint-escape-%d", os.Getpid()))
		defer os.Remove(out)
		args = append(args, "-o", out)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOFLAGS=-mod=mod")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 in %s: %v: %s", dir, err, stderr.String())
	}
	var out []diag
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		m := posRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue // "# pkg" banners and malformed lines
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") {
			continue // -m=2 flow-trace continuation, indented after the position
		}
		reason := normalize(msg)
		if reason == "" {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		out = append(out, diag{file: m[1], line: line, col: col, reason: reason})
	}
	return out, sc.Err()
}

func run(pass *framework.Pass) error {
	g := callgraph.Of(pass)
	if !g.HasHot() {
		return nil // cold package: no contract, no compile
	}
	if analyzed == nil {
		analyzed = map[string]bool{}
	}
	analyzed[pass.Path] = true

	diags, err := compile(pass.Dir, pass.Pkg != nil && pass.Pkg.Name() == "main")
	if err != nil {
		return err
	}

	// The compiler may print positions absolute, module-relative, or
	// ./-relative depending on how the cached compile was first invoked;
	// within one package basenames are unique, so resolve through them.
	// Absolute paths outside the package directory (generic shape
	// instantiations reported against library sources) are discarded.
	fileByBase := map[string]*token.File{}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil {
			fileByBase[filepath.Base(tf.Name())] = tf
		}
	}

	var baseline map[Key]bool
	if BaselinePath != "" {
		keys, err := ReadBaseline(BaselinePath)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		baseline = map[Key]bool{}
		for _, k := range keys {
			baseline[k] = true
		}
	}
	if matchedKeys == nil {
		matchedKeys = map[Key]bool{}
	}

	// -m=2 can state the same fact twice (once bare, once introducing
	// its flow trace); report each (position, reason) once.
	type site struct {
		pos    token.Pos
		reason string
	}
	seen := map[site]bool{}

	for _, d := range diags {
		if filepath.IsAbs(d.file) && filepath.Dir(filepath.Clean(d.file)) != filepath.Clean(pass.Dir) {
			continue
		}
		tf, ok := fileByBase[filepath.Base(d.file)]
		if !ok || d.line < 1 || d.line > tf.LineCount() {
			continue
		}
		pos := tf.LineStart(d.line) + token.Pos(d.col-1)
		if seen[site{pos, d.reason}] {
			continue
		}
		seen[site{pos, d.reason}] = true
		n := g.Enclosing(pos)
		if n == nil || !n.Hot {
			continue
		}
		key := Key{Pkg: pass.Path, Func: n.Name(), Reason: d.reason}
		record(key)
		if baseline != nil && baseline[key] {
			matchedKeys[key] = true
			continue
		}
		pass.Reportf(pos, "%s in hot path (via %s); benchmark it, then sanction with -update-baseline or //schedlint:allow escape <reason>",
			d.reason, n.Via)
	}
	return nil
}
