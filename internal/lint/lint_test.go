package lint

// The fixture harness: each pass has a miniature module under
// testdata/src/<pass>/ whose sources carry expected-diagnostic
// comments — `// want` followed by one or more backquoted regexps that
// must each match a diagnostic on that line. The harness fails on
// both missing and unexpected diagnostics, so the fixtures pin the
// passes from both sides: every hazard is caught, every allowed shape
// stays quiet. TestRepoClean then asserts the real repository passes
// the whole suite with zero findings.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	wantLineRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")
	wantItemRe = regexp.MustCompile("`[^`]*`")
)

type want struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the fixture's Go sources for want comments,
// keyed "relfile:line".
func collectWants(t *testing.T, root string) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLineRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", rel, i+1)
			for _, item := range wantItemRe.FindAllString(m[1], -1) {
				re, err := regexp.Compile(strings.Trim(item, "`"))
				if err != nil {
					t.Fatalf("%s: bad want regexp %s: %v", key, item, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture loads testdata/src/<name> as module <module>, runs the
// given passes, and diffs the line-anchored diagnostics against the
// want comments. File-level diagnostics (no line) are returned for
// the caller to assert.
func runFixture(t *testing.T, name, module string, cfg Config, passes []*Pass) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	prog, err := Load(root, module)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	diags := NewChecker(prog, cfg).Run(passes)
	wants := collectWants(t, root)
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	var fileLevel []Diagnostic
	for _, d := range diags {
		if d.Position.Line == 0 {
			fileLevel = append(fileLevel, d)
			continue
		}
		rel, err := filepath.Rel(absRoot, d.Position.Filename)
		if err != nil {
			rel = d.Position.Filename
		}
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Position.Line)
		found := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Pass, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic at %s matching %q", key, w.re)
			}
		}
	}
	return fileLevel
}

func TestDeterminismFixture(t *testing.T) {
	cfg := Config{
		DetCorePkgs:    []string{"sim"},
		GoAllowedFiles: []string{"sim/spawn.go"},
	}
	extra := runFixture(t, "determinism", "detfx", cfg, []*Pass{determinismPass})
	if len(extra) != 0 {
		t.Errorf("unexpected file-level diagnostics: %v", extra)
	}
}

func TestPooledEscapeFixture(t *testing.T) {
	cfg := Config{
		PooledTypes:   []string{"poolfx/pool.Event"},
		PoolOwnerPkgs: []string{"pool"},
	}
	extra := runFixture(t, "pooledescape", "poolfx", cfg, []*Pass{pooledEscapePass})
	if len(extra) != 0 {
		t.Errorf("unexpected file-level diagnostics: %v", extra)
	}
}

func TestTelemetryNameFixture(t *testing.T) {
	cfg := Config{
		RegistryType:  "telfx/telemetry.Registry",
		InventoryFile: "inventory.txt",
	}
	fileLevel := runFixture(t, "telemetryname", "telfx", cfg, []*Pass{telemetryNamePass})
	stale := false
	for _, d := range fileLevel {
		if strings.Contains(d.Message, `"app.spills"`) && strings.Contains(d.Message, "registered nowhere") {
			stale = true
		} else {
			t.Errorf("unexpected file-level diagnostic: %s", d)
		}
	}
	if !stale {
		t.Error("missing stale-inventory diagnostic for app.spills")
	}
}

func TestCtxPlumbFixture(t *testing.T) {
	cfg := Config{CtxPkgs: []string{"api"}}
	extra := runFixture(t, "ctxplumb", "ctxfx", cfg, []*Pass{ctxPlumbPass})
	if len(extra) != 0 {
		t.Errorf("unexpected file-level diagnostics: %v", extra)
	}
}

func TestLockOrderFixture(t *testing.T) {
	cfg := Config{LockOrderPkgs: []string{"."}}
	extra := runFixture(t, "lockorder", "lockfx", cfg, []*Pass{lockOrderPass})
	if len(extra) != 0 {
		t.Errorf("unexpected file-level diagnostics: %v", extra)
	}
}

func TestGoroLeakFixture(t *testing.T) {
	cfg := Config{GoroTrackPkgs: []string{"."}}
	extra := runFixture(t, "goroleak", "gorofx", cfg, []*Pass{goroLeakPass})
	if len(extra) != 0 {
		t.Errorf("unexpected file-level diagnostics: %v", extra)
	}
}

func TestAllowAnnotationGrammar(t *testing.T) {
	extra := runFixture(t, "allow", "allowfx", Config{}, nil)
	if len(extra) != 0 {
		t.Errorf("unexpected file-level diagnostics: %v", extra)
	}
}

// TestRepoClean is the self-test the satellite asks for: the full
// suite, with the real repo's configuration, must report nothing on
// the tree as committed. A failure here is a failure of `make lint`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog, err := Load("../..", "")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	cfg := DefaultConfig(prog.ModulePath)
	checker := NewChecker(prog, cfg)
	for _, d := range checker.Run(Passes()) {
		t.Errorf("%s", d)
	}
	// The passes skip a package pattern that matches nothing and a type
	// name that resolves to nothing without a word, so a configuration
	// entry left behind by a deleted package would guard nothing.
	for _, pattern := range slices.Concat(cfg.DetCorePkgs, cfg.PoolOwnerPkgs, cfg.CtxPkgs, cfg.LockOrderPkgs, cfg.GoroTrackPkgs) {
		if !slices.ContainsFunc(prog.Packages, func(pk *Package) bool { return matchRel(pk.Rel, []string{pattern}) }) {
			t.Errorf("DefaultConfig package pattern %q matches no package", pattern)
		}
	}
	for _, name := range append([]string{cfg.RegistryType, cfg.ShardType}, cfg.PooledTypes...) {
		if len(checker.resolveNamed([]string{name})) == 0 {
			t.Errorf("DefaultConfig type %q resolves to no type", name)
		}
	}
	// internal/serve is clean by construction, not by exception: a job's
	// done channel has one closer and its stream one terminal write, so
	// an allow annotation there would be a design regression.
	serveDir := filepath.Join(prog.Root, "internal", "serve") + string(filepath.Separator)
	for file, lines := range checker.allows {
		if strings.HasPrefix(file, serveDir) && !strings.HasSuffix(file, "_test.go") {
			t.Errorf("%s carries %d //ggvet:allow annotation(s), want none in internal/serve", file, len(lines))
		}
	}
}
