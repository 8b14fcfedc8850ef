package ggpdes

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"ggpdes/internal/checkpoint"
	"ggpdes/internal/tw"
)

// ckptCfg returns a small checkpointed configuration: every 2 GVT
// rounds the run quiesces, snapshots to dir, and continues from the
// serialized form.
func ckptCfg(model Model, g GVT, dir string) Config {
	return Config{
		Model:                model,
		Threads:              4,
		System:               GGPDES,
		GVT:                  g,
		EndTime:              40,
		Machine:              SmallMachine(),
		GVTFrequency:         10,
		ZeroCounterThreshold: 60,
		Checkpoint:           &CheckpointOptions{Every: 2, Dir: dir},
	}
}

func listCheckpoints(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return paths
}

// The acceptance property: killing a run at ANY checkpoint boundary and
// resuming from the snapshot produces Results identical to the run
// having finished uninterrupted — for every model and GVT algorithm,
// and for every engine and scheduler feature that has state to carry
// across a boundary. (A process killed between boundaries restarts from
// the latest snapshot and replays the partial segment, which is the
// same trajectory.) The uninterrupted run continues each segment from
// the captured engine state and the resumed one from the decoded file,
// so this is also the proof that the two are the same continuation.
func TestCheckpointResumeMatrix(t *testing.T) {
	models := []Model{
		PHOLD{LPsPerThread: 4, Imbalance: 2},
		Epidemics{LPsPerThread: 8, LockdownGroups: 4, ContactRate: 3, TransmissionProb: 0.5},
		Traffic{LPsPerThread: 4, CenterStartEvents: 6},
	}
	variants := []struct {
		name string
		vary func(*Config)
	}{
		{"", func(*Config) {}},
		{"/dd", func(c *Config) { c.System = DDPDES }},
		{"/window", func(c *Config) { c.OptimismWindow = 5 }},
		{"/observed", func(c *Config) {
			c.Series = &SeriesOptions{}
			c.Telemetry = NewRegistry()
		}},
	}
	for _, model := range models {
		for _, g := range []GVT{Barrier, WaitFree} {
			for _, v := range variants {
				name := model.Name() + "/" + g.String() + v.name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					dir := t.TempDir()
					cfg := ckptCfg(model, g, dir)
					v.vary(&cfg)
					full, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if full.FinalGVT < 40 {
						t.Fatalf("incomplete run: GVT %v", full.FinalGVT)
					}
					paths := listCheckpoints(t, dir)
					if len(paths) < 2 {
						t.Fatalf("want >= 2 checkpoints, got %d (rounds %d)", len(paths), full.GVTRounds)
					}
					for _, path := range paths {
						// Observers are not in the file; a resumed run gets
						// fresh ones of the same kind.
						var opts *ResumeOptions
						if cfg.Series != nil {
							opts = &ResumeOptions{Series: &SeriesOptions{}, Telemetry: NewRegistry()}
						}
						resumed, err := ResumeContext(context.Background(), path, opts)
						if err != nil {
							t.Fatalf("resume %s: %v", filepath.Base(path), err)
						}
						want := *full
						if cfg.Series != nil {
							// The resumed run saw only the rounds after its
							// snapshot: its series is the full one's tail.
							n := len(resumed.Series)
							if n == 0 || n >= len(full.Series) {
								t.Fatalf("resume %s recorded %d of %d series points", filepath.Base(path), n, len(full.Series))
							}
							want.Series = full.Series[len(full.Series)-n:]
						}
						if !reflect.DeepEqual(&want, resumed) {
							t.Errorf("resume from %s diverged:\nfull:    %+v\nresumed: %+v",
								filepath.Base(path), &want, resumed)
						}
					}
				})
			}
		}
	}
}

// Two checkpointed runs of the same config must write byte-identical
// snapshot files, and a resumed run re-writes the later checkpoints
// with the exact bytes of the original.
func TestCheckpointBytesDeterministic(t *testing.T) {
	model := PHOLD{LPsPerThread: 4, Imbalance: 2}
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := Run(ckptCfg(model, WaitFree, dirA)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ckptCfg(model, WaitFree, dirB)); err != nil {
		t.Fatal(err)
	}
	pathsA := listCheckpoints(t, dirA)
	pathsB := listCheckpoints(t, dirB)
	if len(pathsA) != len(pathsB) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(pathsA), len(pathsB))
	}
	read := func(p string) []byte {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := range pathsA {
		// Snapshots embed Config including Checkpoint.Dir, which differs
		// between the two runs — compare everything but the raw config.
		sa, err := checkpoint.Read(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		sb, err := checkpoint.Read(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		sa.Config, sb.Config = nil, nil
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("checkpoint %d differs between identical runs", i)
		}
	}
	// Resuming from the first checkpoint must re-write the later ones
	// byte-for-byte (same dir, so the embedded config matches too).
	orig := make(map[string][]byte)
	for _, p := range pathsA[1:] {
		orig[p] = read(p)
	}
	if _, err := Resume(pathsA[0]); err != nil {
		t.Fatal(err)
	}
	for p, want := range orig {
		if got := read(p); !bytes.Equal(got, want) {
			t.Fatalf("resume re-wrote %s with different bytes", filepath.Base(p))
		}
	}
}

// The benchmark's Epidemics shape across the line where a household's
// agents stop fitting inside its state (4, the paper's, and 9), at four
// cadences: the uninterrupted run adopts its predecessor's LP states at
// every boundary, Resume decodes them from the file, and from every
// boundary the two must be the same run — whole Results, and every later
// snapshot re-written byte for byte.
func TestResumeFromEveryEpidemicsBoundary(t *testing.T) {
	for _, agents := range []int{4, 9} {
		for _, every := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("agents=%d/every=%d", agents, every), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				cfg := ckptBenchCfg(dir)
				cfg.Model = Epidemics{LPsPerThread: 64, SeedsPerWindow: 24, AgentsPerHousehold: agents}
				cfg.Checkpoint.Every = every
				if every == 1 {
					// A boundary after every round rolls back so much that the
					// full length takes 278 of them, and each is a Resume here.
					cfg.EndTime = 6
				}
				full, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				paths := listCheckpoints(t, dir)
				if len(paths) < 2 {
					t.Fatalf("want >= 2 checkpoints, got %d (rounds %d)", len(paths), full.GVTRounds)
				}
				files := make([][]byte, len(paths))
				for i, p := range paths {
					if files[i], err = os.ReadFile(p); err != nil {
						t.Fatal(err)
					}
				}
				for i, path := range paths {
					resumed, err := Resume(path)
					if err != nil {
						t.Fatalf("resume %s: %v", filepath.Base(path), err)
					}
					diffResults(t, "uninterrupted", "resumed from "+filepath.Base(path), full, resumed)
					for k := i + 1; k < len(paths); k++ {
						if got, err := os.ReadFile(paths[k]); err != nil || !bytes.Equal(got, files[k]) {
							t.Fatalf("resume from %s re-wrote %s with different bytes (err %v)",
								filepath.Base(path), filepath.Base(paths[k]), err)
						}
					}
				}
			})
		}
	}
}

// Checkpointing is part of the trajectory (quiescing perturbs
// speculation), so Every enters the cache key; Dir does not.
func TestCheckpointCacheKey(t *testing.T) {
	base := quickCfg()
	plain, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	ck := base
	ck.Checkpoint = &CheckpointOptions{Every: 2, Dir: "/tmp/x"}
	a, err := ck.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if a == plain {
		t.Fatal("Checkpoint.Every did not change the key")
	}
	ck.Checkpoint = &CheckpointOptions{Every: 2, Dir: "/tmp/y"}
	b, err := ck.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Checkpoint.Dir changed the key")
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, Barrier, dir)); err != nil {
		t.Fatal(err)
	}
	path := listCheckpoints(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload: the CRC must catch it.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	bad := filepath.Join(dir, "bad"+checkpoint.Ext)
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCheckpointCorrupt", err)
	}
	// Truncation must be caught too.
	if err := os.WriteFile(bad, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("truncated snapshot: got %v, want ErrCheckpointCorrupt", err)
	}
	// A well-formed snapshot whose embedded config turns on a retired
	// option names a run this engine cannot continue.
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	cfgJSON := snap.Config
	for _, retired := range []string{`"lazy_cancellation":true,`, `"adaptive_gvt":{"min_frequency":4,"max_frequency":64},`} {
		snap.Config = append([]byte("{"+retired), cfgJSON[1:]...)
		written, err := checkpoint.Write(t.TempDir(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(written); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("snapshot with %s: got %v, want ErrCheckpointCorrupt", retired, err)
		}
	}
}

// A snapshot whose checksum holds can still describe an engine its
// config cannot be: re-encoded after a mutation, each row below is
// refused with ErrCheckpointCorrupt before a single event runs, where
// it used to panic a simulation thread, fail an invariant untyped, or
// — a record for another peer's LP, an LP that does not exist, a
// time that is not a number — run on silently along another trajectory.
func TestResumeRejectsImpossibleState(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, Barrier, dir)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(listCheckpoints(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	// record returns the first pending record and the peer holding it.
	record := func(st *tw.EngineState) (*tw.EventRecord, int) {
		for i, recs := range st.Pending {
			if len(recs) > 0 {
				return &recs[0], i
			}
		}
		t.Fatal("snapshot holds no pending event")
		return nil, 0
	}
	perThread := cfg.Model.(PHOLD).LPsPerThread
	for name, mutate := range map[string]func(st *tw.EngineState){
		"dst-beyond":     func(st *tw.EngineState) { r, _ := record(st); r.Dst = 1 << 20 },
		"dst-negative":   func(st *tw.EngineState) { r, _ := record(st); r.Dst = -1 },
		"dst-other-peer": func(st *tw.EngineState) { r, i := record(st); r.Dst = (i + 1) % cfg.Threads * perThread },
		"src-beyond":     func(st *tw.EngineState) { r, _ := record(st); r.Src = 1 << 20 },
		"lvt-nan":        func(st *tw.EngineState) { st.LPs[1].LVT = math.NaN() },
		"gvt-nan":        func(st *tw.EngineState) { st.GVT = math.NaN() },
		"ts-nan":         func(st *tw.EngineState) { r, _ := record(st); r.Ts = math.NaN() },
		"ts-below-gvt":   func(st *tw.EngineState) { r, _ := record(st); r.Ts = st.GVT - 1 },
		"seq-beyond":     func(st *tw.EngineState) { r, _ := record(st); r.Seq = st.Seq + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			snap, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			mutate(snap.Engine)
			path, err := checkpoint.Write(t.TempDir(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(path); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
			}
		})
	}
}

// Without a directory, checkpointing still segments the run (and stays
// deterministic) — nothing is persisted, and nothing is encoded either:
// no snapshot is ever handed to the writer.
func TestCheckpointWithoutDir(t *testing.T) {
	cfg := ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, WaitFree, "")
	cfg.Seed = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := &runState{cfg: cfg}
	b, err := rs.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("dir-less checkpointed runs diverged")
	}
	if rs.segments < 2 {
		t.Fatalf("run crossed %d boundaries, want >= 2", rs.segments)
	}
	if rs.written != 0 || rs.writing != nil || rs.cfgJSON != nil {
		t.Fatalf("dir-less run reached the snapshot writer: %d files, config encoded: %v", rs.written, rs.cfgJSON != nil)
	}
	// The same run with a directory hands over one file per boundary.
	rs = &runState{cfg: ckptCfg(cfg.Model, cfg.GVT, t.TempDir())}
	rs.cfg.Seed = 1
	if _, err := rs.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rs.written != rs.segments || rs.writing != nil {
		t.Fatalf("%d files for %d boundaries, write still in flight: %v", rs.written, rs.segments, rs.writing != nil)
	}
}

// expiringContext is a context whose deadline expires when the test
// says so, not when a clock does.
type expiringContext struct {
	context.Context
	done chan struct{}
}

func (c *expiringContext) Done() <-chan struct{} { return c.done }

func (c *expiringContext) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// However a checkpointed run ends, when RunContext returns the snapshot
// writer is gone with it, and so are the coroutines its machines handed
// on from segment to segment: no goroutine is left, no staging file,
// every snapshot in the directory is whole, and resuming from the latest
// one finishes the run as if nothing had happened. The same holds for a
// run resumed from its middle snapshot, completed or cancelled. A run
// that cannot write fails with the cause wrapped and returns no Results.
func TestCheckpointWriterLifecycle(t *testing.T) {
	model := PHOLD{LPsPerThread: 4, Imbalance: 2}
	fullDir := t.TempDir()
	full, err := Run(ckptCfg(model, WaitFree, fullDir))
	if err != nil {
		t.Fatal(err)
	}
	middle := filepath.Join(fullDir, checkpoint.FileName((len(listCheckpoints(t, fullDir))+1)/2))
	// stopAt arms cfg to call stop at its n-th GVT publication that
	// moved GVT; boundaries fall on every second publication.
	stopAt := func(cfg *Config, n int, stop func()) {
		var last float64
		cfg.Series = &SeriesOptions{Func: func(pt SeriesPoint) {
			if pt.GVT == last {
				return
			}
			last = pt.GVT
			if n--; n == 0 {
				stop()
			}
		}}
	}
	cases := []struct {
		name string
		// arm prepares the run and returns its context.
		arm func(t *testing.T, cfg *Config) context.Context
		// check inspects what RunContext returned.
		check func(t *testing.T, res *Results, err error)
		// snapshots is whether the directory must hold one to resume from.
		snapshots bool
		// resume is whether the run under test resumes from the middle
		// snapshot, with the armed series and directory as options.
		resume bool
	}{
		{"completed", func(*testing.T, *Config) context.Context { return context.Background() },
			func(t *testing.T, res *Results, err error) {
				if err != nil || !reflect.DeepEqual(full, res) {
					t.Fatalf("run returned %+v, %v", res, err)
				}
			}, true, false},
		{"cancelled", func(t *testing.T, cfg *Config) context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			stopAt(cfg, 7, cancel)
			return ctx
		}, func(t *testing.T, res *Results, err error) {
			if res != nil || !errors.Is(err, ErrCancelled) {
				t.Fatalf("run returned %+v, %v; want ErrCancelled", res, err)
			}
		}, true, false},
		{"deadline", func(t *testing.T, cfg *Config) context.Context {
			ctx := &expiringContext{context.Background(), make(chan struct{})}
			stopAt(cfg, 7, func() { close(ctx.done) })
			return ctx
		}, func(t *testing.T, res *Results, err error) {
			if res != nil || !errors.Is(err, ErrDeadline) {
				t.Fatalf("run returned %+v, %v; want ErrDeadline", res, err)
			}
		}, true, false},
		{"write-fails", func(t *testing.T, cfg *Config) context.Context {
			// A directory squats on the second snapshot's name, so its
			// rename fails after the bytes were staged.
			if err := os.Mkdir(filepath.Join(cfg.Checkpoint.Dir, checkpoint.FileName(2)), 0o755); err != nil {
				t.Fatal(err)
			}
			return context.Background()
		}, func(t *testing.T, res *Results, err error) {
			var cause *os.LinkError
			if res != nil || !errors.As(err, &cause) {
				t.Fatalf("run returned %+v, %v; want a wrapped rename error", res, err)
			}
		}, true, false},
		{"dir-is-a-file", func(t *testing.T, cfg *Config) context.Context {
			cfg.Checkpoint.Dir = filepath.Join(cfg.Checkpoint.Dir, "file")
			if err := os.WriteFile(cfg.Checkpoint.Dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return context.Background()
		}, func(t *testing.T, res *Results, err error) {
			var cause *os.PathError
			if res != nil || !errors.As(err, &cause) {
				t.Fatalf("run returned %+v, %v; want a wrapped mkdir error", res, err)
			}
		}, false, false},
		{"resumed-completed", func(*testing.T, *Config) context.Context { return context.Background() },
			func(t *testing.T, res *Results, err error) {
				if err != nil || !reflect.DeepEqual(full, res) {
					t.Fatalf("resume returned %+v, %v", res, err)
				}
			}, true, true},
		{"resumed-cancelled", func(t *testing.T, cfg *Config) context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			stopAt(cfg, 3, cancel)
			return ctx
		}, func(t *testing.T, res *Results, err error) {
			if res != nil || !errors.Is(err, ErrCancelled) {
				t.Fatalf("resume returned %+v, %v; want ErrCancelled", res, err)
			}
		}, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ckptCfg(model, WaitFree, dir)
			ctx := c.arm(t, &cfg)
			baseline := runtime.NumGoroutine()
			var res *Results
			var err error
			if c.resume {
				res, err = ResumeContext(ctx, middle, &ResumeOptions{Series: cfg.Series, CheckpointDir: dir})
			} else {
				res, err = RunContext(ctx, cfg)
			}
			c.check(t, res, err)
			// The writer sends its result and then exits; give the
			// scheduler the moment that takes.
			for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), baseline)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) > 0 {
				t.Fatalf("staging files left behind: %v", left)
			}
			if !c.snapshots {
				return
			}
			files, err := filepath.Glob(filepath.Join(dir, checkpoint.Glob))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range files {
				if fi, err := os.Stat(path); err != nil || fi.IsDir() {
					continue // the squatter
				}
				if _, err := checkpoint.Read(path); err != nil {
					t.Fatalf("%s: %v", filepath.Base(path), err)
				}
			}
			latest, err := checkpoint.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeContext(context.Background(), latest, &ResumeOptions{CheckpointDir: t.TempDir()})
			if err != nil {
				t.Fatalf("resume %s: %v", filepath.Base(latest), err)
			}
			if !reflect.DeepEqual(full, resumed) {
				t.Fatalf("resume from %s diverged:\nfull:    %+v\nresumed: %+v", filepath.Base(latest), full, resumed)
			}
		})
	}
}

// Resume re-attaches observability that snapshots cannot carry.
func TestResumeWithProgress(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, Barrier, dir)); err != nil {
		t.Fatal(err)
	}
	var samples int
	_, err := ResumeContext(t.Context(), listCheckpoints(t, dir)[0], &ResumeOptions{
		Series: &SeriesOptions{Func: func(SeriesPoint) { samples++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no progress samples during resumed run")
	}
}

// SeriesOptions.Func outlives a segment: on a checkpointed run and on a
// Resume it sees every publication across the boundaries, Round rising
// by exactly one from point to point.
func TestSeriesFuncAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptCfg(PHOLD{LPsPerThread: 4, Imbalance: 2}, WaitFree, dir)
	var run []SeriesPoint
	cfg.Series = &SeriesOptions{Func: func(pt SeriesPoint) { run = append(run, pt) }}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := listCheckpoints(t, dir)
	if len(paths) < 2 {
		t.Fatalf("%d snapshots, want a run of several segments", len(paths))
	}
	consecutive := func(name string, pts []SeriesPoint, first int) {
		t.Helper()
		if len(pts) == 0 || pts[0].Round != first {
			t.Fatalf("%s: %d points, want the first at round %d", name, len(pts), first)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Round != pts[i-1].Round+1 {
				t.Fatalf("%s: round %d follows round %d", name, pts[i].Round, pts[i-1].Round)
			}
		}
		if last := pts[len(pts)-1]; last.GVT != cfg.EndTime {
			t.Fatalf("%s: final point GVT %.2f, want %.2f", name, last.GVT, cfg.EndTime)
		}
	}
	consecutive("run", run, 1)
	if !reflect.DeepEqual(run, res.Series) {
		t.Fatalf("Func saw %d points, the run recorded %d, or they differ", len(run), len(res.Series))
	}
	var resumed []SeriesPoint
	_, err = ResumeContext(t.Context(), paths[0], &ResumeOptions{
		Series: &SeriesOptions{Func: func(pt SeriesPoint) { resumed = append(resumed, pt) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	consecutive("resume", resumed, int(snap.Rounds)+1)
	if tail := run[len(run)-len(resumed):]; !reflect.DeepEqual(resumed, tail) {
		t.Fatalf("resume's %d points are not the run's last %d", len(resumed), len(tail))
	}
}
