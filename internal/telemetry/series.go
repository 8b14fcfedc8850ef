package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Time-resolved run telemetry. A Series is a ring buffer of
// SeriesPoints, one per GVT round, sampled by the run loop at the
// moment each new GVT value commits. Sampling reads engine state and
// charges zero simulated cycles, so recording a series is
// trajectory-invariant: a run with and without a Series commits
// byte-identical event trajectories (asserted by
// TestSeriesPreservesTrajectories).

// SeriesPoint is one GVT round's observation of the run.
type SeriesPoint struct {
	// Round is the 1-based GVT round index; GVT the committed value.
	Round int     `json:"round"`
	GVT   float64 `json:"gvt"`
	// WallSeconds is elapsed wall-clock time since the run started;
	// AdvanceVT and AdvanceRate are the virtual-time delta since the
	// previous round and that delta per wall second.
	WallSeconds float64 `json:"wall_seconds"`
	AdvanceVT   float64 `json:"advance_vt"`
	AdvanceRate float64 `json:"advance_rate"`
	// ThreadLVTs holds each worker thread's local virtual time (the
	// maximum executed timestamp across its LPs). MeanLVT/MinLVT/
	// MaxLVT digest it; HorizonWidth is max-min and HorizonRoughness
	// the mean squared deviation w² from the mean — the virtual-time-
	// horizon statistics of Korniss et al.
	ThreadLVTs       []float64 `json:"thread_lvts"`
	MeanLVT          float64   `json:"mean_lvt"`
	MinLVT           float64   `json:"min_lvt"`
	MaxLVT           float64   `json:"max_lvt"`
	HorizonWidth     float64   `json:"horizon_width"`
	HorizonRoughness float64   `json:"horizon_roughness"`
	// Cumulative engine totals as of this round.
	Processed  uint64 `json:"processed"`
	Committed  uint64 `json:"committed"`
	RolledBack uint64 `json:"rolled_back"`
	Rollbacks  uint64 `json:"rollbacks"`
	// CommitRatio is committed/(committed+rolled back) over the whole
	// run so far; 1.0 means no speculation was wasted.
	CommitRatio float64 `json:"commit_ratio"`
	// PoolHitRate is the event-pool hit fraction so far (1.0 = the
	// steady-state allocation-free regime).
	PoolHitRate float64 `json:"pool_hit_rate"`
	// Uncommitted is the number of processed-but-uncommitted events
	// (the speculation window); QueueDepth the total events sitting in
	// pending and inbox queues across all threads.
	Uncommitted int `json:"uncommitted"`
	QueueDepth  int `json:"queue_depth"`
	// ActiveThreads is how many worker threads the scheduler currently
	// keeps awake (demand-driven scheduling deactivates starved ones).
	ActiveThreads int `json:"active_threads"`
}

// Series is a bounded, goroutine-safe ring of SeriesPoints. The zero
// limit keeps the most recent DefaultSeriesLimit points; a nil Series
// ignores appends and reads empty, so producers never nil-check.
type Series struct {
	mu    sync.Mutex
	pts   []SeriesPoint
	start int // ring head when full
	limit int
	total int
}

// DefaultSeriesLimit bounds a Series constructed with limit <= 0. At
// one point per GVT round it covers any plausible run's recent
// history in a few hundred KB.
const DefaultSeriesLimit = 4096

// NewSeries returns a Series retaining the last limit points
// (DefaultSeriesLimit if limit <= 0).
func NewSeries(limit int) *Series {
	if limit <= 0 {
		limit = DefaultSeriesLimit
	}
	return &Series{limit: limit}
}

// Append records one point, evicting the oldest when full.
func (s *Series) Append(pt SeriesPoint) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.pts) < s.limit {
		s.pts = append(s.pts, pt)
		return
	}
	s.pts[s.start] = pt
	s.start = (s.start + 1) % s.limit
}

// Reset discards all points (a serve-layer retry reuses the buffer).
func (s *Series) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.pts, s.start, s.total = s.pts[:0], 0, 0
	s.mu.Unlock()
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Total returns the number of points ever appended, including evicted
// ones.
func (s *Series) Total() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Points returns the retained points oldest-first, as a copy.
func (s *Series) Points() []SeriesPoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pts) == 0 {
		return nil
	}
	out := make([]SeriesPoint, 0, len(s.pts))
	out = append(out, s.pts[s.start:]...)
	out = append(out, s.pts[:s.start]...)
	return out
}

// seriesCSVHeader names the WriteCSV columns. ThreadLVTs flatten into
// a single space-separated column so the row count stays fixed across
// thread counts.
var seriesCSVHeader = []string{
	"round", "gvt", "wall_seconds", "advance_vt", "advance_rate",
	"mean_lvt", "min_lvt", "max_lvt", "horizon_width", "horizon_roughness",
	"processed", "committed", "rolled_back", "rollbacks",
	"commit_ratio", "pool_hit_rate", "uncommitted", "queue_depth",
	"active_threads", "thread_lvts",
}

// WriteCSV dumps the retained points as CSV, header first.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, strings.Join(seriesCSVHeader, ",")+"\n"); err != nil {
		return err
	}
	for _, pt := range s.Points() {
		lvts := make([]string, len(pt.ThreadLVTs))
		for i, v := range pt.ThreadLVTs {
			lvts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		_, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d,%d,%d,%g,%g,%d,%d,%d,%s\n",
			pt.Round, pt.GVT, pt.WallSeconds, pt.AdvanceVT, pt.AdvanceRate,
			pt.MeanLVT, pt.MinLVT, pt.MaxLVT, pt.HorizonWidth, pt.HorizonRoughness,
			pt.Processed, pt.Committed, pt.RolledBack, pt.Rollbacks,
			pt.CommitRatio, pt.PoolHitRate, pt.Uncommitted, pt.QueueDepth,
			pt.ActiveThreads, strings.Join(lvts, " "))
		if err != nil {
			return err
		}
	}
	return nil
}
