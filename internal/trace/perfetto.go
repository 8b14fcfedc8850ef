package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// PerfettoOptions configures Chrome trace-event JSON export.
type PerfettoOptions struct {
	// FreqHz converts wall cycles to microseconds (the trace-event time
	// unit); 0 emits raw cycles as microseconds.
	FreqHz float64
	// Threads is the number of thread tracks to emit.
	Threads int
	// EndCycles closes still-open de-schedule spans.
	EndCycles uint64
}

// perfettoEvent is one entry of the Chrome trace-event "JSON Array
// Format" (also accepted by ui.perfetto.dev). Field order is the
// marshalling order, kept stable for golden tests.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoTrace is the top-level JSON object.
type perfettoTrace struct {
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	TraceEvents     []perfettoEvent `json:"traceEvents"`
}

// perfettoPid is the single synthetic process all tracks live under.
const perfettoPid = 1

// WritePerfetto exports the trace as Chrome trace-event JSON, openable
// directly in ui.perfetto.dev or chrome://tracing: one track per
// simulation thread carrying "descheduled" duration slices
// (Deactivate→Activate spans) and instant events for repins,
// rollbacks, migrations and preemptions; a "GVT" counter track for the
// virtual-time progression; and a cumulative "committed events"
// counter track fed by fossil-collection records.
func (r *Recorder) WritePerfetto(w io.Writer, opts PerfettoOptions) error {
	threads := opts.Threads
	us := func(cycles uint64) float64 {
		if opts.FreqHz > 0 {
			return float64(cycles) / opts.FreqHz * 1e6
		}
		return float64(cycles)
	}

	events := []perfettoEvent{{
		Name: "process_name", Ph: "M", Pid: perfettoPid,
		Args: map[string]any{"name": "ggpdes"},
	}}
	for tid := 0; tid < threads; tid++ {
		events = append(events, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("sim-%d", tid)},
		})
	}

	// De-schedule spans as complete ("X") slices on each thread track.
	for tid, spans := range r.InactiveIntervals(threads, opts.EndCycles) {
		for _, iv := range spans {
			events = append(events, perfettoEvent{
				Name: "descheduled", Ph: "X", Pid: perfettoPid, Tid: tid,
				Ts: us(iv.Start), Dur: us(iv.End) - us(iv.Start),
			})
		}
	}

	// Point and counter events in recording order.
	var committed int64
	r.forEach(func(rec *Record) {
		switch rec.Kind {
		case KindGVT:
			events = append(events, perfettoEvent{
				Name: "GVT", Ph: "C", Pid: perfettoPid, Ts: us(rec.WallCycles),
				Args: map[string]any{"gvt": rec.Value},
			})
		case KindCommit:
			committed += rec.Aux
			events = append(events, perfettoEvent{
				Name: "committed events", Ph: "C", Pid: perfettoPid, Ts: us(rec.WallCycles),
				Args: map[string]any{"events": committed},
			})
		case KindRollback:
			events = append(events, instant(rec, threads, us, "rollback",
				map[string]any{"depth": rec.Aux, "to_ts": rec.Value}))
		case KindRepin:
			events = append(events, instant(rec, threads, us, "repin",
				map[string]any{"core": rec.Aux}))
		case KindMigration:
			events = append(events, instant(rec, threads, us, "migrate",
				map[string]any{"core": rec.Aux}))
		case KindPreempt:
			events = append(events, instant(rec, threads, us, "preempt",
				map[string]any{"core": rec.Aux}))
		}
	})

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(perfettoTrace{DisplayTimeUnit: "ms", TraceEvents: events})
}

// instant builds a thread-scoped instant ("i") event; records with no
// valid thread land on track 0.
func instant(rec *Record, threads int, us func(uint64) float64, name string, args map[string]any) perfettoEvent {
	tid := rec.Thread
	if tid < 0 || tid >= threads {
		tid = 0
	}
	return perfettoEvent{
		Name: name, Ph: "i", Pid: perfettoPid, Tid: tid,
		Ts: us(rec.WallCycles), S: "t", Args: args,
	}
}
