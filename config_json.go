package ggpdes

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Config's JSON codec — the single wire format for configurations. The
// serving layer's job specs, the checkpoint files and the command-line
// tools all speak it, built on the same Parse*/String pairs as the CLI
// flags, so every enum accepts the same spellings everywhere.
//
// Only fields that define the run are serialized. Observability
// attachments (Trace, Series) hold writers and callbacks and are
// excluded; re-attach them after decoding. Enums travel as their
// String() names; the model travels as a tagged object selected by its
// "name". Unknown fields are ignored for forward compatibility;
// unknown enum or model names are errors, and so are the retired
// options (see UnmarshalJSON).

type configJSON struct {
	Model                *modelJSON         `json:"model,omitempty"`
	Threads              int                `json:"threads,omitempty"`
	System               string             `json:"system"`
	GVT                  string             `json:"gvt"`
	Affinity             string             `json:"affinity"`
	EndTime              float64            `json:"end_time,omitempty"`
	Seed                 uint64             `json:"seed,omitempty"`
	Machine              *machineJSON       `json:"machine,omitempty"`
	GVTFrequency         int                `json:"gvt_frequency,omitempty"`
	ZeroCounterThreshold int                `json:"zero_counter_threshold,omitempty"`
	BatchSize            int                `json:"batch_size,omitempty"`
	OptimismWindow       float64            `json:"optimism_window,omitempty"`
	Checkpoint           *CheckpointOptions `json:"checkpoint,omitempty"`
	Chaos                *chaosJSON         `json:"chaos,omitempty"`
	// Retired options, read only to be refused. Encoding never sets
	// them; a config written while they existed carries the retired
	// options' defaults (lps_per_kp 0 or 1, state_saving "copy", queue
	// "splay"), which decode as they always did.
	RetiredLazy        bool   `json:"lazy_cancellation,omitempty"`
	RetiredAdaptive    any    `json:"adaptive_gvt,omitempty"`
	RetiredLPsPerKP    int    `json:"lps_per_kp,omitempty"`
	RetiredStateSaving string `json:"state_saving,omitempty"`
	RetiredQueue       string `json:"queue,omitempty"`
}

// chaosJSON is ChaosOptions on the wire, with the retired send and
// kill faults read only to be refused.
type chaosJSON struct {
	ChaosOptions
	RetiredDropSendRate  float64 `json:"drop_send_rate,omitempty"`
	RetiredDelaySendRate float64 `json:"delay_send_rate,omitempty"`
	RetiredDelaySendHold int     `json:"delay_send_hold,omitempty"`
	RetiredKillThread    int     `json:"kill_thread,omitempty"`
	RetiredKillAtIter    uint64  `json:"kill_at_iter,omitempty"`
}

// retired names the first retired chaos key set to non-zero, or "".
func (ch *chaosJSON) retired() string {
	switch {
	case ch.RetiredDropSendRate != 0:
		return "drop_send_rate"
	case ch.RetiredDelaySendRate != 0:
		return "delay_send_rate"
	case ch.RetiredDelaySendHold != 0:
		return "delay_send_hold"
	case ch.RetiredKillThread != 0:
		return "kill_thread"
	case ch.RetiredKillAtIter != 0:
		return "kill_at_iter"
	}
	return ""
}

type machineJSON struct {
	Cores    int     `json:"cores,omitempty"`
	SMTWidth int     `json:"smt_width,omitempty"`
	FreqHz   float64 `json:"freq_hz,omitempty"`
	MaxTicks uint64  `json:"max_ticks,omitempty"`
	// RetiredNUMANodes is read only to be refused; 0 and 1 were the
	// uniform machine every run now uses.
	RetiredNUMANodes int `json:"numa_nodes,omitempty"`
}

type modelJSON struct {
	Name string `json:"name"`
	// Shared by all models.
	LPsPerThread int `json:"lps_per_thread,omitempty"`
	// PHOLD.
	Imbalance        int  `json:"imbalance,omitempty"`
	NonLinear        bool `json:"nonlinear,omitempty"`
	StartEventsPerLP int  `json:"start_events_per_lp,omitempty"`
	// Epidemics.
	LockdownGroups     int     `json:"lockdown_groups,omitempty"`
	AgentsPerHousehold int     `json:"agents_per_household,omitempty"`
	ContactRate        float64 `json:"contact_rate,omitempty"`
	TransmissionProb   float64 `json:"transmission_prob,omitempty"`
	SeedsPerWindow     int     `json:"seeds_per_window,omitempty"`
	// Traffic.
	DensityGradient   float64 `json:"density_gradient,omitempty"`
	CenterStartEvents int     `json:"center_start_events,omitempty"`
}

func encodeModel(m Model) (*modelJSON, error) {
	switch m := m.(type) {
	case nil:
		return nil, nil
	case PHOLD:
		return &modelJSON{
			Name:             "phold",
			LPsPerThread:     m.LPsPerThread,
			Imbalance:        m.Imbalance,
			NonLinear:        m.NonLinear,
			StartEventsPerLP: m.StartEventsPerLP,
		}, nil
	case Epidemics:
		return &modelJSON{
			Name:               "epidemics",
			LPsPerThread:       m.LPsPerThread,
			LockdownGroups:     m.LockdownGroups,
			AgentsPerHousehold: m.AgentsPerHousehold,
			ContactRate:        m.ContactRate,
			TransmissionProb:   m.TransmissionProb,
			SeedsPerWindow:     m.SeedsPerWindow,
		}, nil
	case Traffic:
		return &modelJSON{
			Name:              "traffic",
			LPsPerThread:      m.LPsPerThread,
			DensityGradient:   m.DensityGradient,
			CenterStartEvents: m.CenterStartEvents,
		}, nil
	}
	return nil, fmt.Errorf("ggpdes: model %T has no wire form", m)
}

func decodeModel(mj *modelJSON) (Model, error) {
	if mj == nil {
		return nil, nil
	}
	switch mj.Name {
	case "phold":
		return PHOLD{
			LPsPerThread:     mj.LPsPerThread,
			Imbalance:        mj.Imbalance,
			NonLinear:        mj.NonLinear,
			StartEventsPerLP: mj.StartEventsPerLP,
		}, nil
	case "epidemics":
		return Epidemics{
			LPsPerThread:       mj.LPsPerThread,
			LockdownGroups:     mj.LockdownGroups,
			AgentsPerHousehold: mj.AgentsPerHousehold,
			ContactRate:        mj.ContactRate,
			TransmissionProb:   mj.TransmissionProb,
			SeedsPerWindow:     mj.SeedsPerWindow,
		}, nil
	case "traffic":
		return Traffic{
			LPsPerThread:      mj.LPsPerThread,
			DensityGradient:   mj.DensityGradient,
			CenterStartEvents: mj.CenterStartEvents,
		}, nil
	}
	return nil, fmt.Errorf("ggpdes: unknown model %q (want phold | epidemics | traffic)", mj.Name)
}

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) {
	mj, err := encodeModel(c.Model)
	if err != nil {
		return nil, err
	}
	w := configJSON{
		Model:                mj,
		Threads:              c.Threads,
		System:               c.System.String(),
		GVT:                  c.GVT.String(),
		Affinity:             c.Affinity.String(),
		EndTime:              c.EndTime,
		Seed:                 c.Seed,
		GVTFrequency:         c.GVTFrequency,
		ZeroCounterThreshold: c.ZeroCounterThreshold,
		BatchSize:            c.BatchSize,
		OptimismWindow:       c.OptimismWindow,
	}
	if c.Machine != (Machine{}) {
		w.Machine = &machineJSON{
			Cores:    c.Machine.Cores,
			SMTWidth: c.Machine.SMTWidth,
			FreqHz:   c.Machine.FreqHz,
			MaxTicks: c.Machine.MaxTicks,
		}
	}
	if ck := c.Checkpoint; ck != nil {
		cp := *ck
		w.Checkpoint = &cp
	}
	if ch := c.Chaos; ch != nil {
		w.Chaos = &chaosJSON{ChaosOptions: *ch}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. It overwrites every wire
// field of c (absent fields become their zero values) and leaves the
// non-wire attachments — Trace, Series, Telemetry — untouched.
//
// A config that turns on a retired option — lazy cancellation, adaptive
// GVT frequency, dropped or delayed sends, a killed thread, multi-LP
// kernel processes, reverse computation, sub-NUMA clustering (DESIGN.md
// §5) — fails with ErrInvalidConfig naming it: ignored like any unknown
// key, it would run, and be cached as, a different simulation than the
// one asked for. The retired memory-recycling switch never changed a
// trajectory, so its key is ignored like any unknown key.
func (c *Config) UnmarshalJSON(data []byte) error {
	var w configJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("ggpdes: decoding config: %w", err)
	}
	if w.RetiredLazy {
		return fmt.Errorf("%w: lazy_cancellation is retired (cancellation is always aggressive)", ErrInvalidConfig)
	}
	if w.RetiredAdaptive != nil {
		return fmt.Errorf("%w: adaptive_gvt is retired (every GVT round interval is gvt_frequency)", ErrInvalidConfig)
	}
	if k := w.RetiredLPsPerKP; k != 0 && k != 1 {
		return fmt.Errorf("%w: lps_per_kp is retired (every LP keeps its own rollback history)", ErrInvalidConfig)
	}
	if s := w.RetiredStateSaving; s != "" && !strings.EqualFold(s, "copy") {
		return fmt.Errorf("%w: state_saving is retired (every rollback restores a state copy)", ErrInvalidConfig)
	}
	switch s := strings.ToLower(w.RetiredQueue); s {
	case "", "splay":
	case "heap", "calendar":
		return fmt.Errorf("%w: queue %q is retired (every run keeps its pending events in one binary heap)", ErrInvalidConfig, s)
	default:
		return fmt.Errorf("ggpdes: unknown queue %q (want splay)", w.RetiredQueue)
	}
	if m := w.Machine; m != nil && m.RetiredNUMANodes != 0 && m.RetiredNUMANodes != 1 {
		return fmt.Errorf("%w: machine.numa_nodes is retired (every machine has one memory node)", ErrInvalidConfig)
	}
	if w.Chaos != nil {
		if key := w.Chaos.retired(); key != "" {
			return fmt.Errorf("%w: chaos.%s is retired (stall_rate is the one injected fault)", ErrInvalidConfig, key)
		}
	}
	model, err := decodeModel(w.Model)
	if err != nil {
		return err
	}
	out := Config{
		Model:                model,
		Threads:              w.Threads,
		EndTime:              w.EndTime,
		Seed:                 w.Seed,
		GVTFrequency:         w.GVTFrequency,
		ZeroCounterThreshold: w.ZeroCounterThreshold,
		BatchSize:            w.BatchSize,
		OptimismWindow:       w.OptimismWindow,
		Trace:                c.Trace,
		Series:               c.Series,
		Telemetry:            c.Telemetry,
	}
	if w.System != "" {
		if out.System, err = ParseSystem(w.System); err != nil {
			return err
		}
	}
	if w.GVT != "" {
		if out.GVT, err = ParseGVT(w.GVT); err != nil {
			return err
		}
	}
	if w.Affinity != "" {
		if out.Affinity, err = ParseAffinity(w.Affinity); err != nil {
			return err
		}
	}
	if m := w.Machine; m != nil {
		out.Machine = Machine{
			Cores:    m.Cores,
			SMTWidth: m.SMTWidth,
			FreqHz:   m.FreqHz,
			MaxTicks: m.MaxTicks,
		}
	}
	if ck := w.Checkpoint; ck != nil {
		cp := *ck
		out.Checkpoint = &cp
	}
	if ch := w.Chaos; ch != nil {
		cp := ch.ChaosOptions
		out.Chaos = &cp
	}
	*c = out
	return nil
}
