package models

// Checkpoint codecs: every bundled model implements tw.CheckpointModel
// with a fixed-layout little-endian encoding of its LP state. The
// layouts are deliberately dumb — exported fields in declaration order
// — because checkpoint portability matters more than compactness and
// the file format above this layer is versioned. Encoders append to the
// caller's buffer, so a capture encodes every LP into one arena, and
// decoders carve from the slab InitLP carves from, so Resume decodes a
// model's LP states into one block.

import (
	"encoding/binary"
	"fmt"

	"ggpdes/internal/tw"
)

func appendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

func getI64(data []byte, off int) (int64, int) {
	return int64(binary.LittleEndian.Uint64(data[off:])), off + 8
}

// EncodeState implements tw.CheckpointModel.
func (m *PHOLD) EncodeState(dst []byte, s tw.State) ([]byte, error) {
	st, ok := s.(*PHOLDState)
	if !ok {
		return nil, fmt.Errorf("models: phold cannot encode %T", s)
	}
	return appendI64(dst, st.Processed), nil
}

// DecodeState implements tw.CheckpointModel.
func (m *PHOLD) DecodeState(data []byte) (tw.State, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("models: phold state is %d bytes, want 8", len(data))
	}
	st := m.states.New()
	st.Processed, _ = getI64(data, 0)
	return st, nil
}

// EncodeState implements tw.CheckpointModel.
func (m *Epidemics) EncodeState(dst []byte, s tw.State) ([]byte, error) {
	st, ok := s.(*HouseholdState)
	if !ok {
		return nil, fmt.Errorf("models: epidemics cannot encode %T", s)
	}
	dst = appendI64(dst, int64(len(st.Agents)))
	dst = append(dst, st.Agents...)
	dst = appendI64(dst, st.Exposures)
	dst = appendI64(dst, st.Infections)
	dst = appendI64(dst, st.Recoveries)
	return appendI64(dst, st.ContactsSeen), nil
}

// DecodeState implements tw.CheckpointModel.
func (m *Epidemics) DecodeState(data []byte) (tw.State, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("models: epidemics state is %d bytes, want >= 8", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)) || uint64(len(data)) != 8+n+4*8 {
		return nil, fmt.Errorf("models: epidemics state is %d bytes, want %d for %d agents", len(data), 8+n+4*8, n)
	}
	st := m.states.New()
	st.sizeAgents(int(n))
	copy(st.Agents, data[8:8+n])
	off := int(8 + n)
	st.Exposures, off = getI64(data, off)
	st.Infections, off = getI64(data, off)
	st.Recoveries, off = getI64(data, off)
	st.ContactsSeen, _ = getI64(data, off)
	return st, nil
}

// EncodeState implements tw.CheckpointModel.
func (m *Traffic) EncodeState(dst []byte, s tw.State) ([]byte, error) {
	st, ok := s.(*IntersectionState)
	if !ok {
		return nil, fmt.Errorf("models: traffic cannot encode %T", s)
	}
	dst = appendI64(dst, st.Queued)
	dst = appendI64(dst, st.Arrivals)
	return appendI64(dst, st.Departures), nil
}

// DecodeState implements tw.CheckpointModel.
func (m *Traffic) DecodeState(data []byte) (tw.State, error) {
	if len(data) != 3*8 {
		return nil, fmt.Errorf("models: traffic state is %d bytes, want 24", len(data))
	}
	st := m.states.New()
	off := 0
	st.Queued, off = getI64(data, off)
	st.Arrivals, off = getI64(data, off)
	st.Departures, _ = getI64(data, off)
	return st, nil
}
