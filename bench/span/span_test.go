package span

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Self time is duration minus the union of the direct children:
// overlapping children count once, a child's own children do not count
// against the grandparent, and a child reaching past its parent is
// clipped.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100},               // 1
		{Name: "a", Start: 10, End: 40, Parent: 1},       // 2
		{Name: "b", Start: 30, End: 60, Parent: 1},       // 3: overlaps a by 10
		{Name: "a.1", Start: 15, End: 25, Parent: 2},     // 4
		{Name: "c", Start: 90, End: 120, Parent: 1},      // 5: sticks out by 20
		{Name: "leaf-root", Start: 200, End: 250},        // 6
		{Name: "nested", Start: 35, End: 38, Parent: 3},  // 7
		{Name: "nested2", Start: 36, End: 37, Parent: 7}, // 8
		{Name: "zero", Start: 50, End: 50, Parent: 1},    // 9
		{Name: "covered", Start: 12, End: 20, Parent: 1}, // 10: inside a
	}
	want := []int64{
		100 - (50 + 10), // root: [10,60] from a∪b∪covered, [90,100] from c
		30 - 10,         // a minus a.1
		30 - 3,          // b minus nested
		10, 30, 50,
		3 - 1, // nested minus nested2
		1, 0, 8,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestValidate(t *testing.T) {
	ok := []Span{
		{Name: "root", Start: 0, End: 100, Op: 7},
		{Name: "child", Start: 0, End: 100, Parent: 1, Op: 7},
	}
	if err := Validate(ok); err != nil {
		t.Fatalf("well-nested spans rejected: %v", err)
	}
	for name, bad := range map[string][]Span{
		"child outside parent": {{Name: "root", Start: 10, End: 20}, {Name: "child", Start: 5, End: 15, Parent: 1}},
		"other operation":      {{Name: "root", Start: 0, End: 10, Op: 1}, {Name: "child", Start: 1, End: 2, Parent: 1, Op: 2}},
		"parent after child":   {{Name: "child", Start: 1, End: 2, Parent: 2}, {Name: "root", Start: 0, End: 10}},
		"ends before start":    {{Name: "root", Start: 10, End: 5}},
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A live tracer nests what Start/End and Add record, clamps a
// reconstructed leg into its parent, and a nil tracer records nothing.
func TestTracerRecordsAndClamps(t *testing.T) {
	tr := New()
	root := tr.Start("root", 0, 3, 0)
	child := tr.Start("child", root, 3, 0)
	tr.End(child)
	leg := tr.Add("leg", child, 3, 1, -1_000_000, 1<<40)
	tr.End(root)
	tr.Count("frames", 2)
	tr.Count("frames", 3)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if err := Validate(spans); err != nil {
		t.Fatal(err)
	}
	c, l := spans[child-1], spans[leg-1]
	if l.Start != c.Start || l.End != c.End {
		t.Errorf("leg [%d,%d] not clamped to its parent [%d,%d]", l.Start, l.End, c.Start, c.End)
	}
	if got := tr.Counts()["frames"]; got != 5 {
		t.Errorf("count = %d, want 5", got)
	}

	var none *Tracer
	if id := none.Start("x", 0, 0, 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	none.End(0)
	none.Count("x", 1)
	if none.Add("x", 0, 0, 0, 1, 2) != 0 || len(none.Spans()) != 0 || len(none.Counts()) != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestWriteChromeCapsOperations(t *testing.T) {
	spans := []Span{
		{Name: "op0", Start: 1000, End: 3000, Op: 0},
		{Name: "op0.child", Start: 1500, End: 2500, Parent: 1, Op: 0, Lane: 1},
		{Name: "op5", Start: 4000, End: 5000, Op: 5},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans, 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("wrote %d events, want the 2 of operation 0", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "op0.child" || ev.Ph != "X" || ev.Ts != 1.5 || ev.Dur != 1 || ev.Tid != 1 {
		t.Errorf("event = %+v", ev)
	}
}
