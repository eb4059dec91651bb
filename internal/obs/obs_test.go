package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestReasonNamesCoverTaxonomy(t *testing.T) {
	seen := map[string]bool{}
	for r := StallReason(0); r < NumStallReasons; r++ {
		name := r.String()
		if name == "" || strings.HasPrefix(name, "StallReason(") {
			t.Errorf("reason %d has no name", r)
		}
		if seen[name] {
			t.Errorf("duplicate reason name %q", name)
		}
		seen[name] = true
	}
	if got := ReasonNames(); len(got) != int(NumStallReasons) {
		t.Fatalf("ReasonNames returned %d names, want %d", len(got), NumStallReasons)
	}
	if StallReason(250).String() != "StallReason(250)" {
		t.Errorf("out-of-range String() = %q", StallReason(250).String())
	}
	// The enum order is the exported column order; pin it.
	want := []string{"dep", "cacheport", "bankconflict", "fpu", "icache", "barrier", "sleep", "switch"}
	for i, w := range want {
		if got := StallReason(i).String(); got != w {
			t.Errorf("reason %d = %q, want %q", i, got, w)
		}
	}
}

func TestBreakdownAccounting(t *testing.T) {
	var b Breakdown
	b.Add(DepStall, 10)
	b.Add(FPUStall, 5)
	b.Add(DepStall, 1)
	if b[DepStall] != 11 || b[FPUStall] != 5 {
		t.Fatalf("Add: got %v", b)
	}
	if b.Total() != 16 {
		t.Fatalf("Total = %d, want 16", b.Total())
	}
	var c Breakdown
	c.Add(BarrierStall, 4)
	c.AddAll(b)
	if c.Total() != 20 || c[DepStall] != 11 || c[BarrierStall] != 4 {
		t.Fatalf("AddAll: got %v", c)
	}
}

func TestBreakdownJSONRoundTrip(t *testing.T) {
	var b Breakdown
	for r := StallReason(0); r < NumStallReasons; r++ {
		b[r] = uint64(r) * 7
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// Key order must be the enum order, not Go map order.
	prev := -1
	for r := StallReason(0); r < NumStallReasons; r++ {
		idx := bytes.Index(data, []byte(`"`+r.String()+`"`))
		if idx < 0 {
			t.Fatalf("marshalled breakdown missing %q: %s", r, data)
		}
		if idx < prev {
			t.Fatalf("key %q out of enum order: %s", r, data)
		}
		prev = idx
	}
	var got Breakdown
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("round trip: got %v want %v", got, b)
	}
	if err := got.UnmarshalJSON([]byte("[]")); err == nil {
		t.Error("UnmarshalJSON accepted a non-object")
	}
}

func testSnapshot() *Snapshot {
	s := &Snapshot{
		Cycles: 1000,
		Threads: []ThreadStat{
			{ID: 0, Quad: 0, Insts: 300, Run: 400, Stall: 100,
				Stalls:   Breakdown{DepStall: 60, FPUStall: 40},
				MemWaits: MemWaits{MemWaitPort: 7, MemWaitFill: 3}},
			{ID: 5, Quad: 1, Insts: 200, Run: 250, Stall: 50,
				Stalls:   Breakdown{CachePortStall: 20, BankConflictStall: 30},
				MemWaits: MemWaits{MemWaitBank: 11, MemWaitHop: 5}},
		},
		Resources: []ResourceStats{
			{Kind: "cacheport", ID: 0, Busy: 500, Grants: 480, Conflicts: 30, WaitCycles: 90},
			{Kind: "drambank", ID: 3, Busy: 240, Grants: 20, Conflicts: 4, WaitCycles: 18},
			{Kind: "fpu", ID: 1, Busy: 120, Grants: 120, Conflicts: 10, WaitCycles: 12},
		},
	}
	s.Finish()
	return s
}

func TestSnapshotFinishAndJSON(t *testing.T) {
	s := testSnapshot()
	if s.Insts != 500 || s.Run != 650 || s.Stall != 150 {
		t.Fatalf("Finish totals: %+v", s)
	}
	if s.Stalls.Total() != s.Stall {
		t.Fatalf("aggregate breakdown %d != stall total %d", s.Stalls.Total(), s.Stall)
	}
	if got := s.MemWaits.Total(); got != 26 {
		t.Fatalf("aggregate mem waits total %d, want 26", got)
	}

	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := testSnapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshot JSON is not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !bytes.HasSuffix(a.Bytes(), []byte("\n")) {
		t.Error("snapshot JSON missing trailing newline")
	}

	// The document must be well-formed and carry the expected keys.
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"cycles", "insts", "run", "stall", "stalls", "mem_waits", "threads", "resources"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("snapshot missing key %q", key)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	threads := []TraceThread{
		{PID: 0, TID: 0, Name: "TU 0"},
		{PID: 1, TID: 4, Name: "TU 4"},
	}
	slices := []TraceSlice{
		{Name: "lw r8, 0(r1)", PID: 0, TID: 0, Start: 10, Dur: 3,
			Args: [][2]string{{"pc", "0x100"}, {"word", "0x8c280000"}}},
		{Name: "fadd", PID: 1, TID: 4, Start: 12, Dur: 1},
	}
	counters := []TraceCounter{
		{Name: "memwait", PID: 0, TID: 0, At: 13,
			Series: [][2]string{{"port", "4"}, {"bank", "2"}, {"fill", "0"}, {"hop", "1"}}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, threads, slices, counters); err != nil {
		t.Fatal(err)
	}

	// Schema check: top-level object with a traceEvents array whose
	// entries carry the fields chrome://tracing requires.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != len(threads)+len(slices)+len(counters) {
		t.Fatalf("got %d events, want %d", len(doc.TraceEvents), len(threads)+len(slices)+len(counters))
	}
	meta, complete, counts := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event missing ts: %v", ev)
			}
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		case "C":
			counts++
			args, ok := ev["args"].(map[string]any)
			if !ok {
				t.Fatalf("counter event missing args: %v", ev)
			}
			// Counter series values must be numbers, not strings.
			if v, ok := args["port"].(float64); !ok || v != 4 {
				t.Fatalf("counter port value = %v, want number 4", args["port"])
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 2 || complete != 2 || counts != 1 {
		t.Fatalf("got %d metadata + %d complete + %d counter events, want 2+2+1", meta, complete, counts)
	}

	// Determinism: same input, same bytes.
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, threads, slices, counters); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("trace output is not deterministic")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}

func TestMemWaitNamesCoverTaxonomy(t *testing.T) {
	seen := map[string]bool{}
	for k := MemWaitKind(0); k < NumMemWaitKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "MemWaitKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if got := MemWaitNames(); len(got) != int(NumMemWaitKinds) {
		t.Fatalf("MemWaitNames returned %d names, want %d", len(got), NumMemWaitKinds)
	}
	if MemWaitKind(250).String() != "MemWaitKind(250)" {
		t.Errorf("out-of-range String() = %q", MemWaitKind(250).String())
	}
	// The enum order is the exported column order; pin it.
	want := []string{"port", "bank", "fill", "hop"}
	for i, w := range want {
		if got := MemWaitKind(i).String(); got != w {
			t.Errorf("kind %d = %q, want %q", i, got, w)
		}
	}
}

func TestMemWaitsAccountingAndJSON(t *testing.T) {
	var m MemWaits
	m.Add(MemWaitPort, 10)
	m.Add(MemWaitFill, 5)
	m.Add(MemWaitPort, 1)
	if m[MemWaitPort] != 11 || m[MemWaitFill] != 5 {
		t.Fatalf("Add: got %v", m)
	}
	var n MemWaits
	n.Add(MemWaitHop, 4)
	n.AddAll(m)
	if n.Total() != 20 || n[MemWaitPort] != 11 || n[MemWaitHop] != 4 {
		t.Fatalf("AddAll: got %v", n)
	}

	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	// Key order must be the enum order, not Go map order.
	prev := -1
	for k := MemWaitKind(0); k < NumMemWaitKinds; k++ {
		idx := bytes.Index(data, []byte(`"`+k.String()+`"`))
		if idx < 0 {
			t.Fatalf("marshalled mem waits missing %q: %s", k, data)
		}
		if idx < prev {
			t.Fatalf("key %q out of enum order: %s", k, data)
		}
		prev = idx
	}
	var got MemWaits
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("round trip: got %v want %v", got, n)
	}
	if err := got.UnmarshalJSON([]byte("[]")); err == nil {
		t.Error("UnmarshalJSON accepted a non-object")
	}
}
