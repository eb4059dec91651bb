package obs

import "encoding/json"

// The snapshot's JSON form, hand-written: exactly the bytes encoding/json's
// reflection produces for Snapshot (declaration order, the struct tags, the
// Breakdown and MemWaits object forms; TestSnapshotMarshalMatchesReflection
// pins the equivalence), built in one allocation sized by a counting pass
// over the same code. encoding/json copies a Marshaler's output with one
// exact Grow, so a caller whose pooled encoder buffer did not survive (the
// pool is per P) pays one document again, not a buffer grown by doubling.

// jsonWriter writes a JSON document twice over the same code: with count set
// it only sums the lengths, so the second pass appends into a buffer of
// exactly that capacity. (The two passes are spelled out at each caller: a
// helper taking the writing code as a func value would move the writer to
// the heap.)
type jsonWriter struct {
	count bool
	n     int
	buf   []byte
}

// raw writes s verbatim.
func (w *jsonWriter) raw(s string) {
	if w.count {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *jsonWriter) uint(v uint64) {
	if !w.count {
		w.buf = appendUint(w.buf, v)
		return
	}
	w.n++
	for v >= 10 {
		w.n++
		v /= 10
	}
}

func (w *jsonWriter) int(v int) {
	if v < 0 {
		w.raw("-")
		w.uint(uint64(-v))
		return
	}
	w.uint(uint64(v))
}

// string writes s as a JSON string. A string with any byte that might need
// escaping is left to encoding/json, so the escaping rules exist once;
// resource kinds never reach it.
func (w *jsonWriter) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			w.raw(string(b))
			return
		}
	}
	w.raw(`"`)
	w.raw(s)
	w.raw(`"`)
}

// counters writes a per-enum accumulator as an object keyed by name in enum
// order: the one implementation behind Breakdown's and MemWaits' JSON form.
func (w *jsonWriter) counters(names []string, vals []uint64) {
	w.raw("{")
	for i, v := range vals {
		if i > 0 {
			w.raw(",")
		}
		w.raw(`"`)
		w.raw(names[i])
		w.raw(`":`)
		w.uint(v)
	}
	w.raw("}")
}

// marshalCounters is Breakdown's and MemWaits' MarshalJSON.
func marshalCounters(names []string, vals []uint64) []byte {
	size := jsonWriter{count: true}
	size.counters(names, vals)
	w := jsonWriter{buf: make([]byte, 0, size.n)}
	w.counters(names, vals)
	return w.buf
}

// MarshalJSON emits the snapshot in one exactly sized allocation; the bytes
// are those of the reflective encoding of its fields.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	size := jsonWriter{count: true}
	s.writeJSON(&size)
	w := jsonWriter{buf: make([]byte, 0, size.n)}
	s.writeJSON(&w)
	return w.buf, nil
}

func (s *Snapshot) writeJSON(w *jsonWriter) {
	w.raw(`{"cycles":`)
	w.uint(s.Cycles)
	w.raw(`,"insts":`)
	w.uint(s.Insts)
	w.raw(`,"run":`)
	w.uint(s.Run)
	w.raw(`,"stall":`)
	w.uint(s.Stall)
	w.raw(`,"stalls":`)
	w.counters(reasonNames[:], s.Stalls[:])
	w.raw(`,"mem_waits":`)
	w.counters(memWaitNames[:], s.MemWaits[:])
	w.raw(`,"threads":`)
	if s.Threads == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range s.Threads {
			if i > 0 {
				w.raw(",")
			}
			s.Threads[i].writeJSON(w)
		}
		w.raw("]")
	}
	w.raw(`,"resources":`)
	if s.Resources == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range s.Resources {
			if i > 0 {
				w.raw(",")
			}
			s.Resources[i].writeJSON(w)
		}
		w.raw("]")
	}
	w.raw("}")
}

func (t *ThreadStat) writeJSON(w *jsonWriter) {
	w.raw(`{"id":`)
	w.int(t.ID)
	w.raw(`,"quad":`)
	w.int(t.Quad)
	w.raw(`,"insts":`)
	w.uint(t.Insts)
	w.raw(`,"run":`)
	w.uint(t.Run)
	w.raw(`,"stall":`)
	w.uint(t.Stall)
	w.raw(`,"stalls":`)
	w.counters(reasonNames[:], t.Stalls[:])
	w.raw(`,"mem_waits":`)
	w.counters(memWaitNames[:], t.MemWaits[:])
	w.raw("}")
}

func (r *ResourceStats) writeJSON(w *jsonWriter) {
	w.raw(`{"kind":`)
	w.string(r.Kind)
	w.raw(`,"id":`)
	w.int(r.ID)
	w.raw(`,"busy":`)
	w.uint(r.Busy)
	w.raw(`,"grants":`)
	w.uint(r.Grants)
	w.raw(`,"conflicts":`)
	w.uint(r.Conflicts)
	w.raw(`,"wait_cycles":`)
	w.uint(r.WaitCycles)
	w.raw("}")
}
