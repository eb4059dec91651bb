package job_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"cyclops/internal/job"
	"cyclops/internal/obs"
)

// TestResultEncodingIsPinned pins job.Result's canonical encoding byte for
// byte: a changed encoding changes what the result cache stores and the
// service serves, so it comes with new literals here and with a
// SemanticsVersion bump when an old entry would now decode differently.
// Decoding the bytes must give the Result back, accounting included.
func TestResultEncodingIsPinned(t *testing.T) {
	full := &job.Result{
		Cycles:   10,
		Insts:    20,
		Output:   []byte("hi"),
		Snapshot: json.RawMessage(`{"a":1}`),
		Extra:    json.RawMessage(`{"b":2}`),
	}
	full.Run, full.Stall = 3, 4
	full.Stalls[obs.CachePortStall] = 4
	full.MemWaits[obs.MemWaitFill] = 5
	for _, c := range []struct {
		name string
		r    *job.Result
		want string
	}{
		{"full", full, `{"cycles":10,"insts":20,"run":3,"stall":4,` +
			`"stalls":{"dep":0,"cacheport":4,"bankconflict":0,"fpu":0,"icache":0,"barrier":0,"sleep":0,"switch":0},` +
			`"mem_waits":{"port":0,"bank":0,"fill":5,"hop":0},` +
			`"output":"aGk=","snapshot":{"a":1},"extra":{"b":2}}`},
		{"zero", &job.Result{}, `{"cycles":0,` +
			`"stalls":{"dep":0,"cacheport":0,"bankconflict":0,"fpu":0,"icache":0,"barrier":0,"sleep":0,"switch":0},` +
			`"mem_waits":{"port":0,"bank":0,"fill":0,"hop":0}}`},
	} {
		got, err := job.EncodeResult(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s: encoded\n  %s\nwant\n  %s", c.name, got, c.want)
		}
		back, err := job.DecodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c.r) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, back, c.r)
		}
	}
}
