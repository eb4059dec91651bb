package timing

import "testing"

func TestLimitRule(t *testing.T) {
	if got := Limit(0); got != ^uint64(0) {
		t.Errorf("Limit(0) = %d, want no limit", got)
	}
	if got := Limit(5000); got != 5000 {
		t.Errorf("Limit(5000) = %d", got)
	}
}
