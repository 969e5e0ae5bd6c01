package main

import "testing"

func TestCheckLoad(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		open                  bool
		rate                  float64
		requests, concurrency int
		ok                    bool
	}{
		{"closed defaults", false, 50, 32, 8, true},
		{"closed negative requests", false, 50, -1, 8, false},
		{"closed zero requests", false, 50, 0, 8, false},
		{"closed zero concurrency", false, 50, 32, 0, false},
		{"open ignores closed-loop flags", true, 50, -1, 0, true},
		{"open zero rate", true, 0, 32, 8, false},
	} {
		if err := checkLoad(tc.open, tc.rate, tc.requests, tc.concurrency); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
