package main

import (
	"strings"
	"testing"

	"repro/internal/exec"
)

// runUseplan runs planlab on Q3 with -useplan text, and -exec when
// execute is set.
func runUseplan(text string, execute bool) error {
	return run(0.0005, 42, "Q3", "", false, false, false, false, false, text, 0, 0, 1, execute, false, exec.Options{})
}

// TestUseplanRejectsInvalidNumbers: -useplan goes through core.ParseRank
// for both printing and -exec, so a negative number and one beyond
// core.MaxRankDigits digits are refused before any work is done.
func TestUseplanRejectsInvalidNumbers(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"negative", "-1", "invalid plan number"},
		{"5000 digits", strings.Repeat("9", 5000), "exceeds 4096 digits"},
		{"not a number", "12x", "invalid plan number"},
	}
	for _, tc := range cases {
		for _, execute := range []bool{false, true} {
			err := runUseplan(tc.text, execute)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (exec=%v): error %v, want one containing %q", tc.name, execute, err, tc.want)
			}
		}
	}
}

// TestUseplanValidNumber: a plan number in range unranks and executes.
func TestUseplanValidNumber(t *testing.T) {
	if err := runUseplan("5", true); err != nil {
		t.Fatal(err)
	}
}
