package main

import (
	"strings"
	"testing"
	"time"
)

func TestFmtDur(t *testing.T) {
	cases := map[int64]string{
		0:                              "0",
		250:                            "250ns",
		int64(3500 * time.Nanosecond):  "3.5µs",
		int64(42 * time.Millisecond):   "42.00ms",
		int64(2500 * time.Millisecond): "2.50s",
	}
	for ns, want := range cases {
		if got := fmtDur(ns); got != want {
			t.Errorf("fmtDur(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestParseStdinLabelAndErrors(t *testing.T) {
	if _, err := parse("/nonexistent/trace.jsonl"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[string]int{"span": 1, "corner": 2, "iteration": 3})
	want := "corner,iteration,span"
	if strings.Join(got, ",") != want {
		t.Fatalf("sortedKeys = %v, want %s", got, want)
	}
}
