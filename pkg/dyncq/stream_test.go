package dyncq

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

func TestParseUpdate(t *testing.T) {
	cases := []struct {
		in   string
		want Update
	}{
		{"+E(1,2)", dyndb.Insert("E", 1, 2)},
		{"E(1,2)", dyndb.Insert("E", 1, 2)},
		{"-E(1,2)", dyndb.Delete("E", 1, 2)},
		{"  - T( 7 ) ", dyndb.Delete("T", 7)},
		{"+R_1(-3,0,42)", dyndb.Insert("R_1", -3, 0, 42)},
	}
	for _, c := range cases {
		got, err := ParseUpdate(c.in)
		if err != nil {
			t.Errorf("ParseUpdate(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseUpdate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "E", "E()", "+(1)", "E(1", "E(a)", "E(1,,2)", "+-E(1,2)", "1E(1)", "E x(1)"} {
		if _, err := ParseUpdate(bad); err == nil {
			t.Errorf("ParseUpdate(%q): want error", bad)
		}
	}
}

// TestParseUpdateRejectsExplicitly pins the hardened rejections: doubled
// signs and interior/trailing garbage fail with errors naming the
// offence, not whatever a downstream rule tripped over first.
func TestParseUpdateRejectsExplicitly(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"+-E(1,2)", "doubled sign"},
		{"-+E(1,2)", "doubled sign"},
		{"--E(1)", "doubled sign"},
		{"+ +E(1)", "doubled sign"},
		{"E(1,2)x", "garbage after ')'"},
		{"E(1,2) extra", "garbage after ')'"},
		{"E(1,2) # trailing comment", "garbage after ')'"},
		{"E(1)(2)", "garbage after ')'"},
		{"E(1,2", "missing ')'"},
		{"E(1 2)", "not an int64"},
		{"E(0x1)", "not an int64"},
		{"E(1,,2)", "empty tuple entry"},
		{"E(1,2,)", "empty tuple entry"},
		{"E()", "empty tuple"},
		{"+", "want [+|-]R"},
		{"-", "want [+|-]R"},
	}
	for _, c := range cases {
		_, err := ParseUpdate(c.in)
		if err == nil {
			t.Errorf("ParseUpdate(%q): want error containing %q, got nil", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseUpdate(%q): error %q does not mention %q", c.in, err, c.wantSub)
		}
	}
}

// TestStreamRoundTrip: every update of a random stream comes back from
// its formatted line unchanged.
func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := map[string]int{"E": 2, "T": 1, "S": 3}
	for _, u := range workload.RandomStream(rng, schema, 20, 300, 0.4) {
		line := FormatUpdate(u)
		got, err := ParseUpdate(line)
		if err != nil {
			t.Fatalf("ParseUpdate(%q): %v", line, err)
		}
		if !reflect.DeepEqual(got, u) {
			t.Fatalf("ParseUpdate(FormatUpdate(%v)) = %v", u, got)
		}
	}
}
