package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// The testdata files are two /metrics scrapes of one rspqd, taken
// before and after three /query requests (one a repeat, answered from
// the result cache), one malformed /query and one two-pair
// existence-only /batch.
func readScrape(t *testing.T, name string) expo {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return e
}

func TestParseCapturedExposition(t *testing.T) {
	before := readScrape(t, "metrics_before.txt")
	after := readScrape(t, "metrics_after.txt")
	for k := range after {
		if strings.Contains(k, "_bucket") {
			t.Fatalf("bucket series %s kept", k)
		}
	}
	d := after.sub(before)
	for _, tc := range []struct {
		what string
		got  float64
		want float64
	}{
		{"query requests", d.sum("rspqd_http_requests_total", "endpoint", "query"), 4},
		{"query 2xx", d.sum("rspqd_http_requests_total", "endpoint", "query", "code", "2xx"), 3},
		{"query 4xx", d.sum("rspqd_http_requests_total", "endpoint", "query", "code", "4xx"), 1},
		{"batch requests", d.sum("rspqd_http_request_seconds_count", "endpoint", "batch"), 1},
		{"engine queries, all tiers", d.sum("rspq_query_seconds_count"), 3},
		{"result-cache hits", d.sum("rspq_cache_hits_total", "cache", "results"), 1},
		{"pin stage observations", d.sum("rspq_stage_seconds_count", "stage", "pin"), 4},
		{"query handler mean (s)", d.mean("rspqd_http_request_seconds", "endpoint", "query"), 0.000789529 / 4},
		{"engine query mean (s)", d.mean("rspq_query_seconds"), 0.00031418399999999996 / 3},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("%s: got %g, want %g", tc.what, tc.got, tc.want)
		}
	}
	if m := d.mean("rspq_query_seconds", "tier", "baseline"); !math.IsNaN(m) {
		t.Errorf("mean of an unobserved histogram = %g, want NaN", m)
	}

	// Summing two windows' changes is the change over both.
	acc := make(expo)
	acc.add(d)
	acc.add(d)
	if got := acc.sum("rspq_query_seconds_count"); got != 6 {
		t.Errorf("two accumulated windows: %g queries, want 6", got)
	}
}

func TestParseLabelEscapes(t *testing.T) {
	e, err := parseExposition(strings.NewReader("# HELP x y\nx{a=\"q\\\"uote\",b=\"back\\\\slash\",c=\"new\\nline\"} 2.5\nplain 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.sum("x", "a", `q"uote`, "b", `back\slash`, "c", "new\nline"); got != 2.5 {
		t.Errorf("escaped labels: got %g, want 2.5", got)
	}
	if got := e.sum("plain"); got != 3 {
		t.Errorf("unlabeled series: got %g, want 3", got)
	}
	for _, bad := range []string{"x{a=\"1\" 2\n", "x{a=1} 2\n", "novalue\n", "x 1.2.3\n"} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
