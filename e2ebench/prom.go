package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// expo is a parsed /metrics scrape keyed by series text (name plus
// labels as exposed). Histogram _bucket lines are dropped: the
// benchmark reads only _sum and _count.
type expo map[string]sample

// parseExposition reads the Prometheus text format (version 0.0.4) as
// rspqd's /metrics and metrics.Registry.WritePrometheus write it.
func parseExposition(r io.Reader) (expo, error) {
	out := make(expo)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value", ln)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		key := line[:sp]
		s := sample{name: key, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels", ln)
			}
			if s.labels, err = parseLabels(s.name[i+1 : len(s.name)-1]); err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", ln, err)
			}
			s.name = s.name[:i]
		}
		if strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		out[key] = s
	}
	return out, sc.Err()
}

func parseLabels(s string) (map[string]string, error) {
	m := make(map[string]string)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label in %q", s)
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		m[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return m, nil
}

// sum adds every series named name whose labels include all the
// key/value pairs in match (given as alternating keys and values).
func (e expo) sum(name string, match ...string) float64 {
	total := 0.0
next:
	for _, s := range e {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// sub returns the per-series change from before to e: over a window,
// counters and histogram sums/counts become what happened inside it.
func (e expo) sub(before expo) expo {
	out := make(expo, len(e))
	for k, s := range e {
		s.value -= before[k].value
		out[k] = s
	}
	return out
}

// add accumulates another window's changes into e.
func (e expo) add(d expo) {
	for k, s := range d {
		if t, ok := e[k]; ok {
			s.value += t.value
		}
		e[k] = s
	}
}

// mean is a histogram family's mean observation (its unit: seconds
// for rspq's histograms); NaN when nothing was observed.
func (e expo) mean(name string, match ...string) float64 {
	n := e.sum(name+"_count", match...)
	if n == 0 {
		return math.NaN()
	}
	return e.sum(name+"_sum", match...) / n
}
