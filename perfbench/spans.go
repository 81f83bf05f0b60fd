package main

import (
	"sort"
	"time"
)

// A span is one call into a layer's public function, recorded by the
// benchmark around the call site: name, rank, start, end and parent.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int           // index into the same rank's spans, -1 for a root
}

// recorder keeps spans in memory, one slice per physical rank.  Each rank
// is one goroutine, so a rank's slice and stack are only touched by that
// goroutine and need no lock.  A nil *recorder records nothing: the
// untraced driver runs the same code with tracing off.
type recorder struct {
	origin time.Time
	spans  [][]span
	stack  [][]int
}

func newRecorder(ranks int) *recorder {
	return &recorder{origin: time.Now(), spans: make([][]span, ranks), stack: make([][]int, ranks)}
}

func (r *recorder) begin(rank int, name string) {
	if r == nil {
		return
	}
	parent := -1
	if st := r.stack[rank]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans[rank] = append(r.spans[rank], span{name: name, start: time.Since(r.origin), parent: parent})
	r.stack[rank] = append(r.stack[rank], len(r.spans[rank])-1)
}

func (r *recorder) end(rank int) {
	if r == nil {
		return
	}
	st := r.stack[rank]
	r.spans[rank][st[len(st)-1]].end = time.Since(r.origin)
	r.stack[rank] = st[:len(st)-1]
}

// layerTimes is the result of one traced run: per layer, the summed self
// time over ranks and the number of calls; plus the summed root time.
type layerTimes struct {
	self  map[string]float64 // seconds, summed over ranks
	calls map[string]int     // summed over ranks
	ranks int                // ranks that recorded a root span
	root  float64            // summed root-span seconds
}

// rootName names the span that covers one rank's whole body.
const rootName = "run"

// summarize computes self times: a span's duration minus the part of it
// its child spans cover.  Spans on one rank nest strictly (one goroutine),
// so the covered part is the sum of the children's durations.
func (r *recorder) summarize() layerTimes {
	lt := layerTimes{self: map[string]float64{}, calls: map[string]int{}}
	for _, ss := range r.spans {
		child := make([]time.Duration, len(ss))
		for _, s := range ss {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range ss {
			d := s.end - s.start
			if s.name == rootName {
				lt.ranks++
				lt.root += d.Seconds()
			}
			lt.self[s.name] += (d - child[i]).Seconds()
			lt.calls[s.name]++
		}
	}
	return lt
}

// perRank returns the named layer's self time averaged over the ranks
// that ran.
func (lt layerTimes) perRank(name string) float64 {
	if lt.ranks == 0 {
		return 0
	}
	return lt.self[name] / float64(lt.ranks)
}

// coverage is the share of the ranks' wall time spent inside some layer
// call: the sum of the layers' self times over the sum of the root spans.
func (lt layerTimes) coverage() float64 {
	if lt.root == 0 {
		return 0
	}
	return 1 - lt.self[rootName]/lt.root
}

func median(v []float64) float64 {
	q := quartiles(v)
	return q[1]
}

// quartiles returns p25, p50 and p75 by linear interpolation between
// order statistics (the "inclusive" method).
func quartiles(v []float64) [3]float64 {
	if len(v) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
