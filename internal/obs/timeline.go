package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Timeline rendering, the repository's one Chrome-trace encoder: the
// coordinator gathers span-fragment sets from the fleet, assigns each
// process a lane and a clock-skew correction, and `deesim -trace-out`
// hands over its one in-memory lane; this file turns the lot into one
// Chrome-trace-event JSON document ({"traceEvents":[...]}) that
// Perfetto and chrome://tracing load directly. Lanes become trace
// "processes" (named via metadata events), fragments become complete
// ("X") events — or instant ("i") events when zero-length — with
// timestamps rebased to the earliest adjusted span start so the
// timeline starts at zero. Within a process each event gets a computed
// track (tid), so concurrent spans draw side by side and spans on one
// track nest (tracks).

// Lane is one process's contribution to a merged timeline.
type Lane struct {
	// Name labels the lane, e.g. "coord" or "w0001 http://127.0.0.1:9".
	Name string
	// Frags are the lane's span fragments, in any order.
	Frags []SpanFragment
	// Skew is subtracted from every fragment timestamp: the estimated
	// amount by which this lane's clock runs ahead of the
	// coordinator's.
	Skew time.Duration
}

// timelineEvent is one Chrome trace-event object.
type timelineEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTimeline merges the lanes into one Chrome-trace JSON document
// on w. Events within each lane are sorted by adjusted start time, so
// per-lane timestamps are monotone by construction, and complete
// events on one track nest or are disjoint (CheckTimeline's rules).
func WriteTimeline(w io.Writer, lanes []Lane) error {
	var events []timelineEvent
	t0 := int64(0)
	first := true
	for _, ln := range lanes {
		for _, fr := range ln.Frags {
			s := fr.Start - int64(ln.Skew)
			if first || s < t0 {
				t0, first = s, false
			}
		}
	}
	for pid, ln := range lanes {
		events = append(events, timelineEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": ln.Name},
		})
		frags := append([]SpanFragment(nil), ln.Frags...)
		sort.SliceStable(frags, func(i, j int) bool {
			if frags[i].Start != frags[j].Start {
				return frags[i].Start < frags[j].Start
			}
			return frags[i].End > frags[j].End // a parent before the child it shares a start with
		})
		tids := tracks(frags)
		for i, fr := range frags {
			args := map[string]any{"trace": fr.Trace, "span": fr.Span}
			if fr.Parent != "" {
				args["parent"] = fr.Parent
			}
			if fr.Proc != "" {
				args["proc"] = fr.Proc
			}
			for k, v := range fr.Attrs {
				args[k] = v
			}
			ev := timelineEvent{
				Name: fr.Name,
				TS:   float64(fr.Start-int64(ln.Skew)-t0) / 1e3,
				PID:  pid,
				TID:  tids[i],
				Args: args,
			}
			if fr.End > fr.Start {
				ev.Ph = "X"
				ev.Dur = float64(fr.End-fr.Start) / 1e3
			} else {
				ev.Ph = "i"
				ev.S = "p"
			}
			events = append(events, ev)
		}
	}
	doc := struct {
		TraceEvents     []timelineEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// tracks assigns each of one lane's fragments, sorted by start (the
// longer first on ties), the lowest track on which it either nests
// inside the track's innermost open span or starts after that span
// ends. Complete events on one (pid, tid) then nest or are disjoint,
// as the trace-event model expects, and concurrent spans — leases in
// flight together, cell RPCs on a multi-slot worker — get tracks of
// their own.
func tracks(frags []SpanFragment) []int {
	var open [][]int64 // per track: end times of its open spans, outermost first
	tids := make([]int, len(frags))
	for i, fr := range frags {
		tid := 0
		for ; tid < len(open); tid++ {
			ends := open[tid]
			for len(ends) > 0 && ends[len(ends)-1] <= fr.Start {
				ends = ends[:len(ends)-1]
			}
			open[tid] = ends
			if len(ends) == 0 || fr.End <= ends[len(ends)-1] {
				break
			}
		}
		if tid == len(open) {
			open = append(open, nil)
		}
		open[tid] = append(open[tid], fr.End)
		tids[i] = tid
	}
	return tids
}

// timelineSlack absorbs float rounding when CheckTimeline compares
// span ends rebuilt from microsecond ts+dur: one nanosecond, the
// fragments' own resolution.
const timelineSlack = 1e-3

// CheckTimeline validates a Chrome-trace document such as
// WriteTimeline writes: every complete ("X") span has a nonnegative
// duration, event timestamps within each process lane are monotone
// nondecreasing — the merge sorts them, so a violation means a torn or
// mis-merged document, not clock skew — and complete spans on one
// (pid, tid) track nest or are disjoint. It returns a one-line summary
// for narration (and for CI to assert against).
func CheckTimeline(raw []byte) (string, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", fmt.Errorf("parse timeline: %v", err)
	}
	type track struct{ pid, tid int }
	lastTS := map[int]float64{}
	open := map[track][]float64{} // end times of each track's open spans
	lanes := map[int]bool{}
	spans, cells := 0, 0
	for _, ev := range doc.TraceEvents {
		lanes[ev.PID] = true
		if ev.Ph == "M" { // metadata (lane names) carries no timestamp
			continue
		}
		if ev.TS < 0 {
			return "", fmt.Errorf("span %q: negative timestamp %v", ev.Name, ev.TS)
		}
		if last, ok := lastTS[ev.PID]; ok && ev.TS < last {
			return "", fmt.Errorf("span %q: timestamp %v precedes %v in lane %d", ev.Name, ev.TS, last, ev.PID)
		}
		lastTS[ev.PID] = ev.TS
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 {
			return "", fmt.Errorf("span %q: negative duration %v", ev.Name, ev.Dur)
		}
		spans++
		if strings.HasPrefix(ev.Name, "cell ") {
			cells++
		}
		k := track{ev.PID, ev.TID}
		ends := open[k]
		for len(ends) > 0 && ends[len(ends)-1] <= ev.TS+timelineSlack {
			ends = ends[:len(ends)-1]
		}
		end := ev.TS + ev.Dur
		if len(ends) > 0 && end > ends[len(ends)-1]+timelineSlack {
			return "", fmt.Errorf("span %q: [%v, %v] overlaps a span ending at %v on lane %d track %d without nesting",
				ev.Name, ev.TS, end, ends[len(ends)-1], ev.PID, ev.TID)
		}
		open[k] = append(ends, end)
	}
	if spans == 0 {
		return "", fmt.Errorf("timeline has no complete spans")
	}
	return fmt.Sprintf("%d spans (%d cell) across %d lanes, timestamps monotone", spans, cells, len(lanes)), nil
}

// EstimateSkew estimates how far a remote lane's clock runs ahead of
// the reference lane, by pairing spans that describe the same work on
// both sides: for every key in pairs, the difference between the
// remote observation and the reference observation is one skew sample
// (plus the unknowable network delay); the median sample is the
// estimate. ref and remote map a pairing key — for cell spans, the
// lease ID — to the span's start nanos on that side. Zero pairs means
// zero skew (trust the clocks).
func EstimateSkew(ref, remote map[string]int64) time.Duration {
	var samples []int64
	for k, rt := range remote {
		if ct, ok := ref[k]; ok {
			samples = append(samples, rt-ct)
		}
	}
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return time.Duration(samples[len(samples)/2])
}
