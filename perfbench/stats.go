package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"github.com/hunter-cdb/hunter"
)

// tailLadder is the set of percentiles a tail is picked from: the highest
// one that still has at least tailBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const tailBeyond = 10

// dist summarizes a sample set: its median, the tail percentile with its
// level, and the sample count.
type dist struct {
	P50     float64
	Tail    float64
	TailPct float64
	N       int
}

// summarize computes a dist. With too few samples for any ladder level
// the tail is the maximum, reported as percentile 100.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{P50: rank(s, 50), N: len(s), Tail: s[len(s)-1], TailPct: 100}
	for _, p := range tailLadder {
		if len(s)-rankIndex(len(s), p)-1 >= tailBeyond {
			d.Tail, d.TailPct = rank(s, p), p
			break
		}
	}
	return d
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func rank(sorted []float64, p float64) float64 { return sorted[rankIndex(len(sorted), p)] }

// median is the midpoint median (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// statusEvent is one SessionStatus update with its wall-clock arrival.
type statusEvent struct {
	at    time.Duration
	key   string
	phase string
	wave  int
	done  bool
}

// statusLog is the benchmark's status sink: it timestamps every update a
// session publishes. Fleet tenants publish from several goroutines at
// once, hence the lock.
type statusLog struct {
	start  time.Time
	mu     sync.Mutex
	events []statusEvent
}

var _ hunter.StatusSink = (*statusLog)(nil)

func newStatusLog() *statusLog { return &statusLog{start: time.Now()} }

// PublishStatus implements hunter.StatusSink.
func (l *statusLog) PublishStatus(st hunter.SessionStatus) {
	at := time.Since(l.start)
	l.mu.Lock()
	l.events = append(l.events, statusEvent{at: at, key: st.Key, phase: st.Phase, wave: st.Wave, done: st.Done})
	l.mu.Unlock()
}

// sessionTimeline is one session's updates in arrival order.
type sessionTimeline struct {
	key    string
	events []statusEvent
}

// sessions groups the log by session, in order of each session's first
// update.
func (l *statusLog) sessions() []sessionTimeline {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := map[string]int{}
	var out []sessionTimeline
	for _, ev := range l.events {
		i, ok := idx[ev.key]
		if !ok {
			i = len(out)
			idx[ev.key] = i
			out = append(out, sessionTimeline{key: ev.key})
		}
		out[i].events = append(out[i].events, ev)
	}
	return out
}

// waveGapsMs returns the wall gaps between successive wave-boundary
// updates of each session: an update whose wave number is higher than
// every earlier one of its session opens a new wave.
func waveGapsMs(sessions []sessionTimeline) []float64 {
	var gaps []float64
	for _, s := range sessions {
		lastWave, lastAt := -1, time.Duration(-1)
		for _, ev := range s.events {
			if ev.wave <= lastWave {
				continue
			}
			if lastAt >= 0 && lastWave > 0 {
				gaps = append(gaps, float64(ev.at-lastAt)/1e6)
			}
			lastWave, lastAt = ev.wave, ev.at
		}
	}
	return gaps
}

// span returns a session's first-update and done-update times; ok is
// false when the session never reported done.
func (s sessionTimeline) span() (start, end time.Duration, ok bool) {
	for _, ev := range s.events {
		if ev.done {
			return s.events[0].at, ev.at, true
		}
	}
	return 0, 0, false
}

// finalWave is the wave number of the session's last update.
func (s sessionTimeline) finalWave() int { return s.events[len(s.events)-1].wave }

// phaseSeconds sums, over sessions, the wall time from entering each
// phase to the next phase change (or the done update).
func phaseSeconds(sessions []sessionTimeline) map[string]float64 {
	out := map[string]float64{}
	for _, s := range sessions {
		cur, since := "", time.Duration(0)
		for _, ev := range s.events {
			if ev.phase == cur && !ev.done {
				continue
			}
			if cur != "" {
				out[cur] += (ev.at - since).Seconds()
			}
			cur, since = ev.phase, ev.at
			if ev.done {
				break
			}
		}
	}
	return out
}
