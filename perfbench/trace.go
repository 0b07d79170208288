package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// span is one call into a layer's public function: name, wall interval,
// the span that caused it and, for serve requests, the request id. Times
// are Unix nanoseconds so that spans recorded by separate processes on one
// host merge onto one timeline.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	// Pid is the process track: 0 for the benchmark process, rank+1 for a
	// TCP worker. Tid separates concurrent callers within a process.
	Pid int `json:"pid"`
	Tid int `json:"tid,omitempty"`
}

// tracer keeps spans in memory until the run ends. When off it still
// times every span (the end-to-end metrics need the durations) but records
// nothing.
type tracer struct {
	on    bool
	pid   int
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

// active is an open span.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name string, parent int64) active {
	a := active{t: t, start: time.Now()}
	if t.on {
		a.s = span{Name: name, ID: int64(t.pid)<<40 | t.ids.Add(1), Parent: parent, Pid: t.pid}
	}
	return a
}

// id is the span's id, for use as a parent; 0 when tracing is off.
func (a *active) id() int64 { return a.s.ID }

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if a.t.on {
		a.s.Start = a.start.UnixNano()
		a.s.End = a.s.Start + int64(d)
		a.t.mu.Lock()
		a.t.spans = append(a.t.spans, a.s)
		a.t.mu.Unlock()
	}
	return d
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int64, f func()) float64 {
	a := t.begin(name, parent)
	f()
	return a.end().Seconds()
}

// clocked runs f inside a span and returns its wall and on-CPU durations
// in seconds.
func (t *tracer) clocked(name string, parent int64, f func()) (wall, cpu float64) {
	c := cpuNow()
	wall = t.timed(name, parent, f)
	return wall, (cpuNow() - c).Seconds()
}

// cpuNow returns the CPU time the process has used so far, user and
// system, summed over its threads (CLOCK_PROCESS_CPUTIME_ID). Unlike wall
// time it does not grow while the process waits to run: time the host
// gives other tenants or other processes (or steals from this virtual
// machine) is not counted, so the figures timed with it are the ones a
// change to the program moves, not the ones a busy neighbour moves.
func cpuNow() time.Duration {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// add merges spans recorded elsewhere (a worker process).
func (t *tracer) add(spans []span) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeChrome writes the spans as Chrome trace-event JSON: one process
// track per pid, complete ("X") events in microseconds from the earliest
// span, the span, parent and request ids in args, and the host label in
// the metadata.
func (t *tracer) writeChrome(path string, h host) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var base int64
	if len(spans) > 0 {
		base = spans[0].Start
	}
	pids := map[int]bool{}
	events := make([]event, 0, len(spans)+4)
	for _, s := range spans {
		if !pids[s.Pid] {
			pids[s.Pid] = true
			name := "perfbench"
			if s.Pid > 0 {
				name = fmt.Sprintf("tcp rank %d", s.Pid-1)
			}
			events = append(events, event{Name: "process_name", Ph: "M", Pid: s.Pid, Args: map[string]any{"name": name}})
		}
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: s.Pid, Tid: s.Tid,
			Ts: float64(s.Start-base) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": h})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
