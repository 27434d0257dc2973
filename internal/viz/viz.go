// Package viz renders schedules as ASCII Gantt charts in the style of the
// paper's figures (Figures 4, 5 and 8): one row per device, one column per
// time tick, each block drawn as its micro-batch index, with forward and
// backward blocks distinguished by case and repetend boundaries markable.
package viz

import (
	"fmt"
	"strings"

	"tessel/internal/sched"
)

// Options controls rendering.
type Options struct {
	// From/To clip the rendered time window; To = 0 means the makespan.
	From, To int
	// MaxWidth caps the number of columns; longer windows are compressed by
	// an integer scale factor. 0 defaults to 120.
	MaxWidth int
	// Marks draws vertical markers (e.g. repetend boundaries) at the given
	// times, rendered as '|' on the axis rows.
	Marks []int
}

// microRune encodes a micro-batch index as a compact rune: 0-9, then a-z,
// then '+' beyond.
func microRune(m int, backward bool) rune {
	var r rune
	switch {
	case m < 0:
		r = '?'
	case m < 10:
		r = rune('0' + m)
	case m < 36:
		r = rune('a' + m - 10)
	default:
		r = '+'
	}
	if backward && m >= 0 && m < 10 {
		// Backward blocks keep digits; distinguished by the separator row
		// style below instead (monochrome terminals).
		return r
	}
	return r
}

// Render draws the schedule as one text row per device. Forward blocks show
// their micro index inside '[' ']' delimiters on the first and last tick,
// backward blocks use '(' ')'. Idle time is '.'.
func Render(s *sched.Schedule, opts Options) string {
	if s == nil || s.P == nil || len(s.Items) == 0 {
		return "(empty schedule)\n"
	}
	from := opts.From
	to := opts.To
	if to <= 0 {
		to = s.Makespan()
	}
	if to <= from {
		return "(empty window)\n"
	}
	maxW := opts.MaxWidth
	if maxW <= 0 {
		maxW = 120
	}
	scale := 1
	for (to-from+scale-1)/scale > maxW {
		scale++
	}
	cols := (to - from + scale - 1) / scale
	p := s.P
	rows := make([][]rune, p.NumDevices)
	for d := range rows {
		rows[d] = make([]rune, cols)
		for c := range rows[d] {
			rows[d][c] = '.'
		}
	}
	col := func(t int) int {
		c := (t - from) / scale
		if c < 0 {
			c = 0
		}
		if c >= cols {
			c = cols - 1
		}
		return c
	}
	for _, it := range s.Items {
		st := &p.Stages[it.Stage]
		start, end := it.Start, it.Start+st.Time
		if end <= from || start >= to {
			continue
		}
		c0, c1 := col(max(start, from)), col(min(end, to)-1)
		fill := microRune(it.Micro, st.Kind == sched.Backward)
		for _, d := range st.Devices {
			for c := c0; c <= c1; c++ {
				rows[d][c] = fill
			}
			// Delimit multi-column blocks, keeping at least one digit
			// visible: two-column blocks show "m)" / "[m", wider blocks
			// show the full "(mm…m)" form.
			switch {
			case st.Kind == sched.Backward && c1-c0 >= 2:
				rows[d][c0] = '('
				rows[d][c1] = ')'
			case st.Kind == sched.Backward && c1 == c0+1:
				rows[d][c1] = ')'
			case st.Kind != sched.Backward && c1-c0 >= 2:
				rows[d][c0] = '['
				rows[d][c1] = ']'
			case st.Kind != sched.Backward && c1 == c0+1:
				rows[d][c0] = '['
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  t=[%d,%d) scale=%d  [m]=forward (m)=backward\n", p.Name, from, to, scale)
	axis := make([]rune, cols)
	for c := range axis {
		axis[c] = ' '
	}
	for _, m := range opts.Marks {
		if m >= from && m < to {
			axis[col(m)] = '|'
		}
	}
	if len(opts.Marks) > 0 {
		fmt.Fprintf(&b, "      %s\n", string(axis))
	}
	for d := 0; d < p.NumDevices; d++ {
		fmt.Fprintf(&b, "dev%-2d %s\n", d, string(rows[d]))
	}
	return b.String()
}

// RenderRepetend renders k unrolled instances of a repetend schedule with
// period marks — the red-bar views of Figure 8.
func RenderRepetend(s *sched.Schedule, period, k int, opts Options) string {
	marks := make([]int, 0, k+1)
	for j := 0; j <= k; j++ {
		marks = append(marks, s.Start()+j*period)
	}
	opts.Marks = append(opts.Marks, marks...)
	return Render(s, opts)
}

// Summary prints a one-paragraph description: makespan, per-device busy
// time and bubble rate.
func Summary(s *sched.Schedule) string {
	var b strings.Builder
	busy := s.BusyTime()
	fmt.Fprintf(&b, "%s: %d blocks, makespan %d, bubble %.1f%%\n",
		s.P.Name, s.Len(), s.Makespan(), 100*s.OverallBubbleRate())
	for d, bt := range busy {
		fmt.Fprintf(&b, "  dev%d busy %d (%.1f%%)\n", d, bt,
			100*float64(bt)/float64(max(1, s.Makespan()-s.Start())))
	}
	return b.String()
}
