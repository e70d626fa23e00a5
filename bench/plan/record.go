// Package plan is everything the benchmark decides before it measures: the
// generated data set split at tick lines, the seeded operation lists of the
// four workloads, the exact-sample statistics, and the point-sampling oracle
// that checks answers. It is shared by the end-to-end harness (package main
// in bench/) and the traced layer probe (bench/layers) and imports nothing
// from the product: it depends on pdrgen's JSONL format and the HTTP API's
// JSON, not on the packages that implement them.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Record is one line of the JSONL wire format pdrgen writes and pdrserve
// reads — a copy of the format, so that the harness survives a refactor of
// the package that implements it.
type Record struct {
	Kind string  `json:"kind"`
	Tick int64   `json:"tick"`
	ID   uint64  `json:"id,omitempty"`
	X    float64 `json:"x,omitempty"`
	Y    float64 `json:"y,omitempty"`
	VX   float64 `json:"vx,omitempty"`
	VY   float64 `json:"vy,omitempty"`
	Ref  int64   `json:"ref,omitempty"`
}

// Record kinds.
const (
	KindState  = "state"
	KindTick   = "tick"
	KindInsert = "insert"
	KindDelete = "delete"
)

// LayerReport is what the traced layer probe (bench/layers) prints and the
// harness reads: the two are separate programs.
type LayerReport struct {
	Correct bool               `json:"correct"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes"`
}

// TickBatch is one tick of the measured update stream: the clock value and
// the raw update lines that follow its tick line.
type TickBatch struct {
	Now   int64
	Lines [][]byte
}

// Body renders the batch as a POST /v1/updates body. The update lines are
// spliced in verbatim, so building a body costs no JSON encoding.
func (b TickBatch) Body() []byte {
	n := 32
	for _, l := range b.Lines {
		n += len(l) + 1
	}
	out := make([]byte, 0, n)
	out = append(out, `{"now":`...)
	out = strconv.AppendInt(out, b.Now, 10)
	out = append(out, `,"updates":[`...)
	for i, l := range b.Lines {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, l...)
	}
	return append(out, "]}"...)
}

// Dataset is one pdrgen output split at its tick lines.
type Dataset struct {
	// Preload is the initial states plus the first warm ticks, verbatim:
	// the file handed to `pdrserve -data`.
	Preload []byte
	// WarmNow is the server clock after the preload.
	WarmNow int64
	// Ticks is the measured stream that follows.
	Ticks []TickBatch
}

var tickPrefix = []byte(`{"kind":"tick"`)

// Split cuts pdrgen output into the preload (everything before tick line
// warm+1) and the per-tick batches after it. pdrserve applies the updates
// that follow a tick line at that tick's clock, so the preload ends just
// before a tick line and leaves the server at clock = warm.
func Split(data []byte, warm int) (*Dataset, error) {
	d := &Dataset{}
	seen := 0
	cut := -1
	for off := 0; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		next := len(data)
		if end >= 0 {
			next = off + end + 1
			end += off
		} else {
			end = len(data)
		}
		line := data[off:end]
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, tickPrefix):
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("plan: tick line %d: %w", seen+1, err)
			}
			seen++
			if seen <= warm {
				d.WarmNow = rec.Tick
			} else {
				if cut < 0 {
					cut = off
				}
				d.Ticks = append(d.Ticks, TickBatch{Now: rec.Tick})
			}
		case cut >= 0:
			last := &d.Ticks[len(d.Ticks)-1]
			last.Lines = append(last.Lines, line)
		}
		off = next
	}
	if seen < warm {
		return nil, fmt.Errorf("plan: stream has %d ticks, need %d warm ticks", seen, warm)
	}
	if cut < 0 {
		cut = len(data)
	}
	d.Preload = data[:cut]
	return d, nil
}
